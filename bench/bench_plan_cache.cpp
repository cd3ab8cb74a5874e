// Cross-launch plan persistence and analytic replay (docs/MODEL.md §5d).
//
// Measures, per shape, the launch cost ladder the plan cache buys:
//
//   full          every block through the lane scheduler (replay off)
//   replay        in-launch trace replay (§5b): representatives execute,
//                 congruent blocks replay
//   plan_cold     replay + a cold store: capture, serialize, write
//   plan_warm     replay from the persisted plan: zero representative
//                 execution, every block served from disk state
//   analytic_warm counters straight from the persisted traces: no lane
//                 coroutines, no memory simulation, no output tensors
//
// and reports blocks/sec per mode plus the two headline speedups
// (plan_warm vs in-launch replay; analytic_warm vs full execution) as
// JSON. Persistence must be invisible except for speed: the bench checks
// byte-identical outputs (all output-materializing modes) and equality of
// every scheduling-invariant counter (all modes, analytic included), and
// folds the verdicts into the JSON.
//
// Shapes are deliberately moderate-grid: that is the regime the plan cache
// targets (representative execution dominates the in-launch replay cost;
// huge grids amortize their few representatives and see ~1x).
//
// A single wall-clock reading swings by tens of percent on a shared host,
// so each shape runs one untimed warm-up of every mode, then kRepeats
// timed rounds of the five modes in dependency order (each plan_cold
// rewrites the store the following warm modes read), so host drift hits
// every mode alike. `seconds` is the median, with `seconds_min` and
// `nrepeat` beside it; `blocks_per_sec` and the speedups derive from the
// medians.
#include <cstring>
#include <filesystem>
#include <memory>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/kernels/general_conv.hpp"
#include "src/kernels/special_conv.hpp"
#include "src/sim/plan_cache.hpp"

using namespace kconv;

namespace {

constexpr int kRepeats = 5;

struct Shape {
  const char* name;
  const char* kernel;  // "general" or "special"
  i64 c, n, f, k;
};

enum class Mode { Full, Replay, PlanCold, PlanWarm, AnalyticWarm };

struct Timed {
  kernels::KernelRun run;
  double seconds = 0.0;
  u64 blocks = 0;
};

std::string store_dir(const Shape& s) {
  return (std::filesystem::temp_directory_path() /
          (std::string("kconv_bench_plan_") + s.name))
      .string();
}

Timed run_shape(const Shape& s, Mode mode) {
  const auto img = bench::make_image(s.c, s.n, s.n);
  const auto flt = bench::make_filters(s.f, s.c, s.k);
  // Each cold run pays the full cold path: capture + serialize + write.
  if (mode == Mode::PlanCold) std::filesystem::remove_all(store_dir(s));
  sim::Device dev(sim::kepler_k40m());
  sim::LaunchOptions opt;
  opt.trace = sim::TraceLevel::Functional;
  opt.num_threads = 1;
  opt.replay = mode != Mode::Full;
  opt.analytic = mode == Mode::AnalyticWarm;
  // A fresh PlanCache every run: warm timings include the honest
  // per-process costs (directory probe, envelope load, prime).
  std::unique_ptr<sim::PlanCache> plans;
  Timed t;
  t.seconds = bench::wall_seconds([&] {
    if (mode != Mode::Full && mode != Mode::Replay) {
      plans = std::make_unique<sim::PlanCache>(store_dir(s));
      opt.plan_cache = plans.get();
    }
    if (std::strcmp(s.kernel, "general") == 0) {
      t.run = kernels::general_conv(dev, img, flt,
                                    kernels::table1_config(s.k), opt);
    } else {
      t.run = kernels::special_conv(dev, img, flt, {}, opt);
    }
  });
  t.blocks = t.run.launch.blocks_total;
  return t;
}

void emit_mode(const char* name, const bench::RunTimes& m, const Timed& t,
               bool hit_expected, bool first) {
  std::printf(
      "%s      {\"mode\": \"%s\", \"seconds\": %.4f, "
      "\"seconds_min\": %.4f, \"nrepeat\": %d, \"blocks_per_sec\": %.1f,\n"
      "       \"blocks_replayed\": %llu, \"plan_cache_hit\": %s%s}",
      first ? "" : ",\n", name, m.median, m.min, kRepeats,
      t.blocks / m.median,
      static_cast<unsigned long long>(t.run.launch.blocks_replayed),
      t.run.launch.plan_cache_hit ? "true" : "false",
      hit_expected && !t.run.launch.plan_cache_hit ? ", \"ERROR\": \"expected a plan hit\""
                                                   : "");
}

void report(const Shape& s, bool first) {
  // Dependency order: each plan_cold rewrites the store that the warm
  // modes after it read.
  constexpr Mode kModes[] = {Mode::Full, Mode::Replay, Mode::PlanCold,
                             Mode::PlanWarm, Mode::AnalyticWarm};
  // The last run of each mode is the one whose outputs and counters the
  // report compares.
  Timed last[std::size(kModes)];
  const std::vector<bench::RunTimes> times =
      bench::time_round_robin(std::size(kModes), kRepeats, [&](std::size_t e) {
        last[e] = run_shape(s, kModes[e]);
        return last[e].seconds;
      });
  std::filesystem::remove_all(store_dir(s));
  const auto median = [&](Mode m) {
    return times[static_cast<int>(m)].median;
  };
  const Timed& full = last[static_cast<int>(Mode::Full)];
  const Timed& replay = last[static_cast<int>(Mode::Replay)];
  const Timed& cold = last[static_cast<int>(Mode::PlanCold)];
  const Timed& warm = last[static_cast<int>(Mode::PlanWarm)];
  const Timed& ana = last[static_cast<int>(Mode::AnalyticWarm)];

  const bool outputs_ok = bench::outputs_identical(full.run, replay.run) &&
                          bench::outputs_identical(full.run, cold.run) &&
                          bench::outputs_identical(full.run, warm.run);
  bool stats_ok = true;
  for (const Timed* t : {&replay, &cold, &warm, &ana}) {
    stats_ok = bench::counters_match(full.run.launch.stats,
                                     t->run.launch.stats,
                                     StatsLevel::Schedule) &&
               stats_ok;
  }

  std::printf("%s    {\"name\": \"%s\", \"kernel\": \"%s\", \"c\": %lld, "
              "\"n\": %lld, \"f\": %lld, \"k\": %lld,\n"
              "     \"blocks\": %llu,\n     \"modes\": [\n",
              first ? "" : ",\n", s.name, s.kernel,
              static_cast<long long>(s.c), static_cast<long long>(s.n),
              static_cast<long long>(s.f), static_cast<long long>(s.k),
              static_cast<unsigned long long>(full.blocks));
  emit_mode("full", times[0], full, false, true);
  emit_mode("replay", times[1], replay, false, false);
  emit_mode("plan_cold", times[2], cold, false, false);
  emit_mode("plan_warm", times[3], warm, true, false);
  emit_mode("analytic_warm", times[4], ana, true, false);
  std::printf(
      "\n    ],\n"
      "     \"warm_vs_replay\": %.2f, \"analytic_vs_full\": %.2f,\n"
      "     \"outputs_identical\": %s, \"invariant_stats_equal\": %s,\n"
      "     \"analytic_outputs_skipped\": %s}",
      median(Mode::Replay) / median(Mode::PlanWarm),
      median(Mode::Full) / median(Mode::AnalyticWarm),
      bench::verdict(outputs_ok), bench::verdict(stats_ok),
      bench::verdict(!ana.run.output_valid));
}

}  // namespace

int main() {
  // Moderate grids where representative execution dominates the in-launch
  // replay cost — the launch shapes a warm plan is for (autotune probes,
  // short layers, repeated CLI invocations). The general shapes warm-replay
  // through per-block fast-forward; the c=1 special shape is a small
  // filter-heavy grid whose in-launch replay pays capture for only a
  // handful of blocks (its blocks all fast-forward: the grid sits under
  // the 16-block cutoff below which no launch makes tapes).
  const Shape shapes[] = {
      {"gen_c32_n56_f64_k3", "general", 32, 56, 64, 3},
      {"gen_c16_n40_f32_k5", "general", 16, 40, 32, 5},
      {"spec_c1_n32_f96_k5", "special", 1, 32, 96, 5},
  };
  std::printf("{\"bench\": \"plan_cache\", \"trace\": \"functional\", "
              "\"num_threads\": 1, \"iters\": %d,\n",
              kRepeats);
  std::printf(" \"shapes\": [\n");
  bool first = true;
  for (const Shape& s : shapes) {
    report(s, first);
    first = false;
  }
  std::printf("\n]}\n");
  return bench::exit_status();
}
