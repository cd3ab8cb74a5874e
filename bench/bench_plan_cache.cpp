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
#include <algorithm>
#include <chrono>
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
  const auto t0 = std::chrono::steady_clock::now();
  if (mode != Mode::Full && mode != Mode::Replay) {
    plans = std::make_unique<sim::PlanCache>(store_dir(s));
    opt.plan_cache = plans.get();
  }
  Timed t;
  if (std::strcmp(s.kernel, "general") == 0) {
    t.run = kernels::general_conv(dev, img, flt,
                                  kernels::table1_config(s.k), opt);
  } else {
    t.run = kernels::special_conv(dev, img, flt, {}, opt);
  }
  t.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  t.blocks = t.run.launch.blocks_total;
  return t;
}

/// One mode's timed runs: the sorted wall times and the last run, whose
/// outputs and counters the report compares.
struct Series {
  std::vector<double> seconds;
  Timed last;

  void add(Timed t) {
    seconds.push_back(t.seconds);
    last = std::move(t);
  }
  double median() const { return seconds[seconds.size() / 2]; }
  double min() const { return seconds.front(); }
};

void emit_mode(const char* name, const Series& m, bool hit_expected,
               bool first) {
  const Timed& t = m.last;
  std::printf(
      "%s      {\"mode\": \"%s\", \"seconds\": %.4f, "
      "\"seconds_min\": %.4f, \"nrepeat\": %d, \"blocks_per_sec\": %.1f,\n"
      "       \"blocks_replayed\": %llu, \"plan_cache_hit\": %s%s}",
      first ? "" : ",\n", name, m.median(), m.min(), kRepeats,
      t.blocks / m.median(),
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
  for (const Mode mode : kModes) (void)run_shape(s, mode);
  Series by_mode[std::size(kModes)];
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (const Mode mode : kModes) {
      by_mode[static_cast<int>(mode)].add(run_shape(s, mode));
    }
  }
  std::filesystem::remove_all(store_dir(s));
  for (Series& m : by_mode) std::sort(m.seconds.begin(), m.seconds.end());
  const auto series = [&](Mode m) -> const Series& {
    return by_mode[static_cast<int>(m)];
  };
  const Timed& full = series(Mode::Full).last;
  const Timed& replay = series(Mode::Replay).last;
  const Timed& cold = series(Mode::PlanCold).last;
  const Timed& warm = series(Mode::PlanWarm).last;
  const Timed& ana = series(Mode::AnalyticWarm).last;

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
  emit_mode("full", series(Mode::Full), false, true);
  emit_mode("replay", series(Mode::Replay), false, false);
  emit_mode("plan_cold", series(Mode::PlanCold), false, false);
  emit_mode("plan_warm", series(Mode::PlanWarm), true, false);
  emit_mode("analytic_warm", series(Mode::AnalyticWarm), true, false);
  std::printf(
      "\n    ],\n"
      "     \"warm_vs_replay\": %.2f, \"analytic_vs_full\": %.2f,\n"
      "     \"outputs_identical\": %s, \"invariant_stats_equal\": %s,\n"
      "     \"analytic_outputs_skipped\": %s}",
      series(Mode::Replay).median() / series(Mode::PlanWarm).median(),
      series(Mode::Full).median() / series(Mode::AnalyticWarm).median(),
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
