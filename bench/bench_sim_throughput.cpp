// Simulator throughput with the warp access-pattern cache on vs off
// (docs/MODEL.md §5c).
//
// Not a paper experiment: this guards the usability of the substrate. Runs
// a full-grid VGG-style GeneralConv shape at Timing level in each launch
// mode — serial, parallel, trace-replay, and warm plan-cache replay (serial
// and parallel, docs/MODEL.md §5d) — with the pattern cache disabled and
// enabled, and reports blocks/sec, the cache hit rate and the wall-clock
// speedup as JSON. The cache must be invisible except for speed:
// every mode also checks byte-identical outputs and equality of every
// memory-transaction counter (gmem sectors and DRAM sectors, smem request
// cycles / replay factor, constant-cache line misses) between the two runs,
// and folds the verdicts into the JSON.
//
// A single wall-clock reading swings by tens of percent on a shared host,
// so each shape runs one untimed warm-up of every mode (cache off and on),
// then kRepeats timed runs round-robin across the modes so host drift hits
// every mode alike. `*_seconds` is the median (with `*_seconds_min` and
// `nrepeat` beside it); `*_blocks_per_sec` and `speedup` derive from the
// medians.
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/kernels/general_conv.hpp"
#include "src/sim/plan_cache.hpp"

using namespace kconv;

namespace {

constexpr int kRepeats = 3;

struct Shape {
  const char* name;
  i64 c, n, f, k;
};

struct Mode {
  const char* name;
  u32 num_threads;
  bool replay;
  // Warm plan-cache launch: an untimed cold capture populates a fresh store
  // first, then the timed run replays every block from the loaded plan.
  bool plan_warm = false;
};

struct Timed {
  kernels::KernelRun run;
  double seconds = 0.0;
  u64 blocks = 0;
};

Timed run_shape(const Shape& s, const Mode& m, bool pattern_cache) {
  const auto img = bench::make_image(s.c, s.n, s.n);
  const auto flt = bench::make_filters(s.f, s.c, s.k);
  sim::LaunchOptions opt;
  opt.trace = sim::TraceLevel::Timing;
  opt.num_threads = m.num_threads;
  opt.replay = m.replay;
  opt.pattern_cache = pattern_cache;
  std::optional<sim::PlanCache> plans;
  if (m.plan_warm) {
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         (std::string("kconv_bench_thr_") + s.name + "_" + m.name +
          (pattern_cache ? "_pon" : "_poff")))
            .string();
    std::filesystem::remove_all(dir);
    plans.emplace(dir);
    opt.plan_cache = &*plans;
    sim::Device cold_dev(sim::kepler_k40m());
    (void)kernels::general_conv(cold_dev, img, flt,
                                kernels::table1_config(s.k), opt);
  }
  sim::Device dev(sim::kepler_k40m());
  Timed t;
  t.seconds = bench::wall_seconds([&] {
    t.run = kernels::general_conv(dev, img, flt, kernels::table1_config(s.k),
                                  opt);
  });
  t.blocks = t.run.launch.blocks_total;
  return t;
}

/// One mode's report: the timings with the pattern cache off and on, and
/// the last run of each, whose outputs and counters the report compares.
void report_mode(const Mode& m, const bench::RunTimes& off_t,
                 const bench::RunTimes& on_t, const Timed& off,
                 const Timed& on, bool first) {
  const sim::KernelStats& stats = on.run.launch.stats;
  const auto blocks = static_cast<double>(off.blocks);
  std::printf(
      "%s      {\"mode\": \"%s\", \"num_threads\": %u, \"replay\": %s, "
      "\"plan_warm\": %s,\n"
      "       \"blocks\": %llu, \"nrepeat\": %d,\n"
      "       \"cache_off_seconds\": %.3f, \"cache_off_seconds_min\": %.3f, "
      "\"cache_off_blocks_per_sec\": %.1f,\n"
      "       \"cache_on_seconds\": %.3f, \"cache_on_seconds_min\": %.3f, "
      "\"cache_on_blocks_per_sec\": %.1f,\n"
      "       \"speedup\": %.2f,\n"
      "       \"pattern_lookups\": %llu, \"pattern_hits\": %llu, "
      "\"hit_rate\": %.4f,\n"
      "       \"outputs_identical\": %s, \"counters_equal\": %s}",
      first ? "" : ",\n", m.name, m.num_threads, m.replay ? "true" : "false",
      m.plan_warm ? "true" : "false",
      static_cast<unsigned long long>(off.blocks), kRepeats, off_t.median,
      off_t.min, blocks / off_t.median, on_t.median, on_t.min,
      blocks / on_t.median, off_t.median / on_t.median,
      static_cast<unsigned long long>(stats.pattern_lookups),
      static_cast<unsigned long long>(stats.pattern_hits),
      stats.pattern_hit_rate(),
      bench::verdict(bench::outputs_identical(off.run, on.run)),
      bench::verdict(bench::counters_match(off.run.launch.stats,
                                           on.run.launch.stats,
                                           StatsLevel::Exact)));
}

void report_shape(const Shape& s, bool first) {
  const Mode modes[] = {
      {"serial", 1, false},
      {"parallel", 2, false},
      {"replay", 1, true},
      {"replay_plan_warm", 1, true, true},
      {"replay_parallel_plan_warm", 2, true, true},
  };
  constexpr std::size_t kModes = std::size(modes);
  // Entry 2 * i + c: mode i with the pattern cache off (c = 0) or on.
  std::vector<Timed> last(2 * kModes);
  const std::vector<bench::RunTimes> times =
      bench::time_round_robin(2 * kModes, kRepeats, [&](std::size_t e) {
        last[e] = run_shape(s, modes[e / 2], e % 2 == 1);
        return last[e].seconds;
      });
  std::printf("%s    {\"name\": \"%s\", \"c\": %lld, \"n\": %lld, "
              "\"f\": %lld, \"k\": %lld,\n     \"modes\": [\n",
              first ? "" : ",\n", s.name, static_cast<long long>(s.c),
              static_cast<long long>(s.n), static_cast<long long>(s.f),
              static_cast<long long>(s.k));
  for (std::size_t i = 0; i < kModes; ++i) {
    report_mode(modes[i], times[2 * i], times[2 * i + 1], last[2 * i],
                last[2 * i + 1], i == 0);
  }
  std::printf("\n    ]}");
}

}  // namespace

int main() {
  // VGG-style 3x3 layers, every block of the grid executed. The c=256
  // mid-network layer is the headline (its autotuned blocking has the
  // highest memory-instruction share, so the analyzers matter most); the
  // early-network c=64 layer shows the cache still pays when FMA work
  // dominates. The cache-on/off ratio is bounded by the analyzers' share
  // of wall time — the stream-retirement executor cut the per-event floor
  // ~1.9x, which shrinks that share and therefore this ratio.
  const Shape shapes[] = {
      {"vgg_c256_n28_f256_k3", 256, 28, 256, 3},
      {"vgg_c64_n56_f64_k3", 64, 56, 64, 3},
  };
  std::printf("{\"bench\": \"sim_throughput\", \"trace\": \"timing\",\n");
  std::printf(" \"shapes\": [\n");
  bool first = true;
  for (const Shape& s : shapes) {
    report_shape(s, first);
    first = false;
  }
  std::printf("\n]}\n");
  return bench::exit_status();
}
