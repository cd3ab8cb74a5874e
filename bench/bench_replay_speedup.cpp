// Trace-replay speedup on full-grid functional runs (docs/MODEL.md §5b).
//
// Runs every block of the grid with replay off and on (single thread, so
// the comparison isolates the replay engine from the thread pool) at
// Fig. 7 / Fig. 8 representative shapes, and reports blocks/sec plus the
// wall-clock speedup as JSON. Replay must be invisible except for speed:
// the bench also checks byte-identical outputs and equality of every
// scheduling-invariant counter, and folds the verdicts into the JSON.
//
// A single wall-clock reading swings by tens of percent on a shared host,
// so each shape runs one untimed warm-up of both modes, then kRepeats timed
// runs round-robin across the modes so host drift hits both alike.
// `*_seconds` is the median (with `*_seconds_min` and `nrepeat` beside
// it); `*_blocks_per_sec` and `speedup` derive from the medians.
#include <cstring>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/kernels/general_conv.hpp"
#include "src/kernels/special_conv.hpp"

using namespace kconv;

namespace {

constexpr int kRepeats = 3;

struct Shape {
  const char* name;
  const char* kernel;  // "general" or "special"
  i64 c, n, f, k;
};

struct Timed {
  kernels::KernelRun run;
  double seconds = 0.0;
  u64 blocks = 0;
};

Timed run_shape(const Shape& s, bool replay) {
  sim::Device dev(sim::kepler_k40m());
  const auto img = bench::make_image(s.c, s.n, s.n);
  const auto flt = bench::make_filters(s.f, s.c, s.k);
  sim::LaunchOptions opt;
  opt.trace = sim::TraceLevel::Functional;
  opt.replay = replay;
  opt.num_threads = 1;
  Timed t;
  t.seconds = bench::wall_seconds([&] {
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

void report(const Shape& s, bool first) {
  // Entry 0 runs direct, entry 1 replays; the last run of each is the one
  // whose outputs and counters the report compares.
  Timed last[2];
  const std::vector<bench::RunTimes> times =
      bench::time_round_robin(2, kRepeats, [&](std::size_t e) {
        last[e] = run_shape(s, e == 1);
        return last[e].seconds;
      });
  const Timed& off = last[0];
  const Timed& on = last[1];
  const bench::RunTimes& off_t = times[0];
  const bench::RunTimes& on_t = times[1];
  const auto blocks = static_cast<double>(off.blocks);
  std::printf(
      "%s    {\"name\": \"%s\", \"kernel\": \"%s\",\n"
      "     \"c\": %lld, \"n\": %lld, \"f\": %lld, \"k\": %lld,\n"
      "     \"blocks\": %llu, \"blocks_replayed\": %llu, \"nrepeat\": %d,\n"
      "     \"direct_seconds\": %.3f, \"direct_seconds_min\": %.3f, "
      "\"direct_blocks_per_sec\": %.1f,\n"
      "     \"replay_seconds\": %.3f, \"replay_seconds_min\": %.3f, "
      "\"replay_blocks_per_sec\": %.1f,\n"
      "     \"speedup\": %.2f,\n"
      "     \"outputs_identical\": %s, \"invariant_stats_equal\": %s}",
      first ? "" : ",\n", s.name, s.kernel, static_cast<long long>(s.c),
      static_cast<long long>(s.n), static_cast<long long>(s.f),
      static_cast<long long>(s.k),
      static_cast<unsigned long long>(off.blocks),
      static_cast<unsigned long long>(on.run.launch.blocks_replayed),
      kRepeats, off_t.median, off_t.min, blocks / off_t.median, on_t.median,
      on_t.min, blocks / on_t.median, off_t.median / on_t.median,
      bench::verdict(bench::outputs_identical(off.run, on.run)),
      bench::verdict(bench::counters_match(off.run.launch.stats,
                                           on.run.launch.stats,
                                           StatsLevel::Schedule)));
}

}  // namespace

int main() {
  // VGG-style conv3 layer (Fig. 8's general-case family) is the headline
  // shape; the smaller general shape and the Fig. 7 C = 1 shape show the
  // gain holds off the happy path (fewer blocks per class to amortize
  // into, and the special kernel's vectorized dtype respectively).
  const Shape shapes[] = {
      {"fig8_vgg_c64_n224_f64_k3", "general", 64, 224, 64, 3},
      {"fig8_c32_n112_f64_k3", "general", 32, 112, 64, 3},
      {"fig7_c1_n512_f16_k3", "special", 1, 512, 16, 3},
  };
  std::printf("{\"bench\": \"replay_speedup\", \"num_threads\": 1,\n");
  std::printf(" \"shapes\": [\n");
  bool first = true;
  for (const Shape& s : shapes) {
    report(s, first);
    first = false;
  }
  std::printf("\n]}\n");
  return bench::exit_status();
}
