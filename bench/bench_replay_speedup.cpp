// Trace-replay speedup on full-grid functional runs (docs/MODEL.md §5b).
//
// Runs every block of the grid with replay off and on (single thread, so
// the comparison isolates the replay engine from the thread pool) at
// Fig. 7 / Fig. 8 representative shapes, and reports blocks/sec plus the
// wall-clock speedup as JSON. Replay must be invisible except for speed:
// the bench also checks byte-identical outputs and equality of every
// scheduling-invariant counter, and folds the verdicts into the JSON.
#include <chrono>
#include <cstring>

#include "bench/bench_util.hpp"
#include "src/kernels/general_conv.hpp"
#include "src/kernels/special_conv.hpp"

using namespace kconv;

namespace {

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
  const auto t0 = std::chrono::steady_clock::now();
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

void report(const Shape& s, bool first) {
  const Timed off = run_shape(s, false);
  const Timed on = run_shape(s, true);
  std::printf(
      "%s    {\"name\": \"%s\", \"kernel\": \"%s\",\n"
      "     \"c\": %lld, \"n\": %lld, \"f\": %lld, \"k\": %lld,\n"
      "     \"blocks\": %llu, \"blocks_replayed\": %llu,\n"
      "     \"direct_seconds\": %.3f, \"direct_blocks_per_sec\": %.1f,\n"
      "     \"replay_seconds\": %.3f, \"replay_blocks_per_sec\": %.1f,\n"
      "     \"speedup\": %.2f,\n"
      "     \"outputs_identical\": %s, \"invariant_stats_equal\": %s}",
      first ? "" : ",\n", s.name, s.kernel, static_cast<long long>(s.c),
      static_cast<long long>(s.n), static_cast<long long>(s.f),
      static_cast<long long>(s.k),
      static_cast<unsigned long long>(off.blocks),
      static_cast<unsigned long long>(on.run.launch.blocks_replayed),
      off.seconds, off.blocks / off.seconds, on.seconds,
      on.blocks / on.seconds, off.seconds / on.seconds,
      bench::verdict(bench::outputs_identical(off.run, on.run)),
      bench::verdict(bench::counters_match(
          off.run.launch.stats, on.run.launch.stats, StatsLevel::Schedule)));
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
