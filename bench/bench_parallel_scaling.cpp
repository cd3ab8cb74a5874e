// Host-side parallel-simulation scaling: wall-clock throughput of the
// multi-threaded launcher (LaunchOptions::num_threads) and the parallel
// autotune sweep at 1, 2, 4 and all hardware threads.
//
// Unlike the other bench binaries this measures the SIMULATOR, not the
// modeled GPU: blocks simulated per second of host time. Outputs and
// rankings are thread-count-invariant (see tests/determinism), so every
// row computes the same result — only the wall clock should move.
//
// A single wall-clock reading per thread count swings by tens of percent
// on a shared host, so each section runs one untimed warm-up per thread
// count and then times every count kRepeats times, round-robin across the
// counts so host drift hits every count alike (bench::time_round_robin).
// `seconds` is the median (with `seconds_min` and `nrepeat` beside it);
// `blocks_per_sec` and `speedup` derive from the medians.
//
// Emits one pure-JSON document (embedded as the artifact's "report" by
// scripts/run_benches.sh). On a single-CPU host the thread pool can only
// overlap scheduling, not compute, so the speedup columns are noise, not
// signal: the report carries "host_limited": true and the regression gate
// (scripts/check_bench_regression.sh) skips speedup-ratio gating — but
// NOT absolute blocks/sec gating — when it sees that flag.
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/core/autotune.hpp"
#include "src/kernels/general_conv.hpp"

namespace kconv::bench {
namespace {

constexpr int kRepeats = 5;

std::vector<u32> thread_counts() {
  const u32 hw = std::thread::hardware_concurrency();
  std::vector<u32> counts = {1, 2, 4};
  if (hw > 4) counts.push_back(hw);
  return counts;
}

void launch_scaling() {
  const tensor::Tensor img = make_image(16, 128, 128);
  const tensor::Tensor flt = make_filters(64, 16, 3);
  const kernels::GeneralConvConfig cfg = kernels::table1_config(3);
  const std::vector<u32> counts = thread_counts();

  u64 blocks = 0;
  const auto times =
      time_round_robin(counts.size(), kRepeats, [&](std::size_t i) {
        return wall_seconds([&] {
          sim::Device dev(sim::kepler_k40m());
          sim::LaunchOptions opt;
          opt.num_threads = counts[i];
          blocks = kernels::general_conv(dev, img, flt, cfg, opt)
                       .launch.blocks_executed;
        });
      });

  std::printf(" \"launch_scaling\": [\n");
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const u32 t = counts[i];
    const double secs = times[i].median;
    std::printf("%s  {\"name\": \"launch_threads_%u\", \"threads\": %u,"
                " \"seconds\": %.6f, \"seconds_min\": %.6f,"
                " \"nrepeat\": %d, \"blocks\": %llu,\n"
                "   \"blocks_per_sec\": %.1f, \"speedup\": %.3f}",
                i == 0 ? "" : ",\n", t, t, secs, times[i].min, kRepeats,
                static_cast<unsigned long long>(blocks),
                static_cast<double>(blocks) / secs, times[0].median / secs);
  }
  std::printf("\n ],\n");
}

void autotune_scaling() {
  const std::vector<u32> counts = thread_counts();
  core::GeneralAutotuneResult res;
  const auto times =
      time_round_robin(counts.size(), kRepeats, [&](std::size_t i) {
        return wall_seconds([&] {
          sim::Device dev(sim::kepler_k40m());
          res = core::autotune_general(dev, 5, 8, 64, 64, {}, 2, counts[i]);
        });
      });

  std::printf(" \"autotune_scaling\": [\n");
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const u32 t = counts[i];
    const double secs = times[i].median;
    std::printf("%s  {\"name\": \"autotune_threads_%u\", \"threads\": %u,"
                " \"seconds\": %.6f, \"seconds_min\": %.6f,"
                " \"nrepeat\": %d,\n"
                "   \"evaluated\": %lld, \"skipped\": %lld,"
                " \"speedup\": %.3f}",
                i == 0 ? "" : ",\n", t, t, secs, times[i].min, kRepeats,
                static_cast<long long>(res.evaluated),
                static_cast<long long>(res.skipped), times[0].median / secs);
  }
  std::printf("\n ]\n");
}

}  // namespace
}  // namespace kconv::bench

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("{\"bench\": \"parallel_scaling\","
              " \"hardware_concurrency\": %u,"
              " \"host_limited\": %s,\n",
              hw, hw <= 1 ? "true" : "false");
  kconv::bench::launch_scaling();
  kconv::bench::autotune_scaling();
  std::printf("}\n");
  return 0;
}
