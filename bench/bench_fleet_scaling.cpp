// Fleet scaling curves and shard-strategy crossover (docs/MODEL.md §9).
//
// Unlike bench_parallel_scaling (host wall-clock), every number here is
// MODELED and therefore deterministic: fleet makespans combine the
// simulator's per-device timing estimate with the transfer-ledger model,
// so the `sim_blocks_per_sec` fields are bit-stable across hosts and runs
// and the regression gate effectively checks them for equality.
//
// Two sections:
//  * "scaling"   — one general-conv shape at 1/2/4/8 devices for every
//    shard strategy, with the Demmel–Dinh verdicts and a monotone-batch
//    check (batch makespan must not grow as devices are added on a
//    compute-heavy shape).
//  * "crossover" — special conv (K = 5, 2 devices) swept over image
//    heights: batch sharding wins small images (the halo exchange's DMA
//    latency exceeds the half-replica staging it avoids), spatial wins
//    once the image is tall enough that staging a full input replica per
//    device costs more than the (K-1)-row halo. The measured crossover
//    height is part of the artifact.
//
// Both sections also re-assert the fleet determinism contract: every
// scheduling-invariant counter must match the single-device run exactly.
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/core/conv_api.hpp"

using namespace kconv;

namespace {

struct FleetRun {
  core::ConvResult res;
  double model_seconds = 0.0;  ///< fleet makespan (or device time at D=1)
};

FleetRun run_conv(i64 c, i64 n, i64 f, i64 k, u32 devices,
                  sim::ShardStrategy strategy) {
  sim::Device dev(sim::kepler_k40m());
  const auto img = bench::make_image(c, n, n);
  const auto flt = bench::make_filters(f, c, k);
  core::ConvOptions opt;
  opt.launch.replay = true;
  opt.launch.num_threads = 1;
  opt.launch.fleet.devices = devices;
  opt.launch.fleet.strategy = strategy;
  FleetRun r;
  r.res = core::conv2d(dev, img, flt, opt);
  r.model_seconds = r.res.launch.fleet.enabled ? r.res.launch.fleet.seconds
                                               : r.res.total_seconds;
  return r;
}

void scaling_section() {
  // General-case shape with several filter groups (so channel sharding
  // has an axis to cut) and enough arithmetic that batch scaling is
  // transfer-tolerant: compute shrinks ~1/D while per-device staging
  // stays flat, so makespan must still fall as devices are added.
  const i64 c = 64, n = 48, f = 128, k = 5;
  const FleetRun base = run_conv(c, n, f, k, 1, sim::ShardStrategy::Batch);
  const double blocks =
      static_cast<double>(base.res.launch.blocks_total);

  std::printf(" \"scaling\": {\n");
  std::printf("  \"kernel\": \"general\", \"c\": %lld, \"n\": %lld,"
              " \"f\": %lld, \"k\": %lld, \"blocks\": %.0f,\n",
              static_cast<long long>(c), static_cast<long long>(n),
              static_cast<long long>(f), static_cast<long long>(k), blocks);
  std::printf("  \"entries\": [\n");
  std::printf("   {\"name\": \"d1\", \"devices\": 1, \"shard\": \"none\",\n"
              "    \"model_seconds\": %.6e, \"sim_blocks_per_sec\": %.1f,\n"
              "    \"transfer_seconds\": 0.0, \"h2d_bytes\": 0,"
              " \"d2h_bytes\": 0, \"d2d_bytes\": 0}",
              base.model_seconds, blocks / base.model_seconds);

  const sim::ShardStrategy strategies[] = {sim::ShardStrategy::Batch,
                                           sim::ShardStrategy::Channel,
                                           sim::ShardStrategy::Spatial};
  bool counters_exact = true;
  bool monotone_batch = true;
  double prev_batch_seconds = base.model_seconds;
  for (const u32 d : {2u, 4u, 8u}) {
    for (const sim::ShardStrategy s : strategies) {
      const FleetRun r = run_conv(c, n, f, k, d, s);
      const sim::FleetResult& fl = r.res.launch.fleet;
      counters_exact = bench::counters_match(base.res.launch.stats,
                                             r.res.launch.stats,
                                             StatsLevel::Schedule) &&
                       counters_exact;
      if (s == sim::ShardStrategy::Batch) {
        monotone_batch =
            monotone_batch && r.model_seconds <= prev_batch_seconds;
        prev_batch_seconds = r.model_seconds;
      }
      std::printf(
          ",\n   {\"name\": \"d%u_%s\", \"devices\": %u,"
          " \"shard\": \"%s\",\n"
          "    \"model_seconds\": %.6e, \"sim_blocks_per_sec\": %.1f,\n"
          "    \"transfer_seconds\": %.6e, \"h2d_bytes\": %llu,"
          " \"d2h_bytes\": %llu, \"d2d_bytes\": %llu,\n"
          "    \"interdevice_ratio\": %.3f,"
          " \"interdevice_verdict\": \"%s\",\n"
          "    \"interlevel_ratio\": %.3f,"
          " \"interlevel_verdict\": \"%s\"}",
          d, sim::shard_name(s), d, sim::shard_name(s), r.model_seconds,
          blocks / r.model_seconds, fl.transfer_seconds,
          static_cast<unsigned long long>(fl.h2d_bytes),
          static_cast<unsigned long long>(fl.d2h_bytes),
          static_cast<unsigned long long>(fl.d2d_bytes),
          fl.interdevice_ratio, fl.interdevice_verdict.c_str(),
          fl.interlevel_ratio, fl.interlevel_verdict.c_str());
    }
  }
  std::printf("\n  ],\n");
  std::printf("  \"monotone_batch_scaling\": %s,\n",
              monotone_batch ? "true" : "false");
  std::printf("  \"counters_exact\": %s\n },\n",
              bench::verdict(counters_exact));
}

void crossover_section() {
  // Special conv, K = 5, 2 devices: batch vs spatial makespan over image
  // height. Both strategies split compute evenly; the tradeoff is pure
  // transfer model — spatial pays one halo DMA (latency-dominated at
  // small Hi) to avoid staging the other half of the input replica
  // (bandwidth-dominated at large Hi).
  const i64 f = 16, k = 5;
  const u32 devices = 2;
  std::printf(" \"crossover\": {\n");
  std::printf("  \"kernel\": \"special\", \"f\": %lld, \"k\": %lld,"
              " \"devices\": %u,\n",
              static_cast<long long>(f), static_cast<long long>(k), devices);
  std::printf("  \"points\": [\n");
  i64 crossover_hi = -1;
  bool first = true;
  for (const i64 hi : {16, 32, 64, 128, 256, 512}) {
    const FleetRun batch =
        run_conv(1, hi, f, k, devices, sim::ShardStrategy::Batch);
    const FleetRun spatial =
        run_conv(1, hi, f, k, devices, sim::ShardStrategy::Spatial);
    const bool spatial_wins = spatial.model_seconds < batch.model_seconds;
    if (spatial_wins && crossover_hi < 0) crossover_hi = hi;
    std::printf(
        "%s   {\"name\": \"hi%lld\", \"hi\": %lld,"
        " \"batch_seconds\": %.6e, \"spatial_seconds\": %.6e,\n"
        "    \"halo_d2d_bytes\": %llu, \"winner\": \"%s\"}",
        first ? "" : ",\n", static_cast<long long>(hi),
        static_cast<long long>(hi), batch.model_seconds,
        spatial.model_seconds,
        static_cast<unsigned long long>(spatial.res.launch.fleet.d2d_bytes),
        spatial_wins ? "spatial" : "batch");
    first = false;
  }
  std::printf("\n  ],\n");
  std::printf("  \"crossover_hi\": %lld\n }\n",
              static_cast<long long>(crossover_hi));
}

}  // namespace

int main() {
  std::printf("{\"bench\": \"fleet_scaling\","
              " \"interconnect\": \"pcie3-x16\",\n");
  scaling_section();
  crossover_section();
  std::printf("}\n");
  return bench::exit_status();
}
