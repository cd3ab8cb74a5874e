// Fleet sharding and transfer-model suite (docs/MODEL.md §9).
//
// The contract under test:
//   - shard_grid partitions are exact covers: balanced to within one unit
//     of the sharded extent, contiguous in flat launch order (batch and
//     spatial), strided per grid row (channel), with devices beyond the
//     extent receiving zero blocks;
//   - strategies that need an axis the kernel did not declare are rejected
//     loudly, never mis-sharded;
//   - model_transfers charges exactly the staged footprints: full input
//     replica (batch), full input + filter slice (channel), input share +
//     full filters + (K-1)-row halo d2d on interior cuts (spatial);
//   - TransferLedger::seconds is the bytes/bandwidth + per-op latency sum;
//   - analyze_fleet verdicts: ratio at the bound -> "optimal", k times
//     over -> "within-kx", transfers dominating compute ->
//     "communication-bound";
//   - a fleet launch through a shared PlanCache stores its plan exactly
//     once (store-once regression), and the stored plan is partition-
//     portable (warm at any device count).
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/kernels/general_conv.hpp"
#include "src/sim/fleet.hpp"
#include "src/sim/plan_cache.hpp"
#include "src/sim/transfer.hpp"

namespace kconv {
namespace {

namespace fs = std::filesystem;

sim::FleetOptions fleet_opt(u32 devices, sim::ShardStrategy s) {
  sim::FleetOptions f;
  f.devices = devices;
  f.strategy = s;
  return f;
}

sim::FleetHints both_axes_hints() {
  sim::FleetHints h;
  h.provided = true;
  h.channel_axis = 0;
  h.spatial_axis = 1;
  h.spatial_minor = 1;
  return h;
}

u64 total_blocks(const std::vector<sim::FleetShard>& shards) {
  u64 n = 0;
  for (const auto& s : shards) n += s.blocks;
  return n;
}

TEST(ShardGrid, BatchSlabsAreBalancedContiguousCover) {
  const sim::Dim3 grid{5, 7, 1};  // 35 blocks across 4 devices
  const auto shards =
      shard_grid(grid, fleet_opt(4, sim::ShardStrategy::Batch), {});
  ASSERT_EQ(shards.size(), 4u);
  EXPECT_EQ(total_blocks(shards), 35u);
  u64 next = 0;
  for (const auto& s : shards) {
    ASSERT_EQ(s.runs.size(), 1u);
    EXPECT_EQ(s.runs[0].begin, next);
    EXPECT_EQ(s.blocks, s.runs[0].end - s.runs[0].begin);
    EXPECT_GE(s.blocks, 35u / 4);
    EXPECT_LE(s.blocks, 35u / 4 + 1);
    next = s.runs[0].end;
  }
  EXPECT_EQ(next, 35u);
}

TEST(ShardGrid, SpatialSplitsRowGroupsWithMinorFold) {
  // grid.y = rows * minor: 4 row groups of 2 column blocks, grid.x = 3.
  sim::FleetHints h = both_axes_hints();
  h.spatial_minor = 2;
  const sim::Dim3 grid{3, 8, 1};
  const auto shards =
      shard_grid(grid, fleet_opt(3, sim::ShardStrategy::Spatial), h);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(total_blocks(shards), 24u);
  // slab_bound(., 4, 3): rows split 1 / 1 / 2; per_row = minor * grid.x.
  EXPECT_EQ(shards[0].row_begin, 0u);
  EXPECT_EQ(shards[0].row_end, 1u);
  EXPECT_EQ(shards[2].row_end, 4u);
  ASSERT_EQ(shards[1].runs.size(), 1u);
  EXPECT_EQ(shards[1].runs[0].begin, 6u);
  EXPECT_EQ(shards[1].runs[0].end, 12u);
  EXPECT_EQ(shards[2].blocks, 12u);
}

TEST(ShardGrid, ChannelOwnsFilterGroupsAcrossEveryRow) {
  const sim::Dim3 grid{4, 3, 1};  // 4 filter groups, 3 spatial rows
  const auto shards = shard_grid(
      grid, fleet_opt(2, sim::ShardStrategy::Channel), both_axes_hints());
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(total_blocks(shards), 12u);
  // Device 0 owns groups [0, 2) of every row: one strided run per row.
  ASSERT_EQ(shards[0].runs.size(), 3u);
  for (u64 y = 0; y < 3; ++y) {
    EXPECT_EQ(shards[0].runs[y].begin, y * 4 + 0);
    EXPECT_EQ(shards[0].runs[y].end, y * 4 + 2);
    EXPECT_EQ(shards[1].runs[y].begin, y * 4 + 2);
    EXPECT_EQ(shards[1].runs[y].end, y * 4 + 4);
  }
}

TEST(ShardGrid, RejectsStrategiesTheKernelDidNotDeclare) {
  const sim::Dim3 grid{4, 4, 1};
  // No hints at all.
  EXPECT_THROW(
      shard_grid(grid, fleet_opt(2, sim::ShardStrategy::Spatial), {}),
      Error);
  // Hints without a channel axis (the special kernel's shape).
  sim::FleetHints h = both_axes_hints();
  h.channel_axis = -1;
  EXPECT_THROW(
      shard_grid(grid, fleet_opt(2, sim::ShardStrategy::Channel), h),
      Error);
  // 3D grids cannot be axis-sharded.
  EXPECT_THROW(shard_grid({2, 2, 2},
                          fleet_opt(2, sim::ShardStrategy::Spatial),
                          both_axes_hints()),
               Error);
  // A minor fold that does not divide the axis extent.
  sim::FleetHints bad_minor = both_axes_hints();
  bad_minor.spatial_minor = 3;
  EXPECT_THROW(shard_grid({1, 4, 1},
                          fleet_opt(2, sim::ShardStrategy::Spatial),
                          bad_minor),
               Error);
}

TEST(ShardGrid, DevicesBeyondTheExtentStageNothing) {
  // 2 row groups across 4 devices: two devices own zero blocks, and
  // model_transfers leaves their ledgers empty.
  sim::FleetHints h = both_axes_hints();
  h.input_bytes = 4000;
  h.filter_bytes = 500;
  h.output_bytes = 2000;
  h.halo_bytes_per_cut = 64;
  const sim::FleetOptions f = fleet_opt(4, sim::ShardStrategy::Spatial);
  auto shards = shard_grid({3, 2, 1}, f, h);
  model_transfers(f, h, 6, shards);
  u32 idle = 0, active = 0;
  for (const auto& s : shards) {
    if (s.blocks == 0) {
      ++idle;
      EXPECT_EQ(s.ledger.total_bytes(), 0u);
      EXPECT_EQ(s.ledger.h2d_ops + s.ledger.d2h_ops + s.ledger.d2d_ops, 0u);
    } else {
      ++active;
    }
  }
  EXPECT_EQ(idle, 2u);
  EXPECT_EQ(active, 2u);
  EXPECT_EQ(total_blocks(shards), 6u);
}

TEST(ModelTransfers, ChargesTheStagedFootprintPerStrategy) {
  sim::FleetHints h = both_axes_hints();
  h.input_bytes = 1000;
  h.filter_bytes = 500;
  h.output_bytes = 2000;
  h.halo_bytes_per_cut = 64;
  const sim::Dim3 grid{4, 4, 1};  // 16 blocks, split 8 / 8 at D = 2

  {
    const sim::FleetOptions f = fleet_opt(2, sim::ShardStrategy::Batch);
    auto shards = shard_grid(grid, f, h);
    model_transfers(f, h, 16, shards);
    for (const auto& s : shards) {
      EXPECT_EQ(s.ledger.h2d_bytes, 1500u);  // full input replica + filters
      EXPECT_EQ(s.ledger.d2h_bytes, 1000u);  // half the output
      EXPECT_EQ(s.ledger.d2d_bytes, 0u);
      EXPECT_EQ(s.ledger.h2d_ops, 2u);
      EXPECT_EQ(s.ledger.d2h_ops, 1u);
    }
  }
  {
    const sim::FleetOptions f = fleet_opt(2, sim::ShardStrategy::Channel);
    auto shards = shard_grid(grid, f, h);
    model_transfers(f, h, 16, shards);
    for (const auto& s : shards) {
      EXPECT_EQ(s.ledger.h2d_bytes, 1250u);  // full input + half filters
      EXPECT_EQ(s.ledger.d2h_bytes, 1000u);
      EXPECT_EQ(s.ledger.d2d_bytes, 0u);
    }
  }
  {
    const sim::FleetOptions f = fleet_opt(2, sim::ShardStrategy::Spatial);
    auto shards = shard_grid(grid, f, h);
    model_transfers(f, h, 16, shards);
    // Half the input + full filters each; one halo exchange charged to the
    // receiving (upper) device only.
    EXPECT_EQ(shards[0].ledger.h2d_bytes, 1000u);
    EXPECT_EQ(shards[1].ledger.h2d_bytes, 1000u);
    EXPECT_EQ(shards[0].ledger.d2d_bytes, 64u);
    EXPECT_EQ(shards[0].ledger.d2d_ops, 1u);
    EXPECT_EQ(shards[1].ledger.d2d_bytes, 0u);
  }
}

TEST(TransferLedger, SecondsIsBandwidthPlusPerOpLatency) {
  sim::TransferLedger l;
  l.h2d_bytes = 12'000'000;  // 1 ms at 12 GB/s
  l.d2h_bytes = 6'000'000;   // 0.5 ms
  l.d2d_bytes = 6'000'000;   // 1 ms at the 6 GB/s store-and-forward rate
  l.h2d_ops = 2;
  l.d2h_ops = 1;
  l.d2d_ops = 1;
  const sim::Interconnect link = sim::pcie3_x16();
  EXPECT_NEAR(l.seconds(link), 1e-3 + 0.5e-3 + 1e-3 + 4 * 10e-6, 1e-9);
  // NVLink-class p2p: all three flows at 40 GB/s, 5 us per op.
  const sim::Interconnect nv = sim::nvlink_like();
  EXPECT_TRUE(nv.p2p);
  EXPECT_LT(l.seconds(nv), l.seconds(link));
}

TEST(AnalyzeFleet, VerdictsTrackRatioAndDominance) {
  const sim::Arch arch = sim::kepler_k40m();
  sim::FleetHints h = both_axes_hints();
  h.input_bytes = 1000;
  h.filter_bytes = 500;
  h.output_bytes = 2000;
  const sim::FleetOptions f = fleet_opt(2, sim::ShardStrategy::Batch);
  auto shards = shard_grid({4, 4, 1}, f, h);
  model_transfers(f, h, 16, shards);
  std::vector<sim::KernelStats> stats(2);
  stats[0].blocks_executed = 8;
  stats[1].blocks_executed = 8;

  // Compute dwarfs the (tiny) transfers: the byte ratio decides. Batch
  // moves a full input replica per device, so it sits above the footprint
  // bound but within a small factor.
  const sim::FleetResult compute_heavy =
      analyze_fleet(arch, f, h, 16, shards, stats, {1.0, 1.0});
  EXPECT_TRUE(compute_heavy.enabled);
  EXPECT_EQ(compute_heavy.devices, 2u);
  EXPECT_GT(compute_heavy.interdevice_ratio, 1.0);
  EXPECT_TRUE(compute_heavy.interdevice_verdict == "optimal" ||
              compute_heavy.interdevice_verdict.rfind("within-", 0) == 0)
      << compute_heavy.interdevice_verdict;

  // Transfers dominate a (nonzero) compute time: communication-bound wins
  // over any byte ratio.
  const sim::FleetResult comm_heavy =
      analyze_fleet(arch, f, h, 16, shards, stats, {1e-12, 1e-12});
  EXPECT_EQ(comm_heavy.interdevice_verdict, "communication-bound");

  // The makespan is max over devices of transfer + compute.
  EXPECT_NEAR(compute_heavy.seconds,
              1.0 + compute_heavy.device_reports[0].transfer_seconds,
              1e-9);
  // Aggregate traffic matches the per-device ledgers.
  EXPECT_EQ(compute_heavy.h2d_bytes, 3000u);
  EXPECT_EQ(compute_heavy.d2h_bytes, 2000u);
}

TEST(FleetPlanCache, StoresOnceAndStaysPartitionPortable) {
  const fs::path dir =
      fs::temp_directory_path() / "kconv_fleet_plan_store_once";
  fs::remove_all(dir);
  fs::create_directories(dir);
  sim::PlanCache cache(dir.string());

  Rng rng(23);
  tensor::Tensor img = tensor::Tensor::image(4, 20, 20);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(32, 4, 3);
  flt.fill_random(rng);
  kernels::GeneralConvConfig cfg;
  cfg.block_w = 8;
  cfg.block_h = 4;
  cfg.ftb = 32;
  cfg.wt = 4;
  cfg.ft = 4;
  cfg.csh = 2;

  auto run = [&](u32 devices) {
    sim::Device dev(sim::kepler_k40m());
    sim::LaunchOptions opt;
    opt.replay = true;
    opt.plan_cache = &cache;
    opt.fleet.devices = devices;
    return kernels::general_conv(dev, img, flt, cfg, opt);
  };

  // Cold capture across 3 devices: the per-device runners merge their
  // class tables and store ONE plan (plus its tapes sidecar) — not one
  // per device.
  const auto cold = run(3);
  EXPECT_FALSE(cold.launch.plan_cache_hit);
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    (void)e;
    ++files;
  }
  EXPECT_LE(files, 2u);  // plan blob + optional tapes sidecar
  EXPECT_GE(files, 1u);

  // Warm at the same and at a different device count: plans are keyed by
  // launch geometry, not by the fleet partition.
  const auto warm_fleet = run(3);
  EXPECT_TRUE(warm_fleet.launch.plan_cache_hit);
  const auto warm_single = run(1);
  EXPECT_TRUE(warm_single.launch.plan_cache_hit);

  std::size_t files_after = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    (void)e;
    ++files_after;
  }
  EXPECT_EQ(files, files_after);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace kconv
