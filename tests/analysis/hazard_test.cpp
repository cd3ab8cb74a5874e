// Behavioural tests of the shadow-state hazard detector (docs/MODEL.md §6):
// tiny purpose-built kernels whose race (or absence of one) is known by
// construction, launched with LaunchOptions::hazard_check.
#include "src/analysis/hazard.hpp"

#include <gtest/gtest.h>

#include "src/sim/launch.hpp"

namespace kconv::analysis {
namespace {

using sim::Device;
using sim::kepler_k40m;
using sim::LaunchConfig;
using sim::LaunchOptions;
using sim::SharedLayout;
using sim::ThreadCtx;
using sim::ThreadProgram;

bool has_kind(const AnalysisReport& rep, HazardKind k) {
  for (const HazardRecord& r : rep.hazards) {
    if (r.kind == k) return true;
  }
  return false;
}

/// Every lane writes its own slot, then reads the other warp's slot with
/// (or without) an intervening barrier.
class CrossWarpRwKernel {
 public:
  sim::BufferView<float> data;
  u32 sh_off = 0;
  bool with_sync = false;

  ThreadProgram operator()(ThreadCtx& t) const {
    const i64 tid = t.thread_idx.x;
    const i64 n = t.block_dim.x;
    auto sh = t.shared<float>(sh_off, n);
    t.st_shared(sh, tid, float(tid));
    if (with_sync) co_await t.sync();
    const float v = t.ld_shared(sh, (tid + 32) % n);
    t.st_global(data, tid, v);
  }
};

TEST(Hazard, CrossWarpReadAfterWriteWithoutBarrierRaces) {
  Device dev(kepler_k40m());
  auto arr = dev.alloc<float>(64);
  CrossWarpRwKernel k;
  k.data = arr.view();
  SharedLayout smem;
  k.sh_off = smem.alloc<float>(64);
  LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {64, 1, 1};
  cfg.shared_bytes = smem.size();
  LaunchOptions opt;
  opt.hazard_check = true;
  const auto res = launch(dev, k, cfg, opt);

  EXPECT_TRUE(res.analysis.hazard_checked);
  EXPECT_FALSE(res.analysis.clean());
  EXPECT_GT(res.analysis.races_total, 0u);
  EXPECT_EQ(res.analysis.blocks_checked, 1u);
  ASSERT_FALSE(res.analysis.hazards.empty());
  EXPECT_TRUE(has_kind(res.analysis, HazardKind::SmemRaw));
  // Both endpoints identified, from different warps.
  const HazardRecord& r = res.analysis.hazards.front();
  EXPECT_NE(r.first.warp, r.second.warp);
  EXPECT_EQ(r.first.op, sim::Op::StoreShared);
  EXPECT_EQ(r.second.op, sim::Op::LoadShared);
}

TEST(Hazard, BarrierSeparatedAccessesAreClean) {
  Device dev(kepler_k40m());
  auto arr = dev.alloc<float>(64);
  CrossWarpRwKernel k;
  k.data = arr.view();
  k.with_sync = true;
  SharedLayout smem;
  k.sh_off = smem.alloc<float>(64);
  LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {64, 1, 1};
  cfg.shared_bytes = smem.size();
  LaunchOptions opt;
  opt.hazard_check = true;
  const auto res = launch(dev, k, cfg, opt);

  EXPECT_TRUE(res.analysis.hazard_checked);
  EXPECT_TRUE(res.analysis.clean());
  EXPECT_EQ(res.analysis.races_total, 0u);
  EXPECT_TRUE(res.analysis.hazards.empty());
}

/// Two warps write the same 32 slots (tid % 32) in one epoch.
class CrossWarpWawKernel {
 public:
  u32 sh_off = 0;

  ThreadProgram operator()(ThreadCtx& t) const {
    const i64 tid = t.thread_idx.x;
    auto sh = t.shared<float>(sh_off, 32);
    t.st_shared(sh, tid % 32, float(tid));
    co_await t.sync();
  }
};

TEST(Hazard, CrossWarpWriteWriteRaces) {
  Device dev(kepler_k40m());
  CrossWarpWawKernel k;
  SharedLayout smem;
  k.sh_off = smem.alloc<float>(32);
  LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {64, 1, 1};
  cfg.shared_bytes = smem.size();
  LaunchOptions opt;
  opt.hazard_check = true;
  const auto res = launch(dev, k, cfg, opt);

  EXPECT_GT(res.analysis.races_total, 0u);
  EXPECT_TRUE(has_kind(res.analysis, HazardKind::SmemWaw));
}

/// Warps read each other's slots, then write their own — WAR without sync.
class CrossWarpWarKernel {
 public:
  sim::BufferView<float> data;
  u32 sh_off = 0;

  ThreadProgram operator()(ThreadCtx& t) const {
    const i64 tid = t.thread_idx.x;
    const i64 n = t.block_dim.x;
    auto sh = t.shared<float>(sh_off, n);
    const float v = t.ld_shared(sh, (tid + 32) % n);
    t.st_shared(sh, tid, v + 1.0f);
    t.st_global(data, tid, v);
    co_return;
  }
};

TEST(Hazard, CrossWarpWriteAfterReadRaces) {
  Device dev(kepler_k40m());
  auto arr = dev.alloc<float>(64);
  CrossWarpWarKernel k;
  k.data = arr.view();
  SharedLayout smem;
  k.sh_off = smem.alloc<float>(64);
  LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {64, 1, 1};
  cfg.shared_bytes = smem.size();
  LaunchOptions opt;
  opt.hazard_check = true;
  const auto res = launch(dev, k, cfg, opt);

  EXPECT_GT(res.analysis.races_total, 0u);
  EXPECT_TRUE(has_kind(res.analysis, HazardKind::SmemWar));
}

/// One warp, two lanes per shared slot: lanes 2i and 2i+1 write sh[i] in
/// the SAME warp instruction — no ordering edge between them.
class IntraWarpKernel {
 public:
  u32 sh_off = 0;

  ThreadProgram operator()(ThreadCtx& t) const {
    const i64 tid = t.thread_idx.x;
    auto sh = t.shared<float>(sh_off, 16);
    t.st_shared(sh, tid / 2, float(tid));
    co_await t.sync();
  }
};

TEST(Hazard, SameRoundIntraWarpOverlapRaces) {
  Device dev(kepler_k40m());
  IntraWarpKernel k;
  SharedLayout smem;
  k.sh_off = smem.alloc<float>(16);
  LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {32, 1, 1};
  cfg.shared_bytes = smem.size();
  LaunchOptions opt;
  opt.hazard_check = true;
  const auto res = launch(dev, k, cfg, opt);

  EXPECT_GT(res.analysis.races_total, 0u);
  EXPECT_TRUE(has_kind(res.analysis, HazardKind::SmemIntraWarp));
}

/// Sequential accesses by the same warp (different rounds) are ordered by
/// lockstep execution: read-modify-write of the lane's own slot is clean.
class SameWarpSequentialKernel {
 public:
  u32 sh_off = 0;

  ThreadProgram operator()(ThreadCtx& t) const {
    const i64 tid = t.thread_idx.x;
    auto sh = t.shared<float>(sh_off, 32);
    t.st_shared(sh, tid, float(tid));
    const float v = t.ld_shared(sh, tid);
    t.st_shared(sh, tid, v + 1.0f);
    co_await t.sync();
  }
};

TEST(Hazard, SameWarpSequentialAccessesAreOrdered) {
  Device dev(kepler_k40m());
  SameWarpSequentialKernel k;
  SharedLayout smem;
  k.sh_off = smem.alloc<float>(32);
  LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {32, 1, 1};
  cfg.shared_bytes = smem.size();
  LaunchOptions opt;
  opt.hazard_check = true;
  const auto res = launch(dev, k, cfg, opt);

  EXPECT_EQ(res.analysis.races_total, 0u);
  EXPECT_TRUE(res.analysis.clean());
}

/// Every block writes the same 32 output floats (defect), or its own
/// 32-float slice (clean).
class GmWriteKernel {
 public:
  sim::BufferView<float> data;
  bool disjoint = false;

  ThreadProgram operator()(ThreadCtx& t) const {
    const i64 tid = t.thread_idx.x;
    const i64 base = disjoint ? i64{t.block_idx.x} * 32 : i64{0};
    t.st_global(data, base + tid, float(tid));
    co_return;
  }
};

TEST(Hazard, OverlappingBlockWritesDetected) {
  Device dev(kepler_k40m());
  auto arr = dev.alloc<float>(32);
  GmWriteKernel k;
  k.data = arr.view();
  LaunchConfig cfg;
  cfg.grid = {3, 1, 1};
  cfg.block = {32, 1, 1};
  LaunchOptions opt;
  opt.hazard_check = true;
  const auto res = launch(dev, k, cfg, opt);

  EXPECT_FALSE(res.analysis.clean());
  EXPECT_GT(res.analysis.gm_overlaps_total, 0u);
  EXPECT_EQ(res.analysis.races_total, 0u);
  ASSERT_TRUE(has_kind(res.analysis, HazardKind::GmemBlockOverlap));
  const HazardRecord& r = res.analysis.hazards.front();
  EXPECT_EQ(r.kind, HazardKind::GmemBlockOverlap);
  EXPECT_NE(r.block.x, r.other_block.x);
}

TEST(Hazard, DisjointBlockWritesAreClean) {
  Device dev(kepler_k40m());
  auto arr = dev.alloc<float>(3 * 32);
  GmWriteKernel k;
  k.data = arr.view();
  k.disjoint = true;
  LaunchConfig cfg;
  cfg.grid = {3, 1, 1};
  cfg.block = {32, 1, 1};
  LaunchOptions opt;
  opt.hazard_check = true;
  const auto res = launch(dev, k, cfg, opt);

  EXPECT_TRUE(res.analysis.clean());
  EXPECT_EQ(res.analysis.gm_overlaps_total, 0u);
  EXPECT_EQ(res.analysis.blocks_checked, 3u);
}

TEST(Hazard, ParallelLaunchReportsIdenticalCounts) {
  auto run = [](u32 threads) {
    Device dev(kepler_k40m());
    auto arr = dev.alloc<float>(64);
    CrossWarpRwKernel k;
    k.data = arr.view();
    SharedLayout smem;
    k.sh_off = smem.alloc<float>(64);
    LaunchConfig cfg;
    cfg.grid = {6, 1, 1};
    cfg.block = {64, 1, 1};
    cfg.shared_bytes = smem.size();
    LaunchOptions opt;
    opt.hazard_check = true;
    opt.num_threads = threads;
    return launch(dev, k, cfg, opt);
  };
  const auto serial = run(1);
  const auto parallel = run(3);
  EXPECT_GT(serial.analysis.races_total, 0u);
  EXPECT_EQ(serial.analysis.races_total, parallel.analysis.races_total);
  EXPECT_EQ(serial.analysis.blocks_checked, parallel.analysis.blocks_checked);
  EXPECT_EQ(serial.analysis.hazards.size(), parallel.analysis.hazards.size());
  // GM overlaps: all six blocks write the same 64 floats.
  EXPECT_EQ(serial.analysis.gm_overlaps_total,
            parallel.analysis.gm_overlaps_total);
}

TEST(Hazard, MoreThan32WarpsPerBlockRejected) {
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {32 * 33, 1, 1};
  EXPECT_THROW(BlockChecker(cfg, 32), Error);
}

}  // namespace
}  // namespace kconv::analysis
