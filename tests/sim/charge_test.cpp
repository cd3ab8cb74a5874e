// The charge rule (src/sim/charge.hpp) on its edges: groups whose every
// lane is predicated off, constant loads without a constant cache, the
// segment-close rule (including a block's final, sync-less segment) and
// the per-warp compute attribution.
#include "src/sim/charge.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/strutil.hpp"
#include "src/sim/launch.hpp"

namespace kconv::sim {
namespace {

/// `n` predicated-off lanes of `op`: empty accesses, as ThreadCtx records
/// a false guard.
std::vector<Access> all_off(Op op, u32 n = 32) {
  return std::vector<Access>(n, Access{op, 0, 0});
}

bool all_zero(const KernelStats& s) {
  for (const auto& c : kKernelCounters) {
    if (s.*c.member != 0) return false;
  }
  return true;
}

TEST(ChargeRule, PredicatedOffSharedAndGlobalGroupsChargeNothing) {
  const Arch arch = kepler_k40m();
  for (const bool memo : {false, true}) {
    PatternCache pattern(arch.smem_banks, arch.smem_bank_bytes,
                         arch.gm_sector_bytes);
    for (const Op op : {Op::LoadShared, Op::StoreShared, Op::LoadGlobal,
                        Op::StoreGlobal}) {
      SCOPED_TRACE(strf("%s memo=%d", op_name(op), memo ? 1 : 0));
      L2Cache l2(arch.l2_capacity, arch.gm_sector_bytes);
      L2Cache cc(arch.const_cache_per_sm, arch.const_line_bytes, 4);
      KernelStats stats;
      SegmentFlags seg;
      TxCost tx;
      const std::vector<Access> group = all_off(op);
      const TxCost& c = retire_tx(arch, memo ? &pattern : nullptr, op, group,
                                  &l2, &cc, stats, seg, tx);
      EXPECT_FALSE(c.issued());
      EXPECT_EQ(c.misses, 0u);
      EXPECT_TRUE(all_zero(stats));
      EXPECT_FALSE(seg.gm_load);
      EXPECT_FALSE(seg.sm_store);
      EXPECT_EQ(l2.hits() + l2.misses(), 0u);  // nothing probed
    }
  }
}

TEST(ChargeRule, ConstGroupWithoutConstCacheCountsNoMisses) {
  const Arch arch = kepler_k40m();
  // Two distinct addresses on two lines: two requests either way.
  std::vector<Access> group(32, Access{Op::LoadConst, 0x1000, 4});
  group[5].addr = 0x1000 + arch.const_line_bytes;

  KernelStats no_cache;
  SegmentFlags seg;
  TxCost tx;
  const TxCost& c = retire_tx(arch, nullptr, Op::LoadConst, group, nullptr,
                              nullptr, no_cache, seg, tx);
  EXPECT_TRUE(c.issued());
  EXPECT_EQ(c.misses, 0u);
  EXPECT_EQ(no_cache.const_instrs, 1u);
  EXPECT_EQ(no_cache.const_requests, 2u);
  EXPECT_EQ(no_cache.const_line_misses, 0u);

  // The same group against a cold constant cache misses both lines and
  // changes nothing else.
  L2Cache cc(arch.const_cache_per_sm, arch.const_line_bytes, 4);
  KernelStats cold;
  retire_tx(arch, nullptr, Op::LoadConst, group, nullptr, &cc, cold, seg, tx);
  EXPECT_EQ(tx.misses, 2u);
  EXPECT_EQ(cold.const_line_misses, 2u);
  cold.const_line_misses = 0;
  EXPECT_TRUE(stats_mismatches(no_cache, cold, StatsLevel::Exact).empty());

  // A constant load issues even with every lane predicated off.
  KernelStats off;
  retire_tx(arch, nullptr, Op::LoadConst, all_off(Op::LoadConst), nullptr,
            nullptr, off, seg, tx);
  EXPECT_EQ(off.const_instrs, 1u);
  EXPECT_EQ(off.const_requests, 1u);
}

TEST(ChargeRule, CloseSegmentCountsPhasesAndBarriers) {
  KernelStats stats;
  SegmentFlags seg{true, true};
  close_segment(seg, /*at_barrier=*/true, stats);
  EXPECT_EQ(stats.barriers, 1u);
  EXPECT_EQ(stats.gm_phases, 1u);
  EXPECT_EQ(stats.gm_dep_phases, 1u);
  EXPECT_FALSE(seg.gm_load || seg.sm_store);

  // A store-only segment is no GM phase; the block's end is no barrier.
  seg.sm_store = true;
  close_segment(seg, /*at_barrier=*/false, stats);
  seg.gm_load = true;
  close_segment(seg, /*at_barrier=*/false, stats);
  EXPECT_EQ(stats.barriers, 1u);
  EXPECT_EQ(stats.gm_phases, 2u);
  EXPECT_EQ(stats.gm_dep_phases, 1u);
}

TEST(ChargeRule, WarpComputeMaximizesEachCountOnItsOwn) {
  WarpCompute w;
  w.add_lane(/*fma=*/4, /*alu=*/1, /*events=*/3);
  w.add_lane(/*fma=*/2, /*alu=*/5, /*events=*/7);
  KernelStats stats;
  stats.max_warp_instrs = 10;
  charge_warp_compute(w, stats);
  EXPECT_EQ(stats.fma_lane_ops, 6u);
  EXPECT_EQ(stats.alu_lane_ops, 6u);
  EXPECT_EQ(stats.fma_warp_instrs, 4u);
  EXPECT_EQ(stats.alu_warp_instrs, 5u);
  EXPECT_EQ(stats.max_warp_instrs, 16u);  // 7 + 4 + 5, above the old 10
}

/// Loads GM and stores SM in its last segment, which no sync closes;
/// `leading_sync` puts a store-only segment and a barrier before it.
class FinalSegmentKernel {
 public:
  BufferView<float> data;
  u32 sh_off = 0;
  bool leading_sync = false;

  ThreadProgram operator()(ThreadCtx& t) const {
    const i64 tid = t.thread_idx.x;
    auto sh = t.shared<float>(sh_off, t.block_dim.x);
    if (leading_sync) {
      t.st_shared(sh, tid, 0.0f);
      co_await t.sync();
    }
    const float v = t.ld_global(data, tid);
    t.st_shared(sh, tid, v);
  }
};

TEST(ChargeRule, FinalSyncLessSegmentCountsOnePhase) {
  for (const bool leading_sync : {false, true}) {
    SCOPED_TRACE(leading_sync ? "leading sync" : "single segment");
    Device dev(kepler_k40m());
    auto arr = dev.alloc<float>(64);
    arr.zero();
    FinalSegmentKernel k;
    k.data = arr.view();
    k.leading_sync = leading_sync;
    SharedLayout smem;
    k.sh_off = smem.alloc<float>(64);
    LaunchConfig cfg;
    cfg.grid = {1, 1, 1};
    cfg.block = {64, 1, 1};
    cfg.shared_bytes = smem.size();
    const LaunchResult res = launch(dev, k, cfg);
    EXPECT_EQ(res.stats.barriers, leading_sync ? 1u : 0u);
    EXPECT_EQ(res.stats.gm_phases, 1u);
    EXPECT_EQ(res.stats.gm_dep_phases, 1u);
  }
}

}  // namespace
}  // namespace kconv::sim
