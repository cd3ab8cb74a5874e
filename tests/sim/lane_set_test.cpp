// A launch chunk runs all of its blocks on one LaneSet (block_exec.hpp):
// lanes, recorders, shared memory and coroutine frames are reused from
// block to block. These tests pin that the reuse leaks nothing between
// blocks, on direct execution and on fast-forward replay alike.
#include "src/sim/block_exec.hpp"

#include <bit>
#include <cstring>
#include <optional>

#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/kernels/detail/special_kernel.hpp"
#include "src/kernels/device_tensor.hpp"
#include "src/sim/launch.hpp"

namespace kconv::sim {
namespace {

/// Reads shared memory before writing it (a fresh block must read zeros),
/// then leaves its own residue behind. Edge blocks (the first and last of
/// the logical grid) take a different path: they read both halves and
/// write both, interior blocks read and write the first half only. `base`
/// shifts block_idx.x so a one-block launch can run any logical block.
class ResidueKernel {
 public:
  BufferView<float> out;
  u32 sh_off = 0;
  i64 base = 0;
  i64 nblocks = 1;

  bool edge(i64 b) const { return b == 0 || b == nblocks - 1; }

  u64 replay_class(Dim3 b) const { return edge(base + b.x) ? 1 : 0; }

  ThreadProgram operator()(ThreadCtx& t) const {
    const i64 n = t.block_dim.x;
    const i64 tid = t.thread_idx.x;
    const i64 b = base + t.block_idx.x;
    auto sh = t.shared<float>(sh_off, 2 * n);
    float seen = t.ld_shared(sh, tid);
    if (edge(b)) seen += t.ld_shared(sh, n + tid);
    co_await t.sync();
    const float mark = edge(b) ? -static_cast<float>(b + 1)
                               : static_cast<float>(b + 1);
    t.st_shared(sh, tid, mark);
    if (edge(b)) t.st_shared(sh, n + tid, mark);
    co_await t.sync();
    const float next = t.ld_shared(sh, (tid + 1) % n);
    t.st_global(out, 2 * n * b + tid, seen);
    t.st_global(out, 2 * n * b + n + tid, next);
  }
};

constexpr i64 kLanes = 64;  // two warps
constexpr i64 kBlocks = 5;  // edge, three interior, edge

struct ChunkRun {
  LaunchResult launch;
  std::vector<float> out;
};

/// Launches `count` logical blocks starting at `first` on a fresh device,
/// in one serial chunk.
ChunkRun run_blocks(i64 first, i64 count, bool replay) {
  Device dev(kepler_k40m());
  auto out = dev.alloc<float>(kBlocks * 2 * kLanes);
  out.upload(std::vector<float>(kBlocks * 2 * kLanes, 99.0f));
  ResidueKernel k;
  k.out = out.view();
  SharedLayout smem;
  k.sh_off = smem.alloc<float>(2 * kLanes);
  k.base = first;
  k.nblocks = kBlocks;
  LaunchConfig cfg;
  cfg.grid = {static_cast<u32>(count), 1, 1};
  cfg.block = {static_cast<u32>(kLanes), 1, 1};
  cfg.shared_bytes = smem.size();
  LaunchOptions opt;
  opt.num_threads = 1;
  opt.replay = replay;
  ChunkRun r;
  r.launch = launch(dev, k, cfg, opt);
  r.out = out.download();
  return r;
}

class LaneSetReuse : public ::testing::TestWithParam<bool> {};

TEST_P(LaneSetReuse, EveryBlockOfAChunkStartsFromZeroedState) {
  const bool replay = GetParam();
  const ChunkRun chunk = run_blocks(0, kBlocks, replay);
  // Blocks 0 and 1 capture their classes; 2, 3 and the edge block 4 replay.
  EXPECT_EQ(chunk.launch.blocks_replayed, replay ? 3u : 0u);
  EXPECT_EQ(chunk.launch.stats.blocks_executed, static_cast<u64>(kBlocks));

  std::vector<float> alone_out(chunk.out.size(), 99.0f);
  KernelStats alone;
  for (i64 b = 0; b < kBlocks; ++b) {
    const float mark = b == 0 || b == kBlocks - 1 ? -static_cast<float>(b + 1)
                                                  : static_cast<float>(b + 1);
    for (i64 t = 0; t < kLanes; ++t) {
      const auto i = static_cast<std::size_t>(2 * kLanes * b + t);
      EXPECT_EQ(chunk.out[i], 0.0f) << "block " << b << " lane " << t
                                    << " read another block's shared memory";
      EXPECT_EQ(chunk.out[i + kLanes], mark) << "block " << b << " lane " << t;
    }
    const ChunkRun one = run_blocks(b, 1, replay);
    alone += one.launch.stats;
    const auto lo = static_cast<std::ptrdiff_t>(2 * kLanes * b);
    std::copy(one.out.begin() + lo, one.out.begin() + lo + 2 * kLanes,
              alone_out.begin() + lo);
  }
  EXPECT_EQ(chunk.out, alone_out);
  const auto diff = stats_mismatches(chunk.launch.stats, alone,
                                     StatsLevel::Exact, "chunk", "alone");
  EXPECT_TRUE(diff.empty()) << diff.front();
}

INSTANTIATE_TEST_SUITE_P(DirectAndReplay, LaneSetReuse,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Replay" : "Direct";
                         });

// --- Fast-forward replay streams one barrier segment at a time -----------
//
// Algorithm 1 with K = 5 and 8 output rows per block: every row is two
// barrier segments and its compute segment issues F * K * K broadcast
// constant loads per lane, so a block's replay crosses 17 barriers.

constexpr i64 kSegK = 5;
constexpr i64 kSegF = 8;

struct SegmentRun {
  KernelStats stats;
  std::vector<float> out;
  u64 replayed = 0;
  /// Per lane: the events of the lane its warp's log has room for after
  /// the last block (the log's rows).
  std::vector<std::size_t> capacity;
};

enum class SegMode { Direct, Cold, Warm };

/// Runs every block of the launch through one LaneSet with serial caches,
/// the way a one-chunk launch does: Direct executes every block, Cold
/// captures and replays, Warm primes the runner from `plan` first. Cold
/// exports its classes into `plan`.
SegmentRun run_segments(SegMode mode, LaunchPlan& plan) {
  const Arch arch = kepler_k40m();
  kernels::SpecialConvConfig cfg;
  cfg.block_w = 64;
  cfg.block_h = 8;
  // Three tiles across, two down: 6 congruent blocks in one class.
  const i64 ho = 2 * cfg.block_h, wo = 3 * cfg.block_w;
  const kernels::SpecialPlan sp = kernels::plan_special(
      arch, kSegK, kSegF, ho + kSegK - 1, wo + kSegK - 1, cfg);
  EXPECT_TRUE(sp.error.empty()) << sp.error;
  EXPECT_EQ(sp.n, 2);

  Rng rng(29);
  tensor::Tensor img = tensor::Tensor::image(1, sp.Hi, sp.Wi);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(kSegF, 1, kSegK);
  flt.fill_random(rng);

  Device dev(arch);
  kernels::DevicePlanes d_in(dev, 1, sp.Hi, sp.Wi);
  d_in.upload(img);
  kernels::DevicePlanes d_out(dev, kSegF, sp.Ho, sp.Wo);
  const std::vector<float> flat = kernels::flatten_filters(flt);
  auto d_filt = dev.alloc_const<float>(flat);
  kernels::detail::SpecialKernelT<float, 2> k(sp);
  k.in = d_in.view();
  k.out = d_out.view();
  k.filt = ConstView<float>(d_filt.get(), 0, static_cast<i64>(flat.size()));

  const KernelBody body = [&k](ThreadCtx& t) { return k(t); };
  const BlockClassifier classify = [&k](Dim3 b) { return k.replay_class(b); };
  const ReplayOriginsFn no_origins;
  const u64 max_rounds = LaunchOptions{}.max_rounds_per_block;
  LaneSet lanes(arch, body, sp.lc);
  L2Cache l2(arch.l2_capacity, arch.gm_sector_bytes);
  L2Cache const_cache(arch.const_cache_per_sm, arch.const_line_bytes, 4);

  SegmentRun r;
  std::optional<ReplayRunner> runner;
  if (mode != SegMode::Direct) {
    runner.emplace(arch, sp.lc, TraceLevel::Timing, max_rounds, classify,
                   no_origins);
    if (mode == SegMode::Warm) runner->prime(plan);
  }
  for (u32 by = 0; by < sp.lc.grid.y; ++by) {
    for (u32 bx = 0; bx < sp.lc.grid.x; ++bx) {
      const Dim3 b{bx, by, 0};
      if (runner) {
        runner->run(lanes, b, &const_cache, l2, r.stats);
      } else {
        run_block(lanes, b, TraceLevel::Timing, max_rounds, &const_cache, l2,
                  r.stats);
      }
    }
  }
  if (runner) {
    runner->finish(r.stats);
    r.replayed = runner->blocks_replayed();
    if (mode == SegMode::Cold) runner->export_plan(plan);
  }
  for (u32 t = 0; t < lanes.size(); ++t) {
    r.capacity.push_back(
        lanes.warp_events(t / arch.warp_size).capacity());
  }
  const tensor::Tensor out = d_out.download();
  r.out.assign(out.flat().begin(), out.flat().end());
  return r;
}

TEST(SegmentReplay, ConstHeavyReplayIsExactAndHoldsOneSegment) {
  LaunchPlan plan;
  const SegmentRun direct = run_segments(SegMode::Direct, plan);
  const SegmentRun cold = run_segments(SegMode::Cold, plan);
  ASSERT_EQ(plan.classes.size(), 1u);
  const SegmentRun warm = run_segments(SegMode::Warm, plan);
  EXPECT_EQ(cold.replayed, 5u);
  EXPECT_EQ(warm.replayed, 6u);

  const BlockTrace& trace = *plan.classes[0].trace;
  EXPECT_GE(trace.invariant.barriers, 2u * 8u);
  // Each lane's whole-block global/constant event count: one slot in the
  // trace per transaction the lane took part in.
  std::vector<std::size_t> block_events(direct.capacity.size(), 0);
  for (const ReplayTx& tx : trace.txs) {
    for (u32 m = tx.mask; m != 0; m &= m - 1) {
      ++block_events[tx.lo + std::countr_zero(m)];
    }
  }

  for (const SegmentRun* r : {&cold, &warm}) {
    const auto diff = stats_mismatches(direct.stats, r->stats,
                                       StatsLevel::Exact, "direct", "replay");
    EXPECT_TRUE(diff.empty()) << diff.front();
    ASSERT_EQ(r->out.size(), direct.out.size());
    EXPECT_EQ(std::memcmp(r->out.data(), direct.out.data(),
                          direct.out.size() * sizeof(float)),
              0);
    // A warp log that held a whole block's stream would have grown to at
    // least the block's event count of each of its lanes; one segment is
    // about an eighth of it.
    for (std::size_t t = 0; t < r->capacity.size(); ++t) {
      EXPECT_LT(4 * r->capacity[t], block_events[t]) << "lane " << t;
    }
  }
}

TEST(FramePool, RecyclesFramesOnlyInsideItsScope) {
  FramePool pool;
  void* first = nullptr;
  {
    FramePool::Scope scope(pool);
    first = FramePool::allocate(96);
    FramePool::deallocate(first);
    void* again = FramePool::allocate(96);
    EXPECT_EQ(again, first);  // same size: straight off the free list
    void* other = FramePool::allocate(200);
    EXPECT_NE(other, first);
    FramePool::deallocate(other);
    FramePool::deallocate(again);
  }
  // Outside the scope frames come from the global heap.
  void* heap = FramePool::allocate(96);
  EXPECT_NE(heap, first);
  FramePool::deallocate(heap);
}

}  // namespace
}  // namespace kconv::sim
