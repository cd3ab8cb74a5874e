// A launch chunk runs all of its blocks on one LaneSet (block_exec.hpp):
// lanes, recorders, shared memory and coroutine frames are reused from
// block to block. These tests pin that the reuse leaks nothing between
// blocks, on direct execution and on fast-forward replay alike.
#include "src/sim/block_exec.hpp"

#include <gtest/gtest.h>

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
    float seen = co_await t.ld_shared(sh, tid);
    if (edge(b)) seen += co_await t.ld_shared(sh, n + tid);
    co_await t.sync();
    const float mark = edge(b) ? -static_cast<float>(b + 1)
                               : static_cast<float>(b + 1);
    co_await t.st_shared(sh, tid, mark);
    if (edge(b)) co_await t.st_shared(sh, n + tid, mark);
    co_await t.sync();
    const float next = co_await t.ld_shared(sh, (tid + 1) % n);
    co_await t.st_global(out, 2 * n * b + tid, seen);
    co_await t.st_global(out, 2 * n * b + n + tid, next);
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
