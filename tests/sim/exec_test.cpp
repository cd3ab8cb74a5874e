// Behavioural tests of the lockstep block executor: barrier semantics,
// divergence accounting, fault propagation, runaway-loop protection.
#include "src/sim/block_exec.hpp"

#include <gtest/gtest.h>

#include "src/sim/launch.hpp"

namespace kconv::sim {
namespace {

/// Reverses an array in shared memory across a barrier: fails unless the
/// barrier really orders the writes before the reads.
class ReverseKernel {
 public:
  BufferView<float> data;
  u32 sh_off = 0;

  ThreadProgram operator()(ThreadCtx& t) const {
    const i64 n = t.block_dim.x;
    const i64 tid = t.thread_idx.x;
    auto sh = t.shared<float>(sh_off, n);
    const float v = t.ld_global(data, tid);
    t.st_shared(sh, tid, v);
    co_await t.sync();
    const float r = t.ld_shared(sh, n - 1 - tid);
    t.st_global(data, tid, r);
  }
};

TEST(Exec, BarrierOrdersSharedMemoryAcrossWarps) {
  Device dev(kepler_k40m());
  const i64 n = 96;  // three warps
  auto arr = dev.alloc<float>(n);
  std::vector<float> src(n);
  for (i64 i = 0; i < n; ++i) src[static_cast<std::size_t>(i)] = float(i);
  arr.upload(src);

  ReverseKernel k;
  k.data = arr.view();
  SharedLayout smem;
  k.sh_off = smem.alloc<float>(n);
  LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {static_cast<u32>(n), 1, 1};
  cfg.shared_bytes = smem.size();
  auto res = launch(dev, k, cfg);

  const auto out = arr.download();
  for (i64 i = 0; i < n; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], float(n - 1 - i));
  }
  EXPECT_EQ(res.stats.barriers, 1u);
}

/// Kernel where odd lanes take a different memory path than even lanes.
class DivergentKernel {
 public:
  BufferView<float> data;
  u32 sh_off = 0;

  ThreadProgram operator()(ThreadCtx& t) const {
    auto sh = t.shared<float>(sh_off, 64);
    const i64 tid = t.thread_idx.x;
    if (tid % 2 == 0) {
      const float v = t.ld_global(data, tid);
      t.st_global(data, tid, v + 1.0f);
    } else {
      t.st_shared(sh, tid, 1.0f);
    }
    co_await t.sync();
  }
};

TEST(Exec, DivergentPathsRetireAsSeparateGroupsAndComplete) {
  Device dev(kepler_k40m());
  auto arr = dev.alloc<float>(64);
  arr.zero();
  DivergentKernel k;
  k.data = arr.view();
  SharedLayout smem;
  k.sh_off = smem.alloc<float>(64);
  LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {64, 1, 1};
  cfg.shared_bytes = smem.size();
  auto res = launch(dev, k, cfg);
  EXPECT_GT(res.stats.divergent_retires, 0u);
  const auto out = arr.download();
  EXPECT_EQ(out[0], 1.0f);
  EXPECT_EQ(out[1], 0.0f);
}

/// Kernel whose lanes finish at different times before others hit a barrier.
class EarlyExitKernel {
 public:
  BufferView<float> data;
  u32 sh_off = 0;

  ThreadProgram operator()(ThreadCtx& t) const {
    const i64 tid = t.thread_idx.x;
    if (tid >= 32) co_return;  // the whole second warp exits immediately
    auto sh = t.shared<float>(sh_off, 32);
    t.st_shared(sh, tid, float(tid));
    co_await t.sync();  // must release even though warp 1 is done
    const float v = t.ld_shared(sh, (tid + 1) % 32);
    t.st_global(data, tid, v);
  }
};

TEST(Exec, BarrierReleasesWhenRemainingLanesExited) {
  Device dev(kepler_k40m());
  auto arr = dev.alloc<float>(32);
  EarlyExitKernel k;
  k.data = arr.view();
  SharedLayout smem;
  k.sh_off = smem.alloc<float>(32);
  LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {64, 1, 1};
  cfg.shared_bytes = smem.size();
  EXPECT_NO_THROW(launch(dev, k, cfg));
  EXPECT_EQ(arr.download()[0], 1.0f);
}

/// Kernel with an unbounded loop to exercise the runaway guard.
class RunawayKernel {
 public:
  BufferView<float> data;

  ThreadProgram operator()(ThreadCtx& t) const {
    float acc = 0.0f;
    for (;;) {
      acc += t.ld_global(data, 0);
      if (acc < 0.0f) break;  // never (data holds positives)
    }
    t.st_global(data, 0, acc);
    co_return;
  }
};

TEST(Exec, RunawayLoopGuardThrows) {
  Device dev(kepler_k40m());
  auto arr = dev.alloc<float>(1);
  arr.upload(std::vector<float>{1.0f});
  RunawayKernel k;
  k.data = arr.view();
  LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {32, 1, 1};
  LaunchOptions opt;
  opt.max_rounds_per_block = 1000;
  EXPECT_THROW(launch(dev, k, cfg, opt), Error);
}

/// Kernel that faults (out-of-bounds store) on one lane.
class FaultingKernel {
 public:
  BufferView<float> data;

  ThreadProgram operator()(ThreadCtx& t) const {
    const i64 tid = t.thread_idx.x;
    t.st_global(data, tid, 1.0f);  // lane 33 writes past the end
    co_return;
  }
};

TEST(Exec, DeviceFaultPropagatesAsError) {
  Device dev(kepler_k40m());
  auto arr = dev.alloc<float>(33);
  FaultingKernel k;
  k.data = arr.view();
  LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {64, 1, 1};
  EXPECT_THROW(launch(dev, k, cfg), Error);
}

/// Records every lane's coordinates to verify the thread-index decode.
class IdKernel {
 public:
  BufferView<float> data;

  ThreadProgram operator()(ThreadCtx& t) const {
    const i64 flat = t.flat_tid();
    const i64 gidx =
        (t.block_idx.y * t.grid_dim.x + t.block_idx.x) * t.block_dim.count() +
        flat;
    t.st_global(
        data, gidx,
        float(t.thread_idx.x + 100 * t.thread_idx.y + 10000 * t.block_idx.x +
              1000000 * t.block_idx.y));
    co_return;
  }
};

TEST(Exec, ThreadAndBlockIndicesDecodeCorrectly) {
  Device dev(kepler_k40m());
  const u32 bx = 4, by = 3, gx = 2, gy = 2;
  auto arr = dev.alloc<float>(bx * by * gx * gy);
  IdKernel k;
  k.data = arr.view();
  LaunchConfig cfg;
  cfg.grid = {gx, gy, 1};
  cfg.block = {bx, by, 1};
  launch(dev, k, cfg);
  const auto out = arr.download();
  for (u32 gyy = 0; gyy < gy; ++gyy)
    for (u32 gxx = 0; gxx < gx; ++gxx)
      for (u32 tyy = 0; tyy < by; ++tyy)
        for (u32 txx = 0; txx < bx; ++txx) {
          const std::size_t idx =
              ((gyy * gx + gxx) * by + tyy) * bx + txx;
          EXPECT_EQ(out[idx],
                    float(txx + 100 * tyy + 10000 * gxx + 1000000 * gyy));
        }
}

/// Pure-FMA kernel for arithmetic attribution.
class FmaKernel {
 public:
  BufferView<float> data;

  ThreadProgram operator()(ThreadCtx& t) const {
    float acc = 0.0f;
    for (int i = 0; i < 10; ++i) acc = t.fma(acc, 2.0f, 1.0f);
    t.st_global(data, t.thread_idx.x, acc);
    co_return;
  }
};

TEST(Exec, FmaCountsAttributedPerWarp) {
  Device dev(kepler_k40m());
  auto arr = dev.alloc<float>(64);
  FmaKernel k;
  k.data = arr.view();
  LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {64, 1, 1};
  auto res = launch(dev, k, cfg);
  EXPECT_EQ(res.stats.fma_lane_ops, 64u * 10u);
  EXPECT_EQ(res.stats.fma_warp_instrs, 2u * 10u);  // two warps, 10 each
  // Functional value: x_{n+1} = 2x_n + 1 from 0, ten times = 2^10 - 1.
  EXPECT_EQ(arr.download()[0], 1023.0f);
}

TEST(Exec, FunctionalTraceSkipsCostAccounting) {
  Device dev(kepler_k40m());
  auto arr = dev.alloc<float>(64);
  FmaKernel k;
  k.data = arr.view();
  LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {64, 1, 1};
  LaunchOptions opt;
  opt.trace = TraceLevel::Functional;
  auto res = launch(dev, k, cfg, opt);
  EXPECT_EQ(res.stats.gm_instrs, 0u);       // analyzers skipped
  EXPECT_EQ(arr.download()[0], 1023.0f);    // functional result intact
}

}  // namespace
}  // namespace kconv::sim
