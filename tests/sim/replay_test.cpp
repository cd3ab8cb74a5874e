// Replay class lifecycle (docs/MODEL.md §5b, §5d): a class's tape is made
// when its second block arrives, and only on launches of at least 16
// blocks, so singleton classes and small grids never pay a tagging re-run.
// Chunks share the loaded traces and tapes, and a store keeps the first
// chunk's trace and the first tape any chunk made for each class.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/launch.hpp"
#include "src/sim/plan_cache.hpp"
#include "src/sim/plan_io.hpp"
#include "tests/support/stats_match.hpp"

namespace kconv::sim {
namespace {

namespace fs = std::filesystem;

constexpr u32 kLanes = 32;

/// out = 2 * in + 1 over each block's slice. Every block issues the same
/// event stream and relocates by its slice offset, so the class table
/// alone decides which blocks share a trace and a tape.
class SliceKernel {
 public:
  BufferView<float> in, out;
  std::vector<u64> classes;  // class id per block x

  u64 replay_class(Dim3 b) const { return classes[b.x]; }

  void replay_origins(Dim3 b, ReplayOrigins& o) const {
    o.add(in, static_cast<i64>(b.x) * kLanes);
    o.add(out, static_cast<i64>(b.x) * kLanes);
  }

  ThreadProgram operator()(ThreadCtx& t) const {
    const i64 i = static_cast<i64>(t.block_idx.x) * t.block_dim.x +
                  t.thread_idx.x;
    const float x = t.ld_global(in, i);
    t.st_global(out, i, t.fma(x, 2.0f, 1.0f));
    co_return;
  }
};

std::vector<float> ramp(std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = 0.25f * static_cast<float>(i);
  return v;
}

/// Block classes 7 (one block), 3 (two blocks) and 5 (five blocks).
const std::vector<u64> kMixedClasses = {7, 3, 5, 5, 3, 5, 5, 5};

/// Runs blocks 0..7 through one functional runner on a grid of
/// `grid_blocks` (the rest are never visited, as on a sampled launch) and
/// returns the ids of the exported classes that carry a tape.
std::vector<u64> tape_classes(u32 grid_blocks) {
  const Arch arch = kepler_k40m();
  Device dev(arch);
  auto in = dev.alloc<float>(grid_blocks * kLanes);
  auto out = dev.alloc<float>(grid_blocks * kLanes);
  in.upload(ramp(grid_blocks * kLanes));
  SliceKernel k;
  k.in = in.view();
  k.out = out.view();
  k.classes = kMixedClasses;
  k.classes.resize(grid_blocks, 0);

  LaunchConfig cfg;
  cfg.grid = {grid_blocks, 1, 1};
  cfg.block = {kLanes, 1, 1};
  const KernelBody body = [&k](ThreadCtx& t) { return k(t); };
  const BlockClassifier classify = [&k](Dim3 b) { return k.replay_class(b); };
  const ReplayOriginsFn origins = [&k](Dim3 b, ReplayOrigins& o) {
    k.replay_origins(b, o);
  };
  LaneSet lanes(arch, body, cfg);
  L2Cache l2(arch.l2_capacity, arch.gm_sector_bytes);
  L2Cache const_cache(arch.const_cache_per_sm, arch.const_line_bytes, 4);
  ReplayRunner runner(arch, cfg, TraceLevel::Functional,
                      LaunchOptions{}.max_rounds_per_block, classify, origins);
  KernelStats stats;
  for (u32 b = 0; b < kMixedClasses.size(); ++b) {
    runner.run(lanes, Dim3{b, 0, 0}, &const_cache, l2, stats);
  }
  runner.finish(stats);
  EXPECT_EQ(runner.blocks_replayed(), kMixedClasses.size() - 3);
  EXPECT_EQ(stats.blocks_executed, kMixedClasses.size());

  const std::vector<float> x = ramp(grid_blocks * kLanes);
  const std::vector<float> y = out.download();
  for (std::size_t i = 0; i < kMixedClasses.size() * kLanes; ++i) {
    EXPECT_EQ(y[i], x[i] * 2.0f + 1.0f) << "element " << i;
  }

  LaunchPlan plan;
  runner.export_plan(plan);
  EXPECT_EQ(plan.classes.size(), 3u);
  std::vector<u64> ids;
  for (const PlanClass& pc : plan.classes) {
    if (pc.tape != nullptr) ids.push_back(pc.id);
  }
  return ids;
}

TEST(TapeLifecycle, OnlyClassesWithASecondBlockMakeATape) {
  EXPECT_EQ(tape_classes(16), (std::vector<u64>{3, 5}));
}

TEST(TapeLifecycle, GridsUnderSixteenBlocksNeverTag) {
  EXPECT_TRUE(tape_classes(8).empty());
}

/// The full grid of the parallel test: 18 blocks in three chunks of six.
/// Class 1 is block 5 (the last of chunk 0) plus all of chunk 2, so chunk 0
/// owns its trace while only chunk 2 sees a second block of it.
struct ParallelLaunch {
  LaunchResult res;
  std::vector<float> out;
};

ParallelLaunch launch_slices(u32 threads, PlanCache* plans, bool replay) {
  constexpr u32 kBlocks = 18;
  Device dev(kepler_k40m());
  auto in = dev.alloc<float>(kBlocks * kLanes);
  auto out = dev.alloc<float>(kBlocks * kLanes);
  in.upload(ramp(kBlocks * kLanes));
  SliceKernel k;
  k.in = in.view();
  k.out = out.view();
  k.classes.assign(kBlocks, 0);
  k.classes[5] = 1;
  std::fill(k.classes.begin() + 12, k.classes.end(), 1);
  LaunchConfig cfg;
  cfg.grid = {kBlocks, 1, 1};
  cfg.block = {kLanes, 1, 1};
  LaunchOptions opt;
  opt.trace = TraceLevel::Functional;
  opt.num_threads = threads;
  opt.replay = replay;
  opt.plan_cache = plans;
  opt.plan_key = "slice_kernel";
  ParallelLaunch r;
  r.res = launch(dev, k, cfg, opt);
  r.out = out.download();
  return r;
}

TEST(TapeLifecycle, StoreKeepsATapeMadeByALaterChunk) {
  const fs::path dir = fs::temp_directory_path() / "kconv_replay_later_tape";
  fs::remove_all(dir);
  PlanCache plans(dir.string());
  const ParallelLaunch direct = launch_slices(1, nullptr, false);
  const ParallelLaunch cold = launch_slices(3, &plans, true);
  EXPECT_EQ(cold.res.plan_cache_status, "miss");

  // Chunk 0 captured class 1 from its one block; chunk 2 made the tape.
  LaunchConfig cfg;
  cfg.grid = {18, 1, 1};
  cfg.block = {kLanes, 1, 1};
  const std::string key = plan_store_key("slice_kernel", kepler_k40m(), cfg,
                                         TraceLevel::Functional);
  std::string payload, tapes, why;
  ASSERT_TRUE(plans.load(key, payload, &why)) << why;
  ASSERT_TRUE(plans.load(plan_tape_key(key), tapes, &why)) << why;
  LaunchPlan plan;
  ASSERT_TRUE(deserialize_plan(payload, plan, &why)) << why;
  ASSERT_TRUE(deserialize_tapes(tapes, plan, &why)) << why;
  ASSERT_EQ(plan.classes.size(), 2u);
  for (const PlanClass& pc : plan.classes) {
    EXPECT_NE(pc.tape, nullptr) << "class " << pc.id;
    if (pc.id == 1) {
      EXPECT_EQ(pc.trace->captured_block, (Dim3{5, 0, 0}));
    }
  }

  for (const u32 threads : {1u, 3u}) {
    const ParallelLaunch warm = launch_slices(threads, &plans, true);
    EXPECT_TRUE(warm.res.plan_cache_hit);
    EXPECT_EQ(warm.res.blocks_replayed, warm.res.blocks_total);
    ASSERT_EQ(warm.out.size(), direct.out.size());
    EXPECT_EQ(std::memcmp(warm.out.data(), direct.out.data(),
                          direct.out.size() * sizeof(float)),
              0)
        << threads << " threads";
    EXPECT_TRUE(test::stats_match(warm.res.stats, direct.res.stats,
                                  StatsLevel::Schedule));
  }
  EXPECT_EQ(std::memcmp(cold.out.data(), direct.out.data(),
                        direct.out.size() * sizeof(float)),
            0);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace kconv::sim
