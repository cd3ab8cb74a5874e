#include "src/sim/launch.hpp"

#include <gtest/gtest.h>

#include <string>

namespace kconv::sim {
namespace {

/// Marks each block's slot so sampled-launch coverage is observable.
class MarkKernel {
 public:
  BufferView<float> data;

  ThreadProgram operator()(ThreadCtx& t) const {
    if (t.thread_idx.x == 0) {
      const i64 flat =
          (t.block_idx.z * t.grid_dim.y + t.block_idx.y) * t.grid_dim.x +
          t.block_idx.x;
      t.st_global(data, flat, 1.0f);
    }
    float acc = 0.0f;
    for (int i = 0; i < 8; ++i) acc = t.fma(acc, 1.0f, 1.0f);
    (void)acc;
    co_return;
  }
};

TEST(Launch, FullRunExecutesEveryBlock) {
  Device dev(kepler_k40m());
  auto arr = dev.alloc<float>(24);
  arr.zero();
  MarkKernel k;
  k.data = arr.view();
  LaunchConfig cfg;
  cfg.grid = {4, 3, 2};
  cfg.block = {32, 1, 1};
  auto res = launch(dev, k, cfg);
  EXPECT_EQ(res.blocks_total, 24u);
  EXPECT_EQ(res.blocks_executed, 24u);
  EXPECT_FALSE(res.sampled);
  for (float v : arr.download()) EXPECT_EQ(v, 1.0f);
}

TEST(Launch, SampledRunExecutesSubsetEvenlySpread) {
  Device dev(kepler_k40m());
  auto arr = dev.alloc<float>(100);
  arr.zero();
  MarkKernel k;
  k.data = arr.view();
  LaunchConfig cfg;
  cfg.grid = {100, 1, 1};
  cfg.block = {32, 1, 1};
  LaunchOptions opt;
  opt.sample_max_blocks = 10;
  auto res = launch(dev, k, cfg, opt);
  EXPECT_TRUE(res.sampled);
  EXPECT_EQ(res.blocks_executed, 10u);
  const auto out = arr.download();
  int marked = 0;
  bool first_half = false, second_half = false;
  for (int i = 0; i < 100; ++i) {
    if (out[static_cast<std::size_t>(i)] == 1.0f) {
      ++marked;
      (i < 50 ? first_half : second_half) = true;
    }
  }
  EXPECT_EQ(marked, 10);
  EXPECT_TRUE(first_half);
  EXPECT_TRUE(second_half);
}

TEST(Launch, SampledTimingScalesToFullGrid) {
  Device dev(kepler_k40m());
  auto arr = dev.alloc<float>(256);
  MarkKernel k;
  k.data = arr.view();
  LaunchConfig cfg;
  cfg.grid = {256, 1, 1};
  cfg.block = {32, 1, 1};

  auto full = launch(dev, k, cfg);
  LaunchOptions opt;
  opt.sample_max_blocks = 8;
  auto sampled = launch(dev, k, cfg, opt);
  // Identical per-block work => the scaled estimate matches the full one.
  EXPECT_NEAR(sampled.timing.total_cycles, full.timing.total_cycles,
              full.timing.total_cycles * 0.05);
}

TEST(Launch, SampleLargerThanGridRunsEverything) {
  Device dev(kepler_k40m());
  auto arr = dev.alloc<float>(4);
  MarkKernel k;
  k.data = arr.view();
  LaunchConfig cfg;
  cfg.grid = {4, 1, 1};
  cfg.block = {32, 1, 1};
  LaunchOptions opt;
  opt.sample_max_blocks = 100;
  auto res = launch(dev, k, cfg, opt);
  EXPECT_FALSE(res.sampled);
  EXPECT_EQ(res.blocks_executed, 4u);
}

TEST(Launch, EmptyGridRejected) {
  Device dev(kepler_k40m());
  auto arr = dev.alloc<float>(1);
  MarkKernel k;
  k.data = arr.view();
  LaunchConfig cfg;
  cfg.grid = {0, 1, 1};
  cfg.block = {32, 1, 1};
  EXPECT_THROW(launch(dev, k, cfg), Error);
}

TEST(Launch, EveryLaunchStartsWithColdL2) {
  Device dev(kepler_k40m());
  auto arr = dev.alloc<float>(64);
  MarkKernel k;
  k.data = arr.view();
  LaunchConfig cfg;
  cfg.grid = {64, 1, 1};
  cfg.block = {32, 1, 1};
  const auto first = launch(dev, k, cfg);
  // The first launch left its sectors in the device L2; the second must
  // not hit them, so it pays the same DRAM traffic.
  const auto second = launch(dev, k, cfg);
  EXPECT_GT(first.stats.gm_sectors_dram, 0u);
  EXPECT_EQ(second.stats.gm_sectors_dram, first.stats.gm_sectors_dram);
  EXPECT_EQ(second.stats.gm_sectors, first.stats.gm_sectors);
}

TEST(Launch, DeterministicAcrossRuns) {
  auto run_once = [] {
    Device dev(kepler_k40m());
    auto arr = dev.alloc<float>(64);
    MarkKernel k;
    k.data = arr.view();
    LaunchConfig cfg;
    cfg.grid = {64, 1, 1};
    cfg.block = {32, 1, 1};
    return launch(dev, k, cfg);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.stats.gm_sectors, b.stats.gm_sectors);
  EXPECT_EQ(a.stats.fma_lane_ops, b.stats.fma_lane_ops);
  EXPECT_DOUBLE_EQ(a.timing.total_cycles, b.timing.total_cycles);
}


/// validate() names a reason for `opt`, and launch() refuses the options
/// with that same reason before running any block.
void expect_rejected(const LaunchOptions& opt) {
  const std::string why = opt.validate();
  ASSERT_FALSE(why.empty());
  Device dev(kepler_k40m());
  auto arr = dev.alloc<float>(8);
  MarkKernel k;
  k.data = arr.view();
  LaunchConfig cfg;
  cfg.grid = {8, 1, 1};
  cfg.block = {32, 1, 1};
  try {
    (void)launch(dev, k, cfg, opt);
    ADD_FAILURE() << "launch accepted options validate() rejects: " << why;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
        << e.what();
  }
}

TEST(LaunchValidate, DefaultAndSingleModeOptionsAreValid) {
  EXPECT_EQ(LaunchOptions{}.validate(), "");
  LaunchOptions opt;
  opt.analytic = true;
  opt.sample_max_blocks = 4;
  EXPECT_EQ(opt.validate(), "");
  opt = LaunchOptions{};
  opt.fleet.devices = 2;
  opt.hazard_check = true;
  opt.replay = true;
  EXPECT_EQ(opt.validate(), "");
}

TEST(LaunchValidate, RejectsAnalyticWithHazardCheck) {
  LaunchOptions opt;
  opt.analytic = true;
  opt.hazard_check = true;
  expect_rejected(opt);
}

TEST(LaunchValidate, RejectsAnalyticWithProfile) {
  LaunchOptions opt;
  opt.analytic = true;
  opt.profile = true;
  expect_rejected(opt);
}

TEST(LaunchValidate, RejectsFleetWithAnalytic) {
  LaunchOptions opt;
  opt.fleet.devices = 2;
  opt.analytic = true;
  expect_rejected(opt);
}

TEST(LaunchValidate, RejectsFleetWithSampling) {
  LaunchOptions opt;
  opt.fleet.devices = 3;
  opt.sample_max_blocks = 2;
  expect_rejected(opt);
  // A sample count covering the whole grid is rejected too: the exclusion
  // does not depend on the grid.
  opt.sample_max_blocks = 100;
  expect_rejected(opt);
}

}  // namespace
}  // namespace kconv::sim
