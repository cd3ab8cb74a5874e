// Parallel-launch determinism suite (docs/MODEL.md §5a).
//
// The multi-threaded launcher partitions the block list into contiguous
// chunks with per-chunk stats shards and cache replicas, merged in index
// order. The contract under test:
//   - functional outputs are byte-identical to the serial path for any
//     thread count;
//   - every additive counter matches the serial path exactly, EXCEPT the
//     two cache-warmth-dependent ones (gm_sectors_dram, const_line_misses),
//     which legitimately change because each chunk runs against its own
//     cold L2 shadow / constant-cache replica;
//   - a fixed thread count is exactly reproducible run to run, INCLUDING
//     the cache counters (the partition is a pure function of block count
//     and thread count, never of host scheduling);
//   - autotune rankings are identical for any thread count (candidates run
//     on fresh devices and merge in enumeration order).
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/core/autotune.hpp"
#include "src/core/conv_api.hpp"
#include "src/kernels/gemm_kernels.hpp"
#include "src/kernels/general_conv.hpp"
#include "src/kernels/special_conv.hpp"
#include "src/sim/device.hpp"
#include "tests/support/stats_match.hpp"

namespace kconv {
namespace {

void expect_bytes_equal(std::span<const float> a, std::span<const float> b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

kernels::KernelRun run_special(u32 num_threads) {
  Rng rng(7);
  tensor::Tensor img = tensor::Tensor::image(1, 40, 40);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(8, 1, 5);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  sim::LaunchOptions opt;
  opt.num_threads = num_threads;
  kernels::SpecialConvConfig cfg;
  cfg.block_w = 16;
  cfg.block_h = 4;  // 3 x 9 = 27 blocks: chunks get uneven tails
  return kernels::special_conv(dev, img, flt, cfg, opt);
}

kernels::KernelRun run_general(u32 num_threads) {
  Rng rng(11);
  tensor::Tensor img = tensor::Tensor::image(4, 24, 24);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(32, 4, 3);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  sim::LaunchOptions opt;
  opt.num_threads = num_threads;
  kernels::GeneralConvConfig cfg;
  cfg.block_w = 8;
  cfg.block_h = 4;
  cfg.ftb = 32;
  cfg.wt = 4;
  cfg.ft = 4;
  cfg.csh = 2;
  return kernels::general_conv(dev, img, flt, cfg, opt);
}

kernels::GemmRun run_gemm(u32 num_threads) {
  Rng rng(13);
  tensor::Matrix a(48, 32);
  tensor::Matrix b(32, 40);
  for (float& v : a.data) v = rng.uniform(-1.0f, 1.0f);
  for (float& v : b.data) v = rng.uniform(-1.0f, 1.0f);
  sim::Device dev(sim::kepler_k40m());
  sim::LaunchOptions opt;
  opt.num_threads = num_threads;
  return kernels::gemm(dev, a, b, {}, opt);
}

TEST(ParallelDeterminism, SpecialConvMatchesSerial) {
  const auto serial = run_special(1);
  ASSERT_TRUE(serial.output_valid);
  for (const u32 t : {2u, 4u, 8u}) {
    const auto par = run_special(t);
    ASSERT_TRUE(par.output_valid);
    expect_bytes_equal(serial.output.flat(), par.output.flat());
    EXPECT_TRUE(test::stats_match(serial.launch.stats, par.launch.stats,
                                  StatsLevel::Schedule));
  }
}

TEST(ParallelDeterminism, GeneralConvMatchesSerial) {
  const auto serial = run_general(1);
  ASSERT_TRUE(serial.output_valid);
  for (const u32 t : {2u, 4u, 8u}) {
    const auto par = run_general(t);
    ASSERT_TRUE(par.output_valid);
    expect_bytes_equal(serial.output.flat(), par.output.flat());
    EXPECT_TRUE(test::stats_match(serial.launch.stats, par.launch.stats,
                                  StatsLevel::Schedule));
  }
}

TEST(ParallelDeterminism, GemmMatchesSerial) {
  const auto serial = run_gemm(1);
  ASSERT_TRUE(serial.output_valid);
  for (const u32 t : {2u, 4u, 8u}) {
    const auto par = run_gemm(t);
    ASSERT_TRUE(par.output_valid);
    ASSERT_EQ(serial.c.data.size(), par.c.data.size());
    EXPECT_EQ(std::memcmp(serial.c.data.data(), par.c.data.data(),
                          serial.c.data.size() * sizeof(float)),
              0);
    EXPECT_TRUE(test::stats_match(serial.launch.stats, par.launch.stats,
                                  StatsLevel::Schedule));
  }
}

TEST(ParallelDeterminism, FixedThreadCountIsExactlyReproducible) {
  // At a fixed thread count even the cache-warmth counters must repeat:
  // the chunk partition depends only on (block count, thread count).
  for (const u32 t : {2u, 4u}) {
    const auto r1 = run_general(t);
    const auto r2 = run_general(t);
    expect_bytes_equal(r1.output.flat(), r2.output.flat());
    EXPECT_TRUE(test::stats_match(r1.launch.stats, r2.launch.stats,
                                  StatsLevel::Exact));
  }
}

TEST(ParallelDeterminism, ThreadsZeroMeansHardwareConcurrency) {
  // num_threads = 0 resolves to hardware_concurrency; outputs still match.
  const auto serial = run_special(1);
  const auto par = run_special(0);
  ASSERT_TRUE(par.output_valid);
  expect_bytes_equal(serial.output.flat(), par.output.flat());
  EXPECT_TRUE(test::stats_match(serial.launch.stats, par.launch.stats,
                                StatsLevel::Schedule));
}

TEST(ParallelDeterminism, SampledLaunchMatchesSerial) {
  // The sampled (benchmark) path partitions the sample, not the full grid.
  Rng rng(17);
  tensor::Tensor img = tensor::Tensor::image(1, 64, 64);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(4, 1, 3);
  flt.fill_random(rng);
  auto run_at = [&](u32 t) {
    sim::Device dev(sim::kepler_k40m());
    sim::LaunchOptions opt;
    opt.num_threads = t;
    opt.sample_max_blocks = 7;
    return kernels::special_conv(dev, img, flt, {.block_w = 8, .block_h = 2},
                                 opt);
  };
  const auto serial = run_at(1);
  EXPECT_TRUE(serial.launch.sampled);
  for (const u32 t : {2u, 4u}) {
    const auto par = run_at(t);
    EXPECT_TRUE(par.launch.sampled);
    EXPECT_TRUE(test::stats_match(serial.launch.stats, par.launch.stats,
                                  StatsLevel::Schedule));
  }
}

TEST(ParallelDeterminism, ConvApiForwardsThreadCount) {
  Rng rng(19);
  tensor::Tensor img = tensor::Tensor::image(2, 20, 20);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(32, 2, 3);
  flt.fill_random(rng);
  auto run_at = [&](u32 t) {
    sim::Device dev(sim::kepler_k40m());
    core::ConvOptions opt;
    opt.launch.num_threads = t;
    return core::conv2d(dev, img, flt, opt);
  };
  const auto serial = run_at(1);
  ASSERT_TRUE(serial.output_valid);
  const auto par = run_at(4);
  ASSERT_TRUE(par.output_valid);
  expect_bytes_equal(serial.output.flat(), par.output.flat());
  EXPECT_TRUE(test::stats_match(serial.launch.stats, par.launch.stats,
                                StatsLevel::Schedule));
}

TEST(ParallelDeterminism, SpecialAutotuneRankingThreadCountInvariant) {
  const auto at = [](u32 t) {
    sim::Device dev(sim::kepler_k40m());
    return core::autotune_special(dev, 5, 16, 96, {}, 4, t);
  };
  const auto serial = at(1);
  for (const u32 t : {2u, 4u}) {
    const auto par = at(t);
    EXPECT_EQ(serial.evaluated, par.evaluated);
    EXPECT_EQ(serial.skipped, par.skipped);
    EXPECT_EQ(serial.ranking, par.ranking);
  }
}

TEST(ParallelDeterminism, GeneralAutotuneRankingThreadCountInvariant) {
  // A reduced space keeps the 3 sweeps quick while still mixing legal and
  // illegal candidates.
  core::GeneralSpace space;
  space.block_w = {32};
  space.block_h = {4, 8};
  space.ftb = {32, 64};
  space.wt = {8, 16};
  space.ft = {4};
  space.csh = {1, 2};
  const auto at = [&](u32 t) {
    sim::Device dev(sim::kepler_k40m());
    return core::autotune_general(dev, 3, 4, 64, 32, space, 2, t);
  };
  const auto serial = at(1);
  for (const u32 t : {2u, 4u}) {
    const auto par = at(t);
    EXPECT_EQ(serial.evaluated, par.evaluated);
    EXPECT_EQ(serial.skipped, par.skipped);
    EXPECT_EQ(serial.ranking, par.ranking);
  }
}

}  // namespace
}  // namespace kconv
