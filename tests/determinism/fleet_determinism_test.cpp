// Fleet (multi-device) determinism suite (docs/MODEL.md §9).
//
// A sharded launch runs every block against the same functional memory, so
// the single-device contract of §5a extends verbatim to fleets. Under
// test, for every shard strategy at 1, 2 and 4 devices, across the serial
// launcher, the chunked parallel launcher and warm trace-replay:
//   - functional outputs are byte-identical to the single-device run;
//   - every scheduling-invariant counter matches exactly (only the two
//     cache-warmth counters may move: each device owns a cold L2 and
//     constant-cache replica, exactly like a parallel chunk);
//   - a fixed (devices, strategy) pair is exactly reproducible run to run,
//     including the modeled transfer ledgers;
//   - a spatial shard on a halo-bearing shape reports real d2d traffic
//     ((K-1) input rows per interior cut) while still matching bytes.
#include <cstring>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/core/conv_api.hpp"
#include "src/sim/device.hpp"
#include "tests/support/stats_match.hpp"

namespace kconv {
namespace {

void expect_bytes_equal(std::span<const float> a, std::span<const float> b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

struct FleetMode {
  u32 devices;
  sim::ShardStrategy strategy;
  u32 threads;  ///< worker threads for the per-device pool
  bool replay;
};

/// General-case shape: several filter groups and row tiles, so every
/// strategy has an axis to cut and uneven slab tails show up.
core::ConvResult run_general(const FleetMode& m) {
  Rng rng(17);
  tensor::Tensor img = tensor::Tensor::image(4, 24, 24);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(32, 4, 3);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  core::ConvOptions opt;
  opt.algo = core::Algo::General;
  opt.launch.num_threads = m.threads;
  opt.launch.replay = m.replay;
  opt.launch.fleet.devices = m.devices;
  opt.launch.fleet.strategy = m.strategy;
  return core::conv2d(dev, img, flt, opt);
}

/// Special-case (C = 1) shape with K = 5: spatial cuts carry a real
/// 4-row halo.
core::ConvResult run_special(const FleetMode& m) {
  Rng rng(29);
  tensor::Tensor img = tensor::Tensor::image(1, 40, 40);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(8, 1, 5);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  core::ConvOptions opt;
  opt.algo = core::Algo::Special;
  opt.launch.num_threads = m.threads;
  opt.launch.replay = m.replay;
  opt.launch.fleet.devices = m.devices;
  opt.launch.fleet.strategy = m.strategy;
  return core::conv2d(dev, img, flt, opt);
}

TEST(FleetDeterminism, GeneralConvMatchesSingleDeviceEverywhere) {
  const auto base = run_general({1, sim::ShardStrategy::Batch, 1, false});
  ASSERT_TRUE(base.output_valid);
  EXPECT_FALSE(base.launch.fleet.enabled);

  const sim::ShardStrategy strategies[] = {sim::ShardStrategy::Batch,
                                           sim::ShardStrategy::Channel,
                                           sim::ShardStrategy::Spatial};
  for (const u32 d : {2u, 4u}) {
    for (const sim::ShardStrategy s : strategies) {
      for (const u32 threads : {1u, 4u}) {
        for (const bool replay : {false, true}) {
          const auto r = run_general({d, s, threads, replay});
          ASSERT_TRUE(r.output_valid);
          EXPECT_TRUE(r.launch.fleet.enabled);
          EXPECT_EQ(r.launch.fleet.devices, d);
          expect_bytes_equal(base.output.flat(), r.output.flat());
          EXPECT_TRUE(test::stats_match(base.launch.stats, r.launch.stats,
                                        StatsLevel::Schedule));
        }
      }
    }
  }
}

TEST(FleetDeterminism, SpecialConvMatchesSingleDeviceEverywhere) {
  const auto base = run_special({1, sim::ShardStrategy::Batch, 1, false});
  ASSERT_TRUE(base.output_valid);

  // The special kernel declares no channel axis (it loops filters inside
  // the block), so the fleet matrix covers batch and spatial.
  const sim::ShardStrategy strategies[] = {sim::ShardStrategy::Batch,
                                           sim::ShardStrategy::Spatial};
  for (const u32 d : {2u, 4u}) {
    for (const sim::ShardStrategy s : strategies) {
      for (const u32 threads : {1u, 4u}) {
        for (const bool replay : {false, true}) {
          const auto r = run_special({d, s, threads, replay});
          ASSERT_TRUE(r.output_valid);
          expect_bytes_equal(base.output.flat(), r.output.flat());
          EXPECT_TRUE(test::stats_match(base.launch.stats, r.launch.stats,
                                        StatsLevel::Schedule));
        }
      }
    }
  }
}

TEST(FleetDeterminism, ChannelRequestOnSpecialKernelRejectsLoudly) {
  EXPECT_THROW(run_special({2, sim::ShardStrategy::Channel, 1, false}),
               Error);
}

TEST(FleetDeterminism, SpatialHaloCarriesRealBytesAndStaysExact) {
  // K = 5 on a 40-row image: each interior cut re-reads 4 input rows
  // ((K-1) * Wi * 4 bytes = 640) on the receiving device.
  const auto base = run_special({1, sim::ShardStrategy::Batch, 1, false});
  const auto two = run_special({2, sim::ShardStrategy::Spatial, 1, false});
  const auto four = run_special({4, sim::ShardStrategy::Spatial, 2, true});

  EXPECT_EQ(two.launch.fleet.d2d_bytes, 640u);
  EXPECT_EQ(four.launch.fleet.d2d_bytes, 3u * 640u);
  expect_bytes_equal(base.output.flat(), two.output.flat());
  expect_bytes_equal(base.output.flat(), four.output.flat());
  EXPECT_TRUE(test::stats_match(base.launch.stats, two.launch.stats,
                                StatsLevel::Schedule));
  EXPECT_TRUE(test::stats_match(base.launch.stats, four.launch.stats,
                                StatsLevel::Schedule));

  // More devices -> more cuts -> more exchange traffic, never less.
  EXPECT_GT(four.launch.fleet.d2d_bytes, two.launch.fleet.d2d_bytes);
}

TEST(FleetDeterminism, FixedPartitionIsExactlyReproducible) {
  const FleetMode mode{4, sim::ShardStrategy::Spatial, 4, true};
  const auto a = run_general(mode);
  const auto b = run_general(mode);
  expect_bytes_equal(a.output.flat(), b.output.flat());
  // Cache-warmth counters and modeled ledgers included: the partition is
  // a pure function of (grid, devices, strategy).
  EXPECT_TRUE(
      test::stats_match(a.launch.stats, b.launch.stats, StatsLevel::Exact));
  EXPECT_EQ(a.launch.fleet.h2d_bytes, b.launch.fleet.h2d_bytes);
  EXPECT_EQ(a.launch.fleet.d2h_bytes, b.launch.fleet.d2h_bytes);
  EXPECT_EQ(a.launch.fleet.d2d_bytes, b.launch.fleet.d2d_bytes);
  EXPECT_EQ(a.launch.fleet.seconds, b.launch.fleet.seconds);
}

}  // namespace
}  // namespace kconv
