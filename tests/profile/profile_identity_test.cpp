// kconv-prof is purely observational: simulation outputs and every
// existing counter must be bit-identical with profiling on or off, in all
// three launch modes (serial, parallel, replay). docs/MODEL.md §7.
// Mirrors tests/analysis/identity_test.cpp for kconv-check.
#include <gtest/gtest.h>

#include "src/kernels/general_conv.hpp"
#include "src/kernels/implicit_gemm_conv.hpp"
#include "src/kernels/special_conv.hpp"
#include "src/tensor/tensor.hpp"
#include "tests/support/stats_match.hpp"

namespace kconv::profile {
namespace {

void expect_same_output(const tensor::Tensor& a, const tensor::Tensor& b) {
  ASSERT_EQ(a.size(), b.size());
  for (i64 n = 0; n < a.n(); ++n)
    for (i64 c = 0; c < a.c(); ++c)
      for (i64 y = 0; y < a.h(); ++y)
        for (i64 x = 0; x < a.w(); ++x)
          ASSERT_EQ(a.at(n, c, y, x), b.at(n, c, y, x));
}

struct ModeCase {
  const char* name;
  u32 threads;
  bool replay;
};

constexpr ModeCase kModes[] = {
    {"serial", 1, false},
    {"parallel", 3, false},
    {"replay", 1, true},
};

TEST(ProfileIdentity, SpecialConvBitIdenticalWithProfilingOn) {
  Rng rng(7);
  tensor::Tensor img = tensor::Tensor::image(1, 20, 300);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(8, 1, 3);
  flt.fill_random(rng);

  for (const ModeCase& m : kModes) {
    SCOPED_TRACE(m.name);
    sim::Device dev(sim::kepler_k40m());
    sim::LaunchOptions off;
    off.num_threads = m.threads;
    off.replay = m.replay;
    const auto base = kernels::special_conv(dev, img, flt, {}, off);

    sim::LaunchOptions on = off;
    on.profile = true;
    const auto profiled = kernels::special_conv(dev, img, flt, {}, on);

    EXPECT_TRUE(test::stats_match(base.launch.stats, profiled.launch.stats,
                                  StatsLevel::Exact));
    EXPECT_DOUBLE_EQ(base.launch.timing.total_cycles,
                     profiled.launch.timing.total_cycles);
    ASSERT_TRUE(base.output_valid);
    ASSERT_TRUE(profiled.output_valid);
    expect_same_output(base.output, profiled.output);
    // The diagnostic launch replays 0 blocks.
    EXPECT_EQ(profiled.launch.blocks_replayed, 0u);
    EXPECT_FALSE(base.launch.profile.enabled);
    EXPECT_TRUE(base.launch.profile.timelines.empty());
    EXPECT_TRUE(profiled.launch.profile.enabled);
  }
}

TEST(ProfileIdentity, GeneralConvBitIdenticalWithProfilingOn) {
  Rng rng(11);
  tensor::Tensor img = tensor::Tensor::image(4, 12, 66);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(64, 4, 3);
  flt.fill_random(rng);

  for (const ModeCase& m : kModes) {
    SCOPED_TRACE(m.name);
    sim::Device dev(sim::kepler_k40m());
    sim::LaunchOptions off;
    off.num_threads = m.threads;
    off.replay = m.replay;
    const auto base = kernels::general_conv(dev, img, flt, {}, off);

    sim::LaunchOptions on = off;
    on.profile = true;
    const auto profiled = kernels::general_conv(dev, img, flt, {}, on);

    EXPECT_TRUE(test::stats_match(base.launch.stats, profiled.launch.stats,
                                  StatsLevel::Exact));
    ASSERT_TRUE(base.output_valid);
    ASSERT_TRUE(profiled.output_valid);
    expect_same_output(base.output, profiled.output);
    // The diagnostic launch replays 0 blocks.
    EXPECT_EQ(profiled.launch.blocks_replayed, 0u);
  }
}

TEST(ProfileIdentity, ImplicitGemmBitIdenticalWithProfilingOn) {
  Rng rng(5);
  tensor::Tensor img = tensor::Tensor::image(2, 14, 30);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(16, 2, 3);
  flt.fill_random(rng);

  for (const ModeCase& m : kModes) {
    SCOPED_TRACE(m.name);
    sim::Device dev(sim::kepler_k40m());
    sim::LaunchOptions off;
    off.num_threads = m.threads;
    off.replay = m.replay;
    const auto base = kernels::implicit_gemm_conv(dev, img, flt, {}, off);

    sim::LaunchOptions on = off;
    on.profile = true;
    const auto profiled = kernels::implicit_gemm_conv(dev, img, flt, {}, on);

    EXPECT_TRUE(test::stats_match(base.launch.stats, profiled.launch.stats,
                                  StatsLevel::Exact));
    ASSERT_TRUE(base.output_valid);
    ASSERT_TRUE(profiled.output_valid);
    expect_same_output(base.output, profiled.output);
  }
}

TEST(ProfileIdentity, LaunchProfileEmptyWhenOff) {
  sim::Device dev(sim::kepler_k40m());
  Rng rng(3);
  tensor::Tensor img = tensor::Tensor::image(1, 12, 140);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(4, 1, 3);
  flt.fill_random(rng);
  const auto res = kernels::special_conv(dev, img, flt, {}, {});
  EXPECT_FALSE(res.launch.profile.enabled);
  EXPECT_TRUE(res.launch.profile.timelines.empty());
  for (u32 i = 0; i < kNumPhases; ++i)
    EXPECT_TRUE(res.launch.profile.phases.p[i].empty()) << phase_name(
        static_cast<Phase>(i));
  EXPECT_EQ(res.launch.profile.hints.kind, RooflineHints::Kind::None);
}

}  // namespace
}  // namespace kconv::profile
