// kconv-check is purely observational: simulation outputs and every
// existing counter must be bit-identical with checking on or off, in all
// three launch modes (serial, parallel, replay). docs/MODEL.md §6.
#include <gtest/gtest.h>

#include "src/kernels/general_conv.hpp"
#include "src/kernels/special_conv.hpp"
#include "src/tensor/tensor.hpp"
#include "tests/support/stats_match.hpp"

namespace kconv::analysis {
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

TEST(CheckIdentity, SpecialConvBitIdenticalWithCheckingOn) {
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
    on.hazard_check = true;
    on.lint = true;
    const auto checked = kernels::special_conv(dev, img, flt, {}, on);

    EXPECT_TRUE(test::stats_match(base.launch.stats, checked.launch.stats,
                                  StatsLevel::Exact));
    EXPECT_DOUBLE_EQ(base.launch.timing.total_cycles,
                     checked.launch.timing.total_cycles);
    ASSERT_TRUE(base.output_valid);
    ASSERT_TRUE(checked.output_valid);
    expect_same_output(base.output, checked.output);
    EXPECT_TRUE(checked.launch.analysis.clean());
    // The diagnostic launch replays 0 blocks.
    EXPECT_EQ(checked.launch.blocks_replayed, 0u);
  }
}

TEST(CheckIdentity, GeneralConvBitIdenticalWithCheckingOn) {
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
    on.hazard_check = true;
    on.lint = true;
    const auto checked = kernels::general_conv(dev, img, flt, {}, on);

    EXPECT_TRUE(test::stats_match(base.launch.stats, checked.launch.stats,
                                  StatsLevel::Exact));
    ASSERT_TRUE(base.output_valid);
    ASSERT_TRUE(checked.output_valid);
    expect_same_output(base.output, checked.output);
    EXPECT_TRUE(checked.launch.analysis.clean());
  }
}

TEST(CheckIdentity, ReportOmitsAnalysisWhenUnchecked) {
  sim::Device dev(sim::kepler_k40m());
  Rng rng(3);
  tensor::Tensor img = tensor::Tensor::image(1, 12, 140);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(4, 1, 3);
  flt.fill_random(rng);
  const auto res = kernels::special_conv(dev, img, flt, {}, {});
  EXPECT_FALSE(res.launch.analysis.hazard_checked);
  EXPECT_FALSE(res.launch.analysis.linted);
  EXPECT_TRUE(res.launch.analysis.clean());
}

}  // namespace
}  // namespace kconv::analysis
