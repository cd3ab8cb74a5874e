#include "src/kernels/fft_conv.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/common/rng.hpp"
#include "src/sim/sim.hpp"
#include "src/tensor/compare.hpp"
#include "src/tensor/conv_ref.hpp"
#include "src/tensor/fft_ref.hpp"

namespace kconv::kernels {
namespace {

// --- Host FFT machinery -------------------------------------------------------

TEST(FftRef, ForwardInverseRoundTrip) {
  Rng rng(3);
  std::vector<tensor::cfloat> data(64);
  std::vector<tensor::cfloat> orig(64);
  for (std::size_t i = 0; i < 64; ++i) {
    orig[i] = data[i] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  tensor::fft1d(data, false);
  tensor::fft1d(data, true);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(data[i].real() / 64.0f, orig[i].real(), 1e-5f);
    EXPECT_NEAR(data[i].imag() / 64.0f, orig[i].imag(), 1e-5f);
  }
}

TEST(FftRef, DeltaTransformsToAllOnes) {
  std::vector<tensor::cfloat> data(16, {0, 0});
  data[0] = {1, 0};
  tensor::fft1d(data, false);
  for (const auto& v : data) {
    EXPECT_NEAR(v.real(), 1.0f, 1e-6f);
    EXPECT_NEAR(v.imag(), 0.0f, 1e-6f);
  }
}

TEST(FftRef, ParsevalHolds) {
  Rng rng(5);
  std::vector<tensor::cfloat> data(128);
  double time_energy = 0.0;
  for (auto& v : data) {
    v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    time_energy += std::norm(v);
  }
  tensor::fft1d(data, false);
  double freq_energy = 0.0;
  for (const auto& v : data) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / 128.0, time_energy, 1e-3);
}

TEST(FftRef, RejectsNonPowerOfTwo) {
  std::vector<tensor::cfloat> data(12);
  EXPECT_THROW(tensor::fft1d(data, false), Error);
}

TEST(FftRef, NextPow2) {
  EXPECT_EQ(tensor::next_pow2(1), 1);
  EXPECT_EQ(tensor::next_pow2(2), 2);
  EXPECT_EQ(tensor::next_pow2(3), 4);
  EXPECT_EQ(tensor::next_pow2(17), 32);
}

class FftRefConv
    : public ::testing::TestWithParam<std::tuple<i64, i64, i64, i64, i64>> {};

TEST_P(FftRefConv, MatchesDirectReference) {
  const auto [c, f, k, hi, wi] = GetParam();
  Rng rng(7);
  tensor::Tensor img = tensor::Tensor::image(c, hi, wi);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(f, c, k);
  flt.fill_random(rng);
  EXPECT_TRUE(tensor::allclose(tensor::fft_conv_reference(img, flt),
                               tensor::conv2d_reference(img, flt), 2e-3,
                               2e-3));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FftRefConv,
    ::testing::Values(std::make_tuple(2, 3, 3, 10, 14),
                      std::make_tuple(1, 1, 5, 9, 9),
                      std::make_tuple(3, 2, 7, 16, 11),
                      std::make_tuple(2, 2, 1, 8, 8)));

// --- Device pipeline ----------------------------------------------------------

class FftDeviceConv
    : public ::testing::TestWithParam<std::tuple<i64, i64, i64, i64, i64>> {};

TEST_P(FftDeviceConv, MatchesDirectReference) {
  const auto [c, f, k, hi, wi] = GetParam();
  Rng rng(9);
  tensor::Tensor img = tensor::Tensor::image(c, hi, wi);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(f, c, k);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  const auto run = fft_conv(dev, img, flt);
  ASSERT_TRUE(run.output_valid);
  EXPECT_TRUE(tensor::allclose(run.output,
                               tensor::conv2d_reference(img, flt), 2e-3,
                               2e-3))
      << tensor::diff(run.output, tensor::conv2d_reference(img, flt)).max_abs;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FftDeviceConv,
    ::testing::Values(std::make_tuple(2, 3, 3, 10, 14),
                      std::make_tuple(1, 2, 5, 9, 9),
                      std::make_tuple(3, 2, 7, 16, 11),
                      std::make_tuple(2, 2, 1, 8, 8),
                      std::make_tuple(4, 4, 3, 32, 32),
                      std::make_tuple(1, 1, 7, 7, 7)));

TEST(FftDevice, WorkspaceIsThePaddingCost) {
  // "The filters need to be padded to the same size as the input image":
  // F*C filter planes of P*Q complex dominate the workspace.
  Rng rng(11);
  tensor::Tensor img = tensor::Tensor::image(4, 30, 30);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(8, 4, 3);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  const auto run = fft_conv(dev, img, flt);
  // P = Q = 32; planes: C=4 + F*C=32 + F=8 = 44 complex planes, double
  // buffered: 2 * 44 * 32*32 * 8 bytes.
  EXPECT_EQ(run.workspace_bytes, 2ull * 44 * 32 * 32 * 8);
  // The filter padding alone inflates 8*4*9 filter floats (1152 B) into a
  // ~700 KiB workspace — a >600x blowup. That's the paper's objection.
  EXPECT_GT(static_cast<double>(run.workspace_bytes),
            600.0 * 8 * 4 * 9 * 4);
}

TEST(FftDevice, PipelineDepthIsThirteenLaunches) {
  Rng rng(13);
  tensor::Tensor img = tensor::Tensor::image(1, 8, 8);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(1, 1, 3);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  const auto run = fft_conv(dev, img, flt);
  const std::pair<const char*, u32> want[] = {
      {"pad", 2}, {"image_fft", 3}, {"filter_fft", 3}, {"mac", 1},
      {"inverse", 4}};
  ASSERT_EQ(run.stages.size(), std::size(want));
  u32 launches = 0;
  for (std::size_t i = 0; i < std::size(want); ++i) {
    EXPECT_EQ(run.stages[i].name, want[i].first);
    EXPECT_EQ(run.stages[i].launches, want[i].second) << want[i].first;
    EXPECT_GT(run.stages[i].launch.timing.seconds, 0.0) << want[i].first;
    launches += run.stages[i].launches;
  }
  EXPECT_EQ(launches, 13u);
  EXPECT_GE(run.stage("filter_fft").launch.timing.seconds,
            run.stage("image_fft").launch.timing.seconds);
}

TEST(FftDevice, SampleLargerThanEveryGridKeepsTheOutput) {
  // A sample bound no stage's grid reaches runs every block of every
  // launch, so the output is the unsampled run's, bit for bit.
  Rng rng(17);
  tensor::Tensor img = tensor::Tensor::image(2, 12, 12);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(3, 2, 3);
  flt.fill_random(rng);
  sim::Device d1(sim::kepler_k40m());
  const auto full = fft_conv(d1, img, flt);
  sim::LaunchOptions opt;
  opt.sample_max_blocks = u64{1} << 20;
  sim::Device d2(sim::kepler_k40m());
  const auto run = fft_conv(d2, img, flt, opt);
  for (const sim::LaunchStage& s : run.stages) {
    EXPECT_LT(s.launch.blocks_total, opt.sample_max_blocks) << s.name;
    EXPECT_FALSE(s.launch.sampled) << s.name;
  }
  ASSERT_TRUE(full.output_valid);
  ASSERT_TRUE(run.output_valid);
  EXPECT_TRUE(std::ranges::equal(run.output.flat(), full.output.flat()));
}

TEST(FftDevice, ChannelMismatchThrows) {
  sim::Device dev(sim::kepler_k40m());
  tensor::Tensor img = tensor::Tensor::image(2, 8, 8);
  tensor::Tensor flt = tensor::Tensor::filters(1, 3, 3);
  EXPECT_THROW(fft_conv(dev, img, flt), Error);
}

}  // namespace
}  // namespace kconv::kernels
