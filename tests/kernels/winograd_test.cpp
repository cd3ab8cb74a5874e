#include "src/kernels/winograd_conv.hpp"

#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/sim/sim.hpp"
#include "src/tensor/compare.hpp"
#include "src/tensor/conv_ref.hpp"
#include "src/tensor/winograd_ref.hpp"

namespace kconv::kernels {
namespace {

// --- The transform algebra itself ------------------------------------------

TEST(WinogradRef, SingleTileMatchesDirectConvolution) {
  // One 4x4 tile, one 3x3 filter: the Winograd identity, checked directly.
  Rng rng(3);
  float d[16], g[9];
  for (auto& x : d) x = rng.uniform(-1, 1);
  for (auto& x : g) x = rng.uniform(-1, 1);
  float v[16], u[16], m[16], y[4];
  tensor::winograd_input_transform(d, v);
  tensor::winograd_filter_transform(g, u);
  for (int i = 0; i < 16; ++i) m[i] = u[i] * v[i];
  tensor::winograd_output_transform(m, y);

  for (int oy = 0; oy < 2; ++oy) {
    for (int ox = 0; ox < 2; ++ox) {
      float direct = 0.0f;
      for (int ky = 0; ky < 3; ++ky)
        for (int kx = 0; kx < 3; ++kx)
          direct += d[(oy + ky) * 4 + ox + kx] * g[ky * 3 + kx];
      EXPECT_NEAR(y[oy * 2 + ox], direct, 1e-5f);
    }
  }
}

TEST(WinogradRef, DeltaFilterTransformsToIdentityResponse) {
  // A centered delta filter must make Winograd behave like a shift.
  float g[9] = {0, 0, 0, 0, 1, 0, 0, 0, 0};
  float u[16];
  tensor::winograd_filter_transform(g, u);
  float d[16] = {};
  d[1 * 4 + 1] = 5.0f;  // value at the center of the first output's window
  float v[16], m[16], y[4];
  tensor::winograd_input_transform(d, v);
  for (int i = 0; i < 16; ++i) m[i] = u[i] * v[i];
  tensor::winograd_output_transform(m, y);
  EXPECT_NEAR(y[0], 5.0f, 1e-5f);
}

class WinogradRefShapes
    : public ::testing::TestWithParam<std::tuple<i64, i64, i64, i64>> {};

TEST_P(WinogradRefShapes, MatchesConvReference) {
  const auto [c, f, hi, wi] = GetParam();
  Rng rng(5);
  tensor::Tensor img = tensor::Tensor::image(c, hi, wi);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(f, c, 3);
  flt.fill_random(rng);
  EXPECT_TRUE(tensor::allclose(tensor::winograd_conv_reference(img, flt),
                               tensor::conv2d_reference(img, flt), 2e-4,
                               2e-4));
}

INSTANTIATE_TEST_SUITE_P(Shapes, WinogradRefShapes,
                         ::testing::Values(std::make_tuple(1, 1, 6, 6),
                                           std::make_tuple(3, 2, 9, 7),
                                           std::make_tuple(2, 4, 10, 10),
                                           std::make_tuple(4, 3, 13, 11)));

// --- The device pipeline -----------------------------------------------------

class WinogradDeviceShapes
    : public ::testing::TestWithParam<std::tuple<i64, i64, i64, i64>> {};

TEST_P(WinogradDeviceShapes, MatchesConvReference) {
  const auto [c, f, hi, wi] = GetParam();
  Rng rng(7);
  tensor::Tensor img = tensor::Tensor::image(c, hi, wi);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(f, c, 3);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  const auto run = winograd_conv(dev, img, flt);
  ASSERT_TRUE(run.output_valid);
  EXPECT_TRUE(tensor::allclose(run.output,
                               tensor::conv2d_reference(img, flt), 5e-4,
                               5e-4))
      << tensor::diff(run.output, tensor::conv2d_reference(img, flt)).max_abs;
}

INSTANTIATE_TEST_SUITE_P(Shapes, WinogradDeviceShapes,
                         ::testing::Values(std::make_tuple(2, 4, 10, 10),
                                           std::make_tuple(3, 2, 9, 13),
                                           std::make_tuple(4, 8, 18, 18),
                                           std::make_tuple(1, 1, 4, 4),
                                           std::make_tuple(2, 2, 11, 7)));

TEST(WinogradDevice, RejectsNon3x3) {
  sim::Device dev(sim::kepler_k40m());
  tensor::Tensor img = tensor::Tensor::image(1, 10, 10);
  tensor::Tensor flt = tensor::Tensor::filters(1, 1, 5);
  EXPECT_THROW(winograd_conv(dev, img, flt), Error);
}

TEST(WinogradDevice, WorkspaceBytesMatchFormula) {
  Rng rng(9);
  tensor::Tensor img = tensor::Tensor::image(2, 10, 14);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(4, 2, 3);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  const auto run = winograd_conv(dev, img, flt);
  // Ho=8, Wo=12 -> 4x6=24 tiles; (16*C + 16*F) * T floats.
  EXPECT_EQ(run.workspace_bytes, (16ull * 2 + 16 * 4) * 24 * 4);
}

TEST(WinogradDevice, ArithmeticReductionNearTheory) {
  // The point of Winograd: GEMM-stage multiplications per output = 16*C/4
  // vs direct's 9*C — a 2.25x reduction (transforms excluded).
  Rng rng(11);
  tensor::Tensor img = tensor::Tensor::image(8, 34, 34);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(16, 8, 3);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  const auto run = winograd_conv(dev, img, flt);
  const double direct_flops = 2.0 * 8 * 16 * 9 * 32 * 32;
  // GEMM flops include tile padding (T rounded up by the GEMM tiling), so
  // allow headroom above the exact 1/2.25 ratio.
  const double gemm_flops = run.stage("gemm").launch.stats.flops();
  EXPECT_LT(gemm_flops, direct_flops);
  EXPECT_GT(gemm_flops, direct_flops / 2.25 * 0.9);
}

}  // namespace
}  // namespace kconv::kernels
