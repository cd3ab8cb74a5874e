#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/kernels/im2col_conv.hpp"
#include "src/kernels/naive_conv.hpp"
#include "src/sim/sim.hpp"
#include "src/tensor/compare.hpp"
#include "src/tensor/conv_ref.hpp"

namespace kconv::kernels {
namespace {

struct BShape {
  i64 k, c, f, hi, wi;
};

class BaselineCorrectness : public ::testing::TestWithParam<BShape> {};

TEST_P(BaselineCorrectness, Im2colGemmMatchesReference) {
  const BShape s = GetParam();
  Rng rng(411);
  tensor::Tensor img = tensor::Tensor::image(s.c, s.hi, s.wi);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(s.f, s.c, s.k);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  const auto run = im2col_gemm_conv(dev, img, flt);
  ASSERT_TRUE(run.output_valid);
  EXPECT_TRUE(tensor::allclose(run.output,
                               tensor::conv2d_reference(img, flt), 2e-4,
                               2e-4));
}

TEST_P(BaselineCorrectness, NaiveMatchesReference) {
  const BShape s = GetParam();
  Rng rng(412);
  tensor::Tensor img = tensor::Tensor::image(s.c, s.hi, s.wi);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(s.f, s.c, s.k);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  const auto run = naive_conv(dev, img, flt);
  ASSERT_TRUE(run.output_valid);
  EXPECT_TRUE(tensor::allclose(run.output,
                               tensor::conv2d_reference(img, flt), 2e-4,
                               2e-4));
}

INSTANTIATE_TEST_SUITE_P(Shapes, BaselineCorrectness,
                         ::testing::Values(BShape{3, 2, 4, 14, 18},
                                           BShape{1, 3, 2, 8, 8},
                                           BShape{5, 1, 6, 16, 12},
                                           BShape{7, 2, 2, 18, 18},
                                           BShape{3, 4, 8, 33, 9}));

TEST(Im2colGemm, WorkspaceBytesMatchFormula) {
  Rng rng(5);
  tensor::Tensor img = tensor::Tensor::image(3, 12, 10);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(2, 3, 3);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  const auto run = im2col_gemm_conv(dev, img, flt);
  // (C*K*K) x (Ho*Wo) floats — "a huge amount of additional memory".
  EXPECT_EQ(run.workspace_bytes, 3ull * 9 * 10 * 8 * 4);
}

TEST(Im2colGemm, TotalTimeIncludesBothLaunches) {
  Rng rng(5);
  tensor::Tensor img = tensor::Tensor::image(2, 16, 16);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(4, 2, 3);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  const auto run = im2col_gemm_conv(dev, img, flt);
  const sim::LaunchResult& im2col = run.stage("im2col").launch;
  const sim::LaunchResult& gemm = run.stage("gemm").launch;
  EXPECT_GT(im2col.timing.seconds, 0.0);
  EXPECT_GT(gemm.timing.seconds, 0.0);
  EXPECT_EQ(run.launch.timing.seconds,
            im2col.timing.seconds + gemm.timing.seconds);
  // The GEMM's flops over both launches' time.
  EXPECT_LT(run.launch.timing.gflops, gemm.timing.gflops);
}

TEST(Naive, ReReadsInputManyTimes) {
  // The naive kernel's defining sin: GM read traffic ~ K*K*F times the
  // input size (L2 absorbs most, but the requests are issued).
  Rng rng(6);
  tensor::Tensor img = tensor::Tensor::image(1, 20, 20);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(4, 1, 3);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  const auto run = naive_conv(dev, img, flt);
  const double input_bytes = 20.0 * 20 * 4;
  // Useful GM bytes include 2 loads (pixel+weight) per MAC plus stores.
  EXPECT_GT(static_cast<double>(run.launch.stats.gm_bytes_useful),
            10.0 * input_bytes);
}

}  // namespace
}  // namespace kconv::kernels
