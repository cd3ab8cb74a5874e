#include "src/kernels/gemm_kernels.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <utility>

#include "src/common/rng.hpp"
#include "src/sim/sim.hpp"
#include "src/tensor/gemm_ref.hpp"

namespace kconv::kernels {
namespace {

tensor::Matrix random_matrix(i64 r, i64 c, u64 seed) {
  Rng rng(seed);
  tensor::Matrix m(r, c);
  for (auto& v : m.data) v = rng.uniform(-1.0f, 1.0f);
  return m;
}

void expect_matches_reference(const tensor::Matrix& a,
                              const tensor::Matrix& b,
                              const GemmConfig& cfg) {
  sim::Device dev(sim::kepler_k40m());
  const auto run = gemm(dev, a, b, cfg);
  ASSERT_TRUE(run.output_valid);
  const tensor::Matrix ref = tensor::gemm_reference(a, b);
  for (std::size_t i = 0; i < ref.data.size(); ++i) {
    ASSERT_NEAR(run.c.data[i], ref.data[i], 2e-4f) << "at " << i;
  }
}

class GemmPresets : public ::testing::TestWithParam<int> {};

GemmConfig preset(int which) {
  switch (which) {
    case 0: return gemm_cublas_like();
    case 1: return gemm_magma_fermi();
    default: return gemm_magma_mod();
  }
}

TEST_P(GemmPresets, SquareMatchesReference) {
  expect_matches_reference(random_matrix(96, 96, 1), random_matrix(96, 96, 2),
                           preset(GetParam()));
}

TEST_P(GemmPresets, RaggedShapesMatchReference) {
  expect_matches_reference(random_matrix(70, 33, 3), random_matrix(33, 101, 4),
                           preset(GetParam()));
}

TEST_P(GemmPresets, SkinnyInnerDimension) {
  // The degenerate Kdim regime the special-case convolution hits.
  expect_matches_reference(random_matrix(64, 5, 5), random_matrix(5, 130, 6),
                           preset(GetParam()));
}

TEST_P(GemmPresets, TinyProblem) {
  expect_matches_reference(random_matrix(3, 3, 7), random_matrix(3, 3, 8),
                           preset(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllPresets, GemmPresets, ::testing::Values(0, 1, 2));

TEST(Gemm, NoPrefetchVariantStillCorrect) {
  GemmConfig cfg = gemm_magma_mod();
  cfg.prefetch = false;
  expect_matches_reference(random_matrix(80, 48, 9), random_matrix(48, 72, 10),
                           cfg);
}

TEST(Gemm, ShapeMismatchThrows) {
  sim::Device dev(sim::kepler_k40m());
  EXPECT_THROW(gemm(dev, random_matrix(4, 5, 1), random_matrix(6, 4, 2), {}),
               Error);
}

TEST(Gemm, BadMicroTileThrows) {
  sim::Device dev(sim::kepler_k40m());
  GemmConfig cfg;
  cfg.tm = 3;  // not a multiple of the matched width 2
  EXPECT_THROW(
      gemm(dev, random_matrix(8, 8, 1), random_matrix(8, 8, 2), cfg), Error);
}

// --- The dense layer's fitted tile -------------------------------------------

TEST(GemmFitted, DenseShapesMatchMagmaBitForBitInOneSmallerBlock) {
  const GemmConfig fit = gemm_fitted(10, 1);
  EXPECT_EQ(fit.bm, 16);
  EXPECT_EQ(fit.bn, 2);
  EXPECT_EQ(fit.bk, 8);
  EXPECT_EQ(fit.tm, 2);
  EXPECT_EQ(fit.tn, 2);
  EXPECT_EQ(fit.vec_width, gemm_magma_mod().vec_width);
  // The classifier heads of lenet, vgg-tiny and lenet-wide.
  for (const i64 k : {256, 576, 864}) {
    SCOPED_TRACE(k);
    const auto w = random_matrix(10, k, 20 + static_cast<u64>(k));
    const auto x = random_matrix(k, 1, 21 + static_cast<u64>(k));
    sim::Device d_magma(sim::kepler_k40m());
    sim::Device d_fit(sim::kepler_k40m());
    const auto magma = gemm(d_magma, w, x, gemm_magma_mod());
    const auto fitted = gemm(d_fit, w, x, fit);
    ASSERT_TRUE(magma.output_valid && fitted.output_valid);
    ASSERT_EQ(fitted.c.data.size(), magma.c.data.size());
    EXPECT_EQ(std::memcmp(fitted.c.data.data(), magma.c.data.data(),
                          magma.c.data.size() * sizeof(float)),
              0);
    EXPECT_EQ(fitted.launch.blocks_total, magma.launch.blocks_total);
    EXPECT_LE(fitted.launch.timing.seconds, magma.launch.timing.seconds);
  }
}

TEST(GemmFitted, FullTilesKeepMagma) {
  const GemmConfig magma = gemm_magma_mod();
  for (const auto& [m, n] : {std::pair<i64, i64>{64, 64}, {500, 300}}) {
    const GemmConfig fit = gemm_fitted(m, n);
    EXPECT_EQ(fit.bm, magma.bm);
    EXPECT_EQ(fit.bn, magma.bn);
    EXPECT_EQ(fit.bk, magma.bk);
    EXPECT_EQ(fit.tm, magma.tm);
    EXPECT_EQ(fit.tn, magma.tn);
  }
}

TEST(GemmFitted, RaggedShapesMatchReference) {
  // Tall-and-narrow (bm stays 64) and tiny (both extents shrink).
  for (const auto& [m, k, n] :
       {std::tuple<i64, i64, i64>{70, 33, 1}, {3, 9, 5}, {10, 40, 2}}) {
    SCOPED_TRACE(m);
    expect_matches_reference(random_matrix(m, k, 30), random_matrix(k, n, 31),
                             gemm_fitted(m, n));
  }
}

// --- Fig. 2's ordering, as model predictions ---------------------------------

TEST(Gemm, Fig2OrderingCublasFastestMagmaSlowest) {
  const auto a = random_matrix(576, 576, 11);
  const auto b = random_matrix(576, 576, 12);
  sim::LaunchOptions opt;
  opt.sample_max_blocks = 2;

  auto time_of = [&](const GemmConfig& cfg) {
    sim::Device dev(sim::kepler_k40m());
    return gemm(dev, a, b, cfg, opt).launch.timing.seconds;
  };
  const double t_cublas = time_of(gemm_cublas_like());
  const double t_magma = time_of(gemm_magma_fermi());
  const double t_mod = time_of(gemm_magma_mod());

  EXPECT_LT(t_cublas, t_mod * 1.02);  // cublas-like fastest (or ties mod)
  EXPECT_LT(t_mod, t_magma);          // the paper's fix helps
  // The paper: MAGMA ~2.4x slower than cuBLAS on Kepler; the bank-width
  // component alone should put it at >= 1.5x in the model.
  EXPECT_GT(t_magma / t_cublas, 1.5);
  // And the fix saves a large fraction of MAGMA's time (paper: 36%).
  EXPECT_LT(t_mod / t_magma, 0.8);
}

TEST(Gemm, MagmaScalarKernelConflictFreeOnBothBankWidths) {
  // The MAGMA kernel's scalar fragment reads are conflict-free on Fermi
  // AND on Kepler — the Kepler penalty is not replays but that each
  // request cycle moves only half the available bank width, which shows up
  // as the instruction-count gap the mod variant closes (Fig2Ordering).
  const auto a = random_matrix(256, 256, 13);
  const auto b = random_matrix(256, 256, 14);
  sim::LaunchOptions opt;
  opt.sample_max_blocks = 2;

  sim::Device fermi(sim::fermi_m2090());
  const auto on_fermi = gemm(fermi, a, b, gemm_magma_fermi(), opt);
  EXPECT_LE(on_fermi.launch.stats.smem_replay_factor(), 1.05);

  sim::Device kepler(sim::kepler_k40m());
  const auto on_kepler = gemm(kepler, a, b, gemm_magma_fermi(), opt);
  EXPECT_LE(on_kepler.launch.stats.smem_replay_factor(), 1.05);
  // Identical kernel, near-identical request-cycle count on both (the
  // transpose padding is one bank word, whose size differs slightly): the
  // Kepler loss is bandwidth per cycle, not extra cycles per instruction.
  EXPECT_NEAR(static_cast<double>(on_kepler.launch.stats.smem_request_cycles),
              static_cast<double>(on_fermi.launch.stats.smem_request_cycles),
              0.05 * static_cast<double>(on_fermi.launch.stats.smem_request_cycles));

  // The mod (float2) variant halves the fragment instructions on Kepler.
  const auto mod = gemm(kepler, a, b, gemm_magma_mod(), opt);
  EXPECT_LT(static_cast<double>(mod.launch.stats.smem_request_cycles),
            0.7 * static_cast<double>(on_kepler.launch.stats.smem_request_cycles));
}

}  // namespace
}  // namespace kconv::kernels
