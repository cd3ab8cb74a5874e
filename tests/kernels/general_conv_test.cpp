// Functional, ablation and traffic tests for the paper's general-case
// kernel (Algorithm 2).
#include "src/kernels/general_conv.hpp"

#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/sim/sim.hpp"
#include "src/tensor/compare.hpp"
#include "src/tensor/conv_ref.hpp"

namespace kconv::kernels {
namespace {

struct GShape {
  i64 k, c, f, hi, wi;
  GeneralConvConfig cfg;
};

GeneralConvConfig small_cfg(i64 w, i64 h, i64 ftb, i64 wt, i64 ft, i64 csh) {
  GeneralConvConfig c;
  c.block_w = w;
  c.block_h = h;
  c.ftb = ftb;
  c.wt = wt;
  c.ft = ft;
  c.csh = csh;
  return c;
}

class GeneralConvCorrectness : public ::testing::TestWithParam<GShape> {};

TEST_P(GeneralConvCorrectness, MatchesReference) {
  const GShape s = GetParam();
  Rng rng(211);
  tensor::Tensor img = tensor::Tensor::image(s.c, s.hi, s.wi);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(s.f, s.c, s.k);
  flt.fill_random(rng);
  const tensor::Tensor ref = tensor::conv2d_reference(img, flt);

  sim::Device dev(sim::kepler_k40m());
  const auto run = general_conv(dev, img, flt, s.cfg);
  ASSERT_TRUE(run.output_valid);
  EXPECT_TRUE(tensor::allclose(run.output, ref, 2e-4, 2e-4))
      << tensor::diff(run.output, ref).max_abs;
}

GShape ablate(GShape s, bool pad, bool prefetch, i64 vec) {
  s.cfg.pad_filters = pad;
  s.cfg.prefetch = prefetch;
  s.cfg.vec_width = vec;
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeneralConvCorrectness,
    ::testing::Values(
        // Filter sizes of Fig. 8 (3, 5, 7) plus 1x1.
        GShape{3, 4, 8, 18, 20, small_cfg(16, 4, 8, 8, 4, 2)},
        GShape{5, 2, 16, 20, 20, small_cfg(8, 4, 16, 4, 8, 1)},
        GShape{7, 2, 8, 22, 22, small_cfg(8, 4, 8, 4, 4, 1)},
        GShape{1, 4, 8, 12, 12, small_cfg(8, 2, 8, 4, 4, 2)},
        // Sizes that do not divide the tile (edge predication).
        GShape{3, 2, 8, 17, 23, small_cfg(16, 4, 8, 8, 4, 2)},
        GShape{5, 3, 8, 25, 19, small_cfg(8, 4, 8, 4, 4, 3)},
        // CSH sweeps: 1, 2, 4 staged channels.
        GShape{3, 4, 8, 16, 16, small_cfg(8, 4, 8, 4, 4, 1)},
        GShape{3, 4, 8, 16, 16, small_cfg(8, 4, 8, 4, 4, 4)},
        // Multiple filter groups in grid X.
        GShape{3, 2, 16, 14, 14, small_cfg(8, 4, 8, 4, 4, 2)},
        // WT spanning multiple SM vec units, FT = n.
        GShape{3, 2, 4, 18, 34, small_cfg(16, 4, 4, 16, 2, 1)},
        // Ablations: unmatched, no padding, no prefetch, all off.
        ablate(GShape{3, 4, 8, 18, 20, small_cfg(16, 4, 8, 8, 4, 2)}, true,
               true, 1),
        ablate(GShape{3, 4, 8, 18, 20, small_cfg(16, 4, 8, 8, 4, 2)}, false,
               true, 0),
        ablate(GShape{5, 2, 16, 20, 20, small_cfg(8, 4, 16, 4, 8, 1)}, true,
               false, 0),
        ablate(GShape{3, 4, 8, 18, 20, small_cfg(16, 4, 8, 8, 4, 2)}, false,
               false, 1),
        // 16-byte vectors (n = 4), with and without the filter padding.
        ablate(GShape{3, 4, 8, 18, 20, small_cfg(16, 4, 8, 8, 4, 2)}, true,
               true, 4),
        ablate(GShape{3, 4, 8, 18, 20, small_cfg(16, 4, 8, 8, 4, 2)}, false,
               true, 4)));

TEST(GeneralConv, Table1ConfigsRunOnPaperLikeShapes) {
  Rng rng(5);
  for (const i64 k : {3, 5, 7}) {
    const auto cfg = table1_config(k);
    tensor::Tensor img = tensor::Tensor::image(4, 40, 70);
    img.fill_random(rng);
    tensor::Tensor flt =
        tensor::Tensor::filters(cfg.ftb, 4, k);  // one filter group
    flt.fill_random(rng);
    sim::Device dev(sim::kepler_k40m());
    const auto run = general_conv(dev, img, flt, cfg);
    ASSERT_TRUE(run.output_valid);
    EXPECT_TRUE(tensor::allclose(run.output,
                                 tensor::conv2d_reference(img, flt), 2e-4,
                                 2e-4))
        << "K=" << k;
  }
}

TEST(GeneralConv, Table1MatchesPaperValues) {
  const auto k3 = table1_config(3);
  EXPECT_EQ(k3.block_w, 32);
  EXPECT_EQ(k3.block_h, 4);
  EXPECT_EQ(k3.ftb, 64);
  EXPECT_EQ(k3.wt, 16);
  EXPECT_EQ(k3.ft, 4);
  EXPECT_EQ(k3.csh, 2);
  const auto k5 = table1_config(5);
  EXPECT_EQ(k5.block_w, 32);
  EXPECT_EQ(k5.block_h, 8);
  EXPECT_EQ(k5.ftb, 32);
  const auto k7 = table1_config(7);
  EXPECT_EQ(k7.block_w, 64);
  EXPECT_EQ(k7.block_h, 4);
  EXPECT_THROW(table1_config(4), Error);
}

TEST(GeneralConv, RejectsIndivisibleShapes) {
  sim::Device dev(sim::kepler_k40m());
  Rng rng(1);
  tensor::Tensor img = tensor::Tensor::image(3, 16, 16);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(8, 3, 3);
  flt.fill_random(rng);
  {
    auto cfg = small_cfg(8, 4, 8, 4, 4, 2);  // C=3 % CSH=2 != 0
    EXPECT_THROW(general_conv(dev, img, flt, cfg), Error);
  }
  {
    auto cfg = small_cfg(8, 4, 16, 4, 4, 1);  // F=8 % FTB=16 != 0
    EXPECT_THROW(general_conv(dev, img, flt, cfg), Error);
  }
  {
    auto cfg = small_cfg(8, 4, 8, 3, 4, 1);  // WT=3 not multiple of n=2
    EXPECT_THROW(general_conv(dev, img, flt, cfg), Error);
  }
  {
    auto cfg = small_cfg(10, 4, 8, 4, 4, 1);  // W=10 not multiple of 4
    EXPECT_THROW(general_conv(dev, img, flt, cfg), Error);
  }
  {
    auto cfg = small_cfg(8, 4, 8, 4, 3, 1);  // FTB=8 % FT=3 != 0
    EXPECT_THROW(general_conv(dev, img, flt, cfg), Error);
  }
}

// --- Ablation/traffic assertions from §4.2 -----------------------------------

tensor::Tensor test_image(i64 c, i64 n, u64 seed) {
  Rng rng(seed);
  tensor::Tensor t = tensor::Tensor::image(c, n, n);
  t.fill_random(rng);
  return t;
}

TEST(GeneralConv, FilterPaddingRemovesBankConflicts) {
  // The paper's Fig. 6 gray box: without padding, the transposed filter
  // stores hit one bank; the replay factor jumps.
  tensor::Tensor img = test_image(8, 20, 3);
  Rng rng(4);
  tensor::Tensor flt = tensor::Tensor::filters(32, 8, 3);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  auto cfg = small_cfg(16, 4, 32, 8, 4, 2);
  const auto padded = general_conv(dev, img, flt, cfg);
  cfg.pad_filters = false;
  const auto bare = general_conv(dev, img, flt, cfg);
  EXPECT_GT(bare.launch.stats.smem_replay_factor(),
            padded.launch.stats.smem_replay_factor() * 1.5);
  EXPECT_TRUE(tensor::allclose(padded.output, bare.output));
}

TEST(GeneralConv, PrefetchRemovesDependentPhases) {
  tensor::Tensor img = test_image(8, 20, 5);
  Rng rng(6);
  tensor::Tensor flt = tensor::Tensor::filters(8, 8, 3);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  auto cfg = small_cfg(16, 4, 8, 8, 4, 2);
  const auto with = general_conv(dev, img, flt, cfg);
  cfg.prefetch = false;
  const auto without = general_conv(dev, img, flt, cfg);
  // With prefetch: 1 dependent phase per block (initial fill). Without:
  // one per channel step.
  EXPECT_EQ(with.launch.stats.gm_dep_phases,
            with.launch.stats.blocks_executed);
  EXPECT_GT(without.launch.stats.gm_dep_phases,
            with.launch.stats.gm_dep_phases * 2);
  EXPECT_TRUE(tensor::allclose(with.output, without.output));
}

TEST(GeneralConv, SmemImageTrafficFollowsWtFormula) {
  // §4.2: image pixels read from SM per output = (WT+K-1)/WT per round,
  // so halving WT raises per-output SM image traffic according to
  // (WT+K-1)/(WT*K). We compare two WT settings against the closed form.
  tensor::Tensor img = test_image(4, 36, 9);
  Rng rng(8);
  tensor::Tensor flt = tensor::Tensor::filters(8, 4, 3);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  const i64 k = 3;

  auto measure = [&](i64 wt) {
    auto cfg = small_cfg(16, 4, 8, wt, 4, 2);
    const auto run = general_conv(dev, img, flt, cfg);
    // Count SM *load* bytes attributable to image rows: approximate by
    // lane bytes via instrs; instead use total request bytes and subtract
    // nothing — the filter-read traffic is identical across WT settings,
    // so the DIFFERENCE tracks the image term.
    return static_cast<double>(run.launch.stats.smem_bytes);
  };
  const double b16 = measure(16);
  const double b4 = measure(4);
  // Expected image-read ratio per §4.2: ((4+2)/(4*3)) / ((16+2)/(16*3)) =
  // 0.5/0.375 = 1.33x more image traffic at WT=4; with equal filter and
  // staging traffic the total ratio sits between 1 and 1.33.
  EXPECT_GT(b4, b16 * 1.02);
  EXPECT_LT(b4, b16 * 1.4);
  (void)k;
}

TEST(GeneralConv, GlobalImageTrafficNearOnePassPerChannelBlock) {
  // Each block stages each of its C channel tiles exactly once (plus
  // halo): GM image loads ~= blocks * C * (W+K-1)(H+K-1).
  tensor::Tensor img = test_image(8, 32, 10);
  Rng rng(10);
  tensor::Tensor flt = tensor::Tensor::filters(8, 8, 3);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  auto cfg = small_cfg(16, 4, 8, 8, 4, 2);
  const auto run = general_conv(dev, img, flt, cfg);

  const double blocks = 2.0 * 8.0;  // (30/16)->2 x (30/4)->8 spatial tiles
  const double img_px = blocks * 8 * (16 + 2) * (4 + 2);
  const double flt_px = blocks * 8.0 * 9 * 8;       // C*KK*FTB per block
  const double out_px = 8.0 * 30 * 30;              // stores
  const double expected_bytes = (img_px + flt_px + out_px) * 4.0;
  const double measured =
      static_cast<double>(run.launch.stats.gm_bytes_useful);
  EXPECT_NEAR(measured / expected_bytes, 1.0, 0.15);
}

TEST(GeneralConv, UnmatchedNeedsMoreSmemCyclesPerByte) {
  tensor::Tensor img = test_image(8, 24, 11);
  Rng rng(12);
  tensor::Tensor flt = tensor::Tensor::filters(8, 8, 3);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  auto cfg = small_cfg(16, 4, 8, 8, 4, 2);
  const auto matched = general_conv(dev, img, flt, cfg);
  cfg.vec_width = 1;
  const auto unmatched = general_conv(dev, img, flt, cfg);
  const double cm = static_cast<double>(matched.launch.stats.smem_bytes) /
                    matched.launch.stats.smem_request_cycles;
  const double cu = static_cast<double>(unmatched.launch.stats.smem_bytes) /
                    unmatched.launch.stats.smem_request_cycles;
  EXPECT_GT(cm, cu * 1.5);  // ~2x in the limit; staging dilutes slightly
}

}  // namespace
}  // namespace kconv::kernels
