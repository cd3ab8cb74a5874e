// The seeded-defect corpus (docs/MODEL.md §6): each defect is a shipping
// kernel with exactly one memory-efficiency mistake re-introduced, and must
// trip exactly its expected kconv-check diagnostic — while the shipping
// configuration of the same kernel passes clean.
#include <gtest/gtest.h>

#include "missing_sync_kernel.hpp"
#include "src/kernels/general_conv.hpp"
#include "src/kernels/special_conv.hpp"
#include "src/tensor/tensor.hpp"
#include "tests/support/hazard_match.hpp"

namespace kconv::analysis {
namespace {

bool has_lint(const AnalysisReport& rep, LintKind k) {
  for (const LintFinding& f : rep.lints) {
    if (f.kind == k) return true;
  }
  return false;
}

bool has_hazard(const AnalysisReport& rep, HazardKind k) {
  for (const HazardRecord& r : rep.hazards) {
    if (r.kind == k) return true;
  }
  return false;
}

tensor::Tensor random_image(i64 c, i64 h, i64 w, u64 seed = 1) {
  Rng rng(seed);
  tensor::Tensor t = tensor::Tensor::image(c, h, w);
  t.fill_random(rng);
  return t;
}

tensor::Tensor random_filters(i64 f, i64 c, i64 k, u64 seed = 2) {
  Rng rng(seed);
  tensor::Tensor t = tensor::Tensor::filters(f, c, k);
  t.fill_random(rng);
  return t;
}

// --- Defect 1: missing __syncthreads in the special kernel ----------------
// Algorithm 1's staging barrier removed: warps read right-halo pixels the
// neighbouring warp stages, in the same epoch. Blocks clipped to one active
// warp (right image edge) cannot race — only full-width blocks report.

sim::LaunchOptions check_opts() {
  sim::LaunchOptions opt;
  opt.hazard_check = true;
  opt.lint = true;
  return opt;
}

/// 140 x 14 image, 128-wide tiles: grid {2, 3}; the x=0 blocks run two
/// warps (race), the x=1 blocks have 6 active lanes in one warp (clean).
sim::LaunchResult run_defect(sim::Device& dev, sim::LaunchOptions opt) {
  const tensor::Tensor img = random_image(1, 14, 140);
  const tensor::Tensor flt = random_filters(4, 1, 3);
  return analysis_tests::run_missing_sync(dev, img, flt, 128, 4, opt);
}

TEST(SeededDefects, MissingSyncTripsRaceDetector) {
  sim::Device dev(sim::kepler_k40m());
  const auto res = run_defect(dev, check_opts());

  EXPECT_TRUE(res.analysis.hazard_checked);
  EXPECT_FALSE(res.analysis.clean());
  EXPECT_GT(res.analysis.races_total, 0u);
  EXPECT_EQ(res.analysis.gm_overlaps_total, 0u);
  EXPECT_TRUE(has_hazard(res.analysis, HazardKind::SmemRaw));
  EXPECT_EQ(res.analysis.blocks_checked, 6u);
  // Only the full-width (two-warp) tiles can race.
  for (const HazardRecord& r : res.analysis.hazards) {
    EXPECT_EQ(r.block.x, 0u);
    EXPECT_NE(r.first.warp, r.second.warp);
  }
}

TEST(SeededDefects, MissingSyncDetectedIdenticallyInParallel) {
  sim::Device dev(sim::kepler_k40m());
  const auto serial = run_defect(dev, check_opts());
  auto opt = check_opts();
  opt.num_threads = 3;
  const auto parallel = run_defect(dev, opt);
  EXPECT_EQ(serial.analysis.races_total, parallel.analysis.races_total);
  EXPECT_EQ(serial.analysis.hazards.size(), parallel.analysis.hazards.size());
}

TEST(SeededDefects, RacedClassFallsBackToFullExecutionUnderReplay) {
  sim::Device dev(sim::kepler_k40m());

  // Without checking, four blocks replay: grid {2, 3} splits into the
  // {x=0} and {x=1} classes (three congruent blocks each).
  auto plain = sim::LaunchOptions{};
  plain.replay = true;
  const auto unchecked = run_defect(dev, plain);
  EXPECT_EQ(unchecked.blocks_replayed, 4u);

  // With checking, replay stays off: every block executes under the
  // checker, so the racy x=0 class reports each block's own races, exactly
  // as a checked launch without replay does.
  auto opt = check_opts();
  opt.replay = true;
  const auto checked = run_defect(dev, opt);
  EXPECT_EQ(checked.blocks_replayed, 0u);
  EXPECT_EQ(checked.analysis.blocks_checked, 6u);

  const auto direct = run_defect(dev, check_opts());
  EXPECT_GT(checked.analysis.races_total, 0u);
  EXPECT_TRUE(test::hazards_match(checked.analysis, direct.analysis));
}

// --- Defect 2: transposed-filter padding removed (§4.2 gray box) ----------

TEST(SeededDefects, PadRemovedTripsBankConflictLint) {
  sim::Device dev(sim::kepler_k40m());
  const tensor::Tensor img = random_image(4, 12, 66);
  const tensor::Tensor flt = random_filters(64, 4, 3);

  kernels::GeneralConvConfig defect;
  defect.pad_filters = false;
  const auto res =
      kernels::general_conv(dev, img, flt, defect, check_opts());
  EXPECT_FALSE(res.launch.analysis.clean());
  ASSERT_TRUE(has_lint(res.launch.analysis, LintKind::BankConflictReplays));
  for (const LintFinding& f : res.launch.analysis.lints) {
    if (f.kind != LintKind::BankConflictReplays) continue;
    EXPECT_EQ(f.severity, Severity::Warning);
    // The unpadded transposed store serializes most of the warp: far above
    // any boundary-conflict noise.
    EXPECT_GT(f.value, 8.0);
  }

  kernels::GeneralConvConfig shipping;
  const auto clean =
      kernels::general_conv(dev, img, flt, shipping, check_opts());
  EXPECT_TRUE(clean.launch.analysis.clean());
  EXPECT_FALSE(has_lint(clean.launch.analysis, LintKind::BankConflictReplays));
}

// --- Defect 3: scalar-ized loads (W_CD < W_SMB, §2.1) ---------------------

TEST(SeededDefects, ScalarizedLoadsTripBankWidthLint) {
  sim::Device dev(sim::kepler_k40m());
  const tensor::Tensor img = random_image(1, 12, 140);
  const tensor::Tensor flt = random_filters(8, 1, 3);

  kernels::SpecialConvConfig defect;
  defect.vec_width = 1;  // scalar floats on 8-byte banks
  const auto res =
      kernels::special_conv(dev, img, flt, defect, check_opts());
  EXPECT_FALSE(res.launch.analysis.clean());
  EXPECT_TRUE(has_lint(res.launch.analysis, LintKind::BankWidthMismatch));
  EXPECT_EQ(res.launch.analysis.races_total, 0u);

  kernels::SpecialConvConfig shipping;  // vec_width 0 = match the bank width
  const auto clean =
      kernels::special_conv(dev, img, flt, shipping, check_opts());
  EXPECT_TRUE(clean.launch.analysis.clean());
  EXPECT_FALSE(has_lint(clean.launch.analysis, LintKind::BankWidthMismatch));
}

// --- Shipping kernels stay clean under --check ----------------------------

TEST(SeededDefects, ShippingKernelsPassCheckClean) {
  sim::Device dev(sim::kepler_k40m());
  {
    const auto res = kernels::special_conv(dev, random_image(1, 12, 140),
                                           random_filters(8, 1, 3), {},
                                           check_opts());
    EXPECT_TRUE(res.launch.analysis.clean());
    EXPECT_TRUE(res.launch.analysis.hazard_checked);
    EXPECT_TRUE(res.launch.analysis.linted);
  }
  {
    const auto res = kernels::general_conv(dev, random_image(4, 12, 66),
                                           random_filters(64, 4, 3), {},
                                           check_opts());
    EXPECT_TRUE(res.launch.analysis.clean());
  }
}

}  // namespace
}  // namespace kconv::analysis
