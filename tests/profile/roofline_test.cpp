// Roofline attribution against the paper's closed-form bounds
// (docs/MODEL.md §7): the special case's one-GM-read-per-pixel bound (§3),
// the general case's SM loads-per-FMA bound (§4), and the implicit-GEMM
// baseline's exact staging model.
#include <gtest/gtest.h>

#include <string>

#include "src/kernels/general_conv.hpp"
#include "src/kernels/implicit_gemm_conv.hpp"
#include "src/kernels/special_conv.hpp"
#include "src/profile/roofline.hpp"
#include "src/tensor/tensor.hpp"

namespace kconv::profile {
namespace {

constexpr i64 kHi = 20, kWi = 300, kK = 3;

kernels::KernelRun profiled_special(sim::Device& dev) {
  Rng rng(7);
  tensor::Tensor img = tensor::Tensor::image(1, kHi, kWi);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(8, 1, kK);
  flt.fill_random(rng);
  sim::LaunchOptions opt;
  opt.profile = true;
  return kernels::special_conv(dev, img, flt, {}, opt);
}

TEST(Roofline, SpecialCaseReproducesOneReadPerPixelBound) {
  sim::Device dev(sim::kepler_k40m());
  const auto run = profiled_special(dev);
  const RooflineReport r = attribute_roofline(dev.arch(), run.launch.profile);

  ASSERT_EQ(r.hints.kind, RooflineHints::Kind::Special);
  EXPECT_EQ(r.hints.k, static_cast<u32>(kK));
  // Paper §3: the lower bound is one 4-byte GM read per input pixel.
  EXPECT_DOUBLE_EQ(r.hints.gm_load_bound_bytes, 4.0 * kHi * kWi);

  // The kernel meets the bound modulo the inter-tile halo: every in-tile
  // pixel is staged exactly once, only halo columns/rows re-read. For the
  // default 256x8 tile on a 20x300 image the halo overhead stays well
  // under (1 + (K-1+n)/W_tail)(1 + (K-1)/H_tail).
  EXPECT_GE(r.gm_load_ratio, 1.0);
  EXPECT_LE(r.gm_load_ratio, 1.35);
  EXPECT_GT(r.gm_load_bytes, 0.0);
}

TEST(Roofline, SpecialCaseTextReportNamesCaseAndRatio) {
  sim::Device dev(sim::kepler_k40m());
  const auto run = profiled_special(dev);
  const std::string text = format_profile(dev.arch(), run.launch.profile);
  EXPECT_NE(text.find("--- profile (per phase) ---"), std::string::npos);
  EXPECT_NE(text.find("roofline (special case):"), std::string::npos);
  EXPECT_NE(text.find("GM staging reads"), std::string::npos);
  // Every named phase of the annotated kernel shows up with a bound label.
  for (const char* phase :
       {"gm_load", "smem_stage", "sync", "compute", "writeback"}) {
    EXPECT_NE(text.find(phase), std::string::npos) << phase;
  }
  for (const PhaseAttribution& a :
       attribute_roofline(dev.arch(), run.launch.profile).phases) {
    EXPECT_TRUE(a.bound == "gm-bound" || a.bound == "sm-bound" ||
                a.bound == "bank-conflict-bound" || a.bound == "compute-bound" ||
                a.bound == "const-bound" || a.bound == "sync-bound" ||
                a.bound == "idle")
        << a.bound;
    EXPECT_GE(a.efficiency, 0.0);
    EXPECT_LE(a.efficiency, 1.0);
  }
}

TEST(Roofline, GeneralCaseSmemLoadsPerFmaMeetBound) {
  Rng rng(11);
  tensor::Tensor img = tensor::Tensor::image(4, 12, 66);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(64, 4, kK);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  sim::LaunchOptions opt;
  opt.profile = true;
  const auto run = kernels::general_conv(dev, img, flt, {}, opt);
  const RooflineReport r = attribute_roofline(dev.arch(), run.launch.profile);

  ASSERT_EQ(r.hints.kind, RooflineHints::Kind::General);
  const kernels::GeneralConvConfig cfg;  // the launch used the defaults
  EXPECT_EQ(r.hints.wt, static_cast<u32>(cfg.wt));
  EXPECT_EQ(r.hints.ft, static_cast<u32>(cfg.ft));

  // Paper §4: each thread's row of WT+K-1 staged pixels serves K rounds of
  // WT FMAs across FT filters, plus one filter element per round.
  const double wt = static_cast<double>(cfg.wt);
  const double ft = static_cast<double>(cfg.ft);
  const double bound = (wt + kK - 1) / (kK * ft * wt) + 1.0 / wt;
  EXPECT_DOUBLE_EQ(r.hints.smem_load_elems_per_fma_bound, bound);
  EXPECT_GE(r.smem_load_elems_per_fma, bound * 0.999);
  EXPECT_LE(r.smem_load_elems_per_fma, bound * 1.5);

  // Headline §4 SM-traffic reduction ratio (WT+K-1)/(WT*K).
  EXPECT_DOUBLE_EQ(r.sm_reduction_bound, (wt + kK - 1) / (wt * kK));
  // GM staging stays within a halo+filter-reload factor of its bound too.
  EXPECT_GE(r.gm_load_ratio, 1.0);
  EXPECT_LE(r.gm_load_ratio, 2.0);

  const std::string text = format_profile(dev.arch(), run.launch.profile);
  EXPECT_NE(text.find("roofline (general case):"), std::string::npos);
  EXPECT_NE(text.find("SM loads/FMA"), std::string::npos);
  EXPECT_NE(text.find("(WT+K-1)/(WT*K)"), std::string::npos);
}

TEST(Roofline, ImplicitGemmStagingModelIsExact) {
  Rng rng(5);
  tensor::Tensor img = tensor::Tensor::image(2, 14, 30);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(16, 2, kK);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  sim::LaunchOptions opt;
  opt.profile = true;
  const auto run = kernels::implicit_gemm_conv(dev, img, flt, {}, opt);
  const RooflineReport r = attribute_roofline(dev.arch(), run.launch.profile);

  ASSERT_EQ(r.hints.kind, RooflineHints::Kind::ImplicitGemm);
  // The hint models exactly what the staging loops read (predicated-off
  // lanes count zero bytes), so measured/bound is 1 to rounding.
  EXPECT_GT(r.hints.gm_load_bound_bytes, 0.0);
  EXPECT_NEAR(r.gm_load_ratio, 1.0, 1e-6);

  const std::string text = format_profile(dev.arch(), run.launch.profile);
  EXPECT_NE(text.find("roofline (implicit_gemm case):"), std::string::npos);
}

// smem_load_elems_per_fma divides all of the compute phase's SM lane bytes
// by its FMAs, which counts only loads because no kernel stores to SM from
// its compute scope. Pin that for every kernel that gives roofline hints.
TEST(Roofline, ComputePhaseIssuesNoSmemStores) {
  Rng rng(3);
  tensor::Tensor img = tensor::Tensor::image(4, 12, 66);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(64, 4, kK);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  sim::LaunchOptions opt;
  opt.profile = true;
  const kernels::KernelRun runs[] = {
      profiled_special(dev),
      kernels::general_conv(dev, img, flt, {}, opt),
      kernels::implicit_gemm_conv(dev, img, flt, {}, opt),
  };
  for (const kernels::KernelRun& run : runs) {
    const sim::KernelStats& cp = run.launch.profile.phases.at(Phase::Compute);
    EXPECT_GT(cp.fma_lane_ops, 0u);
    EXPECT_EQ(cp.smem_store_instrs, 0u);
    EXPECT_EQ(cp.smem_store_request_cycles, 0u);
    EXPECT_DOUBLE_EQ(
        attribute_roofline(dev.arch(), run.launch.profile)
            .smem_load_elems_per_fma,
        static_cast<double>(cp.smem_lane_bytes) / 4.0 / cp.fma_lane_ops);
  }
}

TEST(Roofline, PipeCyclesTotalIsMaxOfPipes) {
  sim::Device dev(sim::kepler_k40m());
  const auto run = profiled_special(dev);
  for (u32 i = 0; i < kNumPhases; ++i) {
    const sim::KernelStats& s = run.launch.profile.phases.p[i];
    if (s.empty()) continue;
    const PipeCycles p = phase_pipe_cycles(dev.arch(), s);
    EXPECT_GE(p.total, p.compute);
    EXPECT_GE(p.total, p.issue);
    EXPECT_GE(p.total, p.smem);
    EXPECT_GE(p.total, p.gmem);
    EXPECT_GE(p.total, p.cmem);
    EXPECT_GE(p.total, p.sync);
    EXPECT_GT(p.total, 0.0);
  }
}

}  // namespace
}  // namespace kconv::profile
