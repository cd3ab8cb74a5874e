// The legality probe agrees with the runner (and the xray describer): for
// every kernel family, over a seeded sweep that mixes legal and illegal
// configurations, the plan's error is empty exactly when the runner
// launches, and a rejecting runner or describer throws that very message.
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/kernels/general_conv.hpp"
#include "src/kernels/implicit_gemm_conv.hpp"
#include "src/kernels/short_dtype_conv.hpp"
#include "src/kernels/special_conv.hpp"
#include "src/sim/sim.hpp"

namespace kconv::kernels {
namespace {

tensor::Tensor random_tensor(i64 n, i64 c, i64 h, i64 w, Rng& rng) {
  tensor::Tensor t(n, c, h, w);
  t.fill_random(rng);
  return t;
}

template <typename T>
T pick(Rng& rng, std::initializer_list<T> xs) {
  return *(xs.begin() + rng.below(xs.size()));
}

/// One sampled block keeps each legal launch cheap.
sim::LaunchOptions one_block() {
  sim::LaunchOptions o;
  o.sample_max_blocks = 1;
  return o;
}

/// `call` throws exactly when `probe` is non-empty, and then with the
/// probe's message. Returns whether the probe accepted.
bool agrees(const std::string& probe, const std::function<void()>& call,
            const std::string& what) {
  try {
    call();
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("kconv error: " + probe + " [", 0),
              0u)
        << what << ": probe '" << probe << "' but threw " << e.what();
    return false;
  }
  EXPECT_EQ(probe, "") << what << ": probe rejected but the call succeeded";
  return true;
}

/// Legal and illegal counts over one family's sweep: both must occur.
struct Mix {
  int legal = 0, illegal = 0;
  void add(bool ok) { ++(ok ? legal : illegal); }
};

TEST(PlanAgreement, SpecialProbeMatchesRunnerAndDescriber) {
  const sim::Arch arch = sim::kepler_k40m();
  Rng rng(11);
  Mix mix;
  for (int i = 0; i < 60; ++i) {
    const i64 k = pick<i64>(rng, {1, 2, 3, 5, 7, 9});
    const i64 f = pick<i64>(rng, {1, 3, 8, 330, 1400});
    const i64 hi = 1 + static_cast<i64>(rng.below(24));
    const i64 wi = 1 + static_cast<i64>(rng.below(40));
    const SpecialConvConfig cfg{pick<i64>(rng, {2, 4, 12, 16, 64, 2048}),
                                pick<i64>(rng, {0, 1, 4}),
                                pick<i64>(rng, {0, 1, 2, 3, 4, 8})};
    const bool fused = rng.below(2) == 1;
    const std::string probe = special_conv_check(arch, k, f, hi, wi, cfg,
                                                 fused);
    const std::string what = strf("k=%lld f=%lld %lldx%lld fused=%d",
                                  static_cast<long long>(k),
                                  static_cast<long long>(f),
                                  static_cast<long long>(hi),
                                  static_cast<long long>(wi), fused ? 1 : 0);
    const auto in = random_tensor(1, 1, hi, wi, rng);
    const auto flt = random_tensor(f, 1, k, k, rng);
    const std::vector<float> bias(fused ? static_cast<std::size_t>(f) : 0,
                                  0.5f);
    sim::Device dev(arch);
    mix.add(agrees(probe, [&] {
      special_conv(dev, in, flt, cfg, one_block(), bias);
    }, what));
    agrees(probe, [&] { special_conv_xray(arch, k, f, hi, wi, cfg, fused); },
           what + " (xray)");
  }
  EXPECT_GT(mix.legal, 5);
  EXPECT_GT(mix.illegal, 5);
}

TEST(PlanAgreement, SpecialFusedBiasCountsAgainstConstantMemory) {
  // 330 7x7 filters fit in 64 KiB (64 680 B); with their fused bias
  // (66 000 B) they do not — the probe, describer and runner all say so.
  const sim::Arch arch = sim::kepler_k40m();
  const SpecialConvConfig cfg{};
  EXPECT_EQ(special_conv_check(arch, 7, 330, 16, 16, cfg), "");
  const std::string probe = special_conv_check(arch, 7, 330, 16, 16, cfg,
                                               /*fused=*/true);
  EXPECT_EQ(probe,
            "filters + fused bias need 66000 B of constant memory "
            "(capacity 65536)");
  Rng rng(3);
  const auto in = random_tensor(1, 1, 16, 16, rng);
  const auto flt = random_tensor(330, 1, 7, 7, rng);
  const std::vector<float> bias(330, 0.25f);
  sim::Device dev(arch);
  EXPECT_FALSE(agrees(probe, [&] {
    special_conv(dev, in, flt, cfg, one_block(), bias);
  }, "fused K=7 F=330"));
  EXPECT_FALSE(agrees(probe, [&] {
    special_conv_xray(arch, 7, 330, 16, 16, cfg, true);
  }, "fused K=7 F=330 (xray)"));
}

TEST(PlanAgreement, ShortDtypeProbeMatchesRunner) {
  const sim::Arch arch = sim::kepler_k40m();
  Rng rng(12);
  Mix mix;
  for (int i = 0; i < 60; ++i) {
    const DType dt = pick<DType>(rng, {DType::F16, DType::I8});
    const i64 k = pick<i64>(rng, {1, 3, 5, 8});
    const i64 f = pick<i64>(rng, {1, 4, 1400});
    const i64 hi = 1 + static_cast<i64>(rng.below(20));
    const i64 wi = 1 + static_cast<i64>(rng.below(40));
    const ShortDtypeConvConfig cfg{pick<i64>(rng, {4, 12, 16, 32, 2048}),
                                   pick<i64>(rng, {0, 2, 4}),
                                   pick<i64>(rng, {0, 1, 2, 3, 4, 8}), dt};
    const std::string probe =
        plan_special(arch, k, f, hi, wi,
                     {cfg.block_w, cfg.block_h, cfg.vec_width}, false, dt)
            .error;
    const auto in = random_tensor(1, 1, hi, wi, rng);
    const auto flt = random_tensor(f, 1, k, k, rng);
    sim::Device dev(arch);
    mix.add(agrees(probe, [&] {
      short_dtype_conv(dev, in, flt, cfg, one_block());
    }, strf("%s k=%lld %lldx%lld", dtype_name(dt), static_cast<long long>(k),
            static_cast<long long>(hi), static_cast<long long>(wi))));
  }
  EXPECT_GT(mix.legal, 5);
  EXPECT_GT(mix.illegal, 5);
}

TEST(PlanAgreement, ShortDtypeRejectsAnImageSmallerThanTheFilter) {
  Rng rng(4);
  const auto in = random_tensor(1, 1, 2, 2, rng);
  const auto flt = random_tensor(2, 1, 3, 3, rng);
  sim::Device dev(sim::kepler_k40m());
  EXPECT_FALSE(agrees("image smaller than the filter", [&] {
    short_dtype_conv(dev, in, flt, {});
  }, "2x2 image, 3x3 filter"));
}

TEST(PlanAgreement, GeneralProbeMatchesRunnerAndDescriber) {
  const sim::Arch arch = sim::kepler_k40m();
  Rng rng(13);
  Mix mix;
  for (int i = 0; i < 60; ++i) {
    const i64 k = pick<i64>(rng, {1, 3, 5, 9});
    const i64 c = pick<i64>(rng, {1, 2, 3});
    const i64 f = pick<i64>(rng, {8, 12, 16});
    const i64 hi = 2 + static_cast<i64>(rng.below(20));
    const i64 wi = 2 + static_cast<i64>(rng.below(24));
    GeneralConvConfig cfg;
    cfg.block_w = pick<i64>(rng, {6, 8, 16, 32});
    cfg.block_h = pick<i64>(rng, {1, 2, 4});
    cfg.ftb = pick<i64>(rng, {4, 8});
    cfg.wt = pick<i64>(rng, {2, 4, 8, 32});
    cfg.ft = pick<i64>(rng, {2, 4});
    cfg.csh = pick<i64>(rng, {1, 2});
    cfg.vec_width = pick<i64>(rng, {0, 1, 2, 3});
    cfg.pad_filters = rng.below(2) == 1;
    cfg.prefetch = rng.below(2) == 1;
    const bool fused = rng.below(2) == 1;
    const std::string probe = general_conv_check(arch, k, c, f, hi, wi, cfg);
    const std::string what = strf("k=%lld c=%lld f=%lld %lldx%lld",
                                  static_cast<long long>(k),
                                  static_cast<long long>(c),
                                  static_cast<long long>(f),
                                  static_cast<long long>(hi),
                                  static_cast<long long>(wi));
    const auto in = random_tensor(1, c, hi, wi, rng);
    const auto flt = random_tensor(f, c, k, k, rng);
    const std::vector<float> bias(fused ? static_cast<std::size_t>(f) : 0,
                                  0.5f);
    sim::Device dev(arch);
    mix.add(agrees(probe, [&] {
      general_conv(dev, in, flt, cfg, one_block(), bias);
    }, what));
    agrees(probe, [&] {
      general_conv_xray(arch, k, c, f, hi, wi, cfg, fused);
    }, what + " (xray)");
  }
  EXPECT_GT(mix.legal, 5);
  EXPECT_GT(mix.illegal, 5);
}

TEST(PlanAgreement, ImplicitGemmProbeMatchesRunnerAndDescriber) {
  const sim::Arch arch = sim::kepler_k40m();
  Rng rng(14);
  Mix mix;
  for (int i = 0; i < 60; ++i) {
    const i64 k = pick<i64>(rng, {1, 3, 5});
    const i64 c = pick<i64>(rng, {1, 2, 3});
    const i64 f = pick<i64>(rng, {4, 8, 16});
    const i64 hi = 2 + static_cast<i64>(rng.below(16));
    const i64 wi = 2 + static_cast<i64>(rng.below(16));
    ImplicitGemmConfig cfg;
    cfg.bm = pick<i64>(rng, {0, 8, 16, 64});
    cfg.bn = pick<i64>(rng, {8, 16, 64});
    cfg.bk = pick<i64>(rng, {4, 8, 32});
    cfg.tm = pick<i64>(rng, {1, 2, 4, 9});
    cfg.tn = pick<i64>(rng, {2, 4, 8});
    cfg.vec_width = pick<i64>(rng, {0, 1, 2, 3});
    cfg.prefetch = rng.below(2) == 1;
    const std::string probe = implicit_gemm_check(arch, k, c, f, hi, wi, cfg);
    const std::string what = strf("k=%lld c=%lld f=%lld %lldx%lld",
                                  static_cast<long long>(k),
                                  static_cast<long long>(c),
                                  static_cast<long long>(f),
                                  static_cast<long long>(hi),
                                  static_cast<long long>(wi));
    const auto in = random_tensor(1, c, hi, wi, rng);
    const auto flt = random_tensor(f, c, k, k, rng);
    sim::Device dev(arch);
    mix.add(agrees(probe, [&] {
      implicit_gemm_conv(dev, in, flt, cfg, one_block());
    }, what));
    agrees(probe, [&] { implicit_gemm_xray(arch, k, c, f, hi, wi, cfg); },
           what + " (xray)");
  }
  EXPECT_GT(mix.legal, 5);
  EXPECT_GT(mix.illegal, 5);
}

}  // namespace
}  // namespace kconv::kernels
