// Diagnostic launches execute every block (docs/MODEL.md §5b, §6, §7).
//
// A launch with hazard_check or profile set ignores replay and the plan
// store. The contract under test, over {hazard_check, profile} x {1, 3
// threads} x {replay, replay + plan store} on special and general shapes:
//   - no block replays, and an attached store stays empty with status
//     "disabled";
//   - the launch equals the same diagnostic launch with replay off: output
//     bytes, every counter at StatsLevel::Exact, hazard findings, and the
//     phase profile per phase plus the block timelines.
#include <cstring>
#include <filesystem>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/kernels/general_conv.hpp"
#include "src/kernels/special_conv.hpp"
#include "src/sim/device.hpp"
#include "src/sim/plan_cache.hpp"
#include "tests/support/hazard_match.hpp"
#include "tests/support/stats_match.hpp"

namespace kconv {
namespace {

namespace fs = std::filesystem;

enum class Diagnostic { HazardCheck, Profile };
enum class Shape { Special, General };

struct DiagCase {
  Diagnostic diag;
  u32 threads;
  bool plan_store;
  Shape shape;
};

std::string name_of(const DiagCase& c) {
  return std::string(c.diag == Diagnostic::HazardCheck ? "Check" : "Profile") +
         "_T" + std::to_string(c.threads) +
         (c.plan_store ? "_ReplayStore" : "_Replay") +
         (c.shape == Shape::Special ? "_Special" : "_General");
}

std::string case_name(const testing::TestParamInfo<DiagCase>& info) {
  return name_of(info.param);
}

void PrintTo(const DiagCase& c, std::ostream* os) { *os << name_of(c); }

kernels::KernelRun run(Shape shape, const sim::LaunchOptions& opt) {
  sim::Device dev(sim::kepler_k40m());
  if (shape == Shape::Special) {
    Rng rng(7);
    tensor::Tensor img = tensor::Tensor::image(1, 40, 300);
    img.fill_random(rng);
    tensor::Tensor flt = tensor::Tensor::filters(8, 1, 3);
    flt.fill_random(rng);
    return kernels::special_conv(dev, img, flt, {}, opt);
  }
  Rng rng(11);
  tensor::Tensor img = tensor::Tensor::image(4, 24, 66);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(64, 4, 3);
  flt.fill_random(rng);
  return kernels::general_conv(dev, img, flt, {}, opt);
}

class DiagnosticLaunch : public testing::TestWithParam<DiagCase> {};

TEST_P(DiagnosticLaunch, ExecutesEveryBlockAndMatchesReplayOff) {
  const DiagCase& c = GetParam();
  sim::LaunchOptions base;
  base.num_threads = c.threads;

  // The shape has congruent blocks: without a diagnostic, replay engages.
  sim::LaunchOptions plain = base;
  plain.replay = true;
  ASSERT_GT(run(c.shape, plain).launch.blocks_replayed, 0u);

  if (c.diag == Diagnostic::HazardCheck) {
    base.hazard_check = true;
  } else {
    base.profile = true;
  }
  const kernels::KernelRun ref = run(c.shape, base);

  const fs::path dir = fs::temp_directory_path() /
                       ("kconv_diag_" + name_of(c));
  fs::remove_all(dir);
  fs::create_directories(dir);
  sim::PlanCache plans(dir.string());
  sim::LaunchOptions opt = base;
  opt.replay = true;
  if (c.plan_store) opt.plan_cache = &plans;
  const kernels::KernelRun got = run(c.shape, opt);

  EXPECT_EQ(got.launch.blocks_replayed, 0u);
  EXPECT_EQ(got.launch.blocks_executed, got.launch.blocks_total);
  if (c.plan_store) {
    EXPECT_EQ(got.launch.plan_cache_status, "disabled");
    EXPECT_FALSE(got.launch.plan_cache_hit);
  }
  EXPECT_TRUE(fs::is_empty(dir));

  ASSERT_TRUE(ref.output_valid);
  ASSERT_TRUE(got.output_valid);
  const std::span<const float> a = ref.output.flat();
  const std::span<const float> b = got.output.flat();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
  EXPECT_TRUE(
      test::stats_match(ref.launch.stats, got.launch.stats, StatsLevel::Exact));

  if (c.diag == Diagnostic::HazardCheck) {
    EXPECT_EQ(got.launch.analysis.blocks_checked, got.launch.blocks_total);
    EXPECT_TRUE(test::hazards_match(ref.launch.analysis, got.launch.analysis));
  } else {
    ASSERT_TRUE(got.launch.profile.enabled);
    for (u32 p = 0; p < profile::kNumPhases; ++p) {
      SCOPED_TRACE(profile::phase_name(static_cast<profile::Phase>(p)));
      EXPECT_TRUE(test::stats_match(ref.launch.profile.phases.p[p],
                                    got.launch.profile.phases.p[p],
                                    StatsLevel::Exact));
    }
    ASSERT_FALSE(ref.launch.profile.timelines.empty());
    EXPECT_TRUE(test::timelines_match(ref.launch.profile.timelines,
                                      got.launch.profile.timelines,
                                      StatsLevel::Exact));
  }
  fs::remove_all(dir);
}

std::vector<DiagCase> all_cases() {
  std::vector<DiagCase> out;
  for (const Diagnostic d : {Diagnostic::HazardCheck, Diagnostic::Profile}) {
    for (const u32 threads : {1u, 3u}) {
      for (const bool store : {false, true}) {
        for (const Shape s : {Shape::Special, Shape::General}) {
          out.push_back({d, threads, store, s});
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Matrix, DiagnosticLaunch,
                         testing::ValuesIn(all_cases()), case_name);

}  // namespace
}  // namespace kconv
