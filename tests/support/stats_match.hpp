// gtest adapters for the counter tables (docs/MODEL.md §1).
#pragma once

#include <algorithm>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/strutil.hpp"
#include "src/profile/collector.hpp"
#include "src/sim/stats.hpp"

namespace kconv::test {

/// EXPECT_TRUE(stats_match(a, b, level)): stats_mismatches is empty, else
/// the failure lists one "field: a=X b=Y" line per differing counter.
template <typename S>
::testing::AssertionResult stats_match(const S& a, const S& b,
                                       StatsLevel level) {
  const auto mismatches = stats_mismatches(a, b, level);
  if (mismatches.empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << join(mismatches, "\n");
}

/// The counters only a launch is charged (docs/MODEL.md §7): per-warp
/// instruction counts and maxima, barrier segments, divergence replays and
/// block counts. Every phase keeps them 0.
inline constexpr std::string_view kLaunchOnlyCounters[] = {
    "fma_warp_instrs", "alu_warp_instrs", "max_warp_instrs",
    "gm_phases",       "gm_dep_phases",   "divergent_retires",
    "blocks_executed"};

/// EXPECT_TRUE(sums_match(phases.total(), stats)): every counter a phase is
/// charged sums to the launch's value, and every launch-only counter to 0.
inline ::testing::AssertionResult sums_match(const sim::KernelStats& sum,
                                             const sim::KernelStats& s) {
  std::string bad;
  std::size_t launch_only = 0;
  for (const auto& c : sim::kKernelCounters) {
    const bool only = std::ranges::find(kLaunchOnlyCounters, c.name) !=
                      std::end(kLaunchOnlyCounters);
    launch_only += only;
    const u64 want = only ? 0 : s.*c.member;
    if (sum.*c.member != want) {
      bad += strf("%s: phases=%llu want=%llu\n", c.name,
                  static_cast<unsigned long long>(sum.*c.member),
                  static_cast<unsigned long long>(want));
    }
  }
  if (launch_only != std::size(kLaunchOnlyCounters)) {
    bad += "a launch-only counter name is not a KernelStats counter\n";
  }
  if (bad.empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << bad;
}

/// EXPECT_TRUE(timelines_match(a, b, level)): the same blocks, in the same
/// order, with the same phase slices whose counters match at `level`.
inline ::testing::AssertionResult timelines_match(
    const std::vector<profile::BlockTimeline>& a,
    const std::vector<profile::BlockTimeline>& b, StatsLevel level) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "timelines: a=" << a.size() << " b=" << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].block != b[i].block || a[i].seq != b[i].seq ||
        a[i].slices.size() != b[i].slices.size()) {
      return ::testing::AssertionFailure()
             << "timeline " << i << ": block, seq or slice count differs";
    }
    for (std::size_t k = 0; k < a[i].slices.size(); ++k) {
      const profile::PhaseSlice& x = a[i].slices[k];
      const profile::PhaseSlice& y = b[i].slices[k];
      const auto mismatches = stats_mismatches(x.stats, y.stats, level);
      if (x.phase != y.phase || !mismatches.empty()) {
        return ::testing::AssertionFailure()
               << "timeline " << i << " slice " << k << ": "
               << (x.phase != y.phase ? "phase differs"
                                      : join(mismatches, "\n"));
      }
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace kconv::test
