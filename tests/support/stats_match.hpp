// gtest adapters for the counter tables (docs/MODEL.md §1).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/strutil.hpp"
#include "src/profile/collector.hpp"
#include "src/profile/phase.hpp"
#include "src/sim/stats.hpp"

namespace kconv::test {

/// EXPECT_TRUE(stats_match(a, b, level)): stats_mismatches is empty, else
/// the failure lists one "field: a=X b=Y" line per differing counter.
/// Works for KernelStats and PhaseStats.
template <typename S>
::testing::AssertionResult stats_match(const S& a, const S& b,
                                       StatsLevel level) {
  const auto mismatches = stats_mismatches(a, b, level);
  if (mismatches.empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << join(mismatches, "\n");
}

/// EXPECT_TRUE(sums_match(phases.total(), stats)): every PhaseStats counter
/// equals its same-named KernelStats counter. Only smem_store_lane_bytes is
/// profile-only.
inline ::testing::AssertionResult sums_match(const profile::PhaseStats& sum,
                                             const sim::KernelStats& s) {
  std::string bad;
  std::size_t paired = 0;
  for (const auto& pc : profile::kPhaseCounters) {
    for (const auto& kc : sim::kKernelCounters) {
      if (std::string_view(pc.name) != kc.name) continue;
      ++paired;
      if (sum.*pc.member != s.*kc.member) {
        bad += strf("%s: phases=%llu launch=%llu\n", pc.name,
                    static_cast<unsigned long long>(sum.*pc.member),
                    static_cast<unsigned long long>(s.*kc.member));
      }
    }
  }
  if (paired + 1 != profile::kPhaseCounters.size()) {
    bad += "PhaseStats and KernelStats counter names no longer pair up\n";
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
