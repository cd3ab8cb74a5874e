// gtest adapter for kconv-check hazard reports (docs/MODEL.md §6).
#pragma once

#include <string>

#include <gtest/gtest.h>

#include "src/analysis/diagnostics.hpp"
#include "src/common/strutil.hpp"

namespace kconv::test {

/// EXPECT_TRUE(hazards_match(a, b)): the two reports checked the same
/// blocks, count the same races and GM overlaps, and record the same
/// hazards in the same order, field by field.
inline ::testing::AssertionResult hazards_match(
    const analysis::AnalysisReport& a, const analysis::AnalysisReport& b) {
  std::string bad;
  const auto field = [&bad](const char* name, u64 x, u64 y) {
    if (x != y) {
      bad += strf("%s: a=%llu b=%llu\n", name,
                  static_cast<unsigned long long>(x),
                  static_cast<unsigned long long>(y));
    }
  };
  const auto same_op = [](const analysis::HazardOp& x,
                          const analysis::HazardOp& y) {
    return x.op == y.op && x.warp == y.warp && x.lane == y.lane &&
           x.round == y.round && x.op_index == y.op_index;
  };
  field("hazard_checked", a.hazard_checked, b.hazard_checked);
  field("blocks_checked", a.blocks_checked, b.blocks_checked);
  field("races_total", a.races_total, b.races_total);
  field("gm_overlaps_total", a.gm_overlaps_total, b.gm_overlaps_total);
  field("hazards", a.hazards.size(), b.hazards.size());
  for (std::size_t i = 0; i < a.hazards.size() && i < b.hazards.size(); ++i) {
    const analysis::HazardRecord& x = a.hazards[i];
    const analysis::HazardRecord& y = b.hazards[i];
    if (x.kind != y.kind || x.block != y.block ||
        x.other_block != y.other_block || x.addr != y.addr ||
        x.bytes != y.bytes || x.epoch != y.epoch ||
        !same_op(x.first, y.first) || !same_op(x.second, y.second)) {
      bad += strf("hazard %zu differs\n", i);
    }
  }
  if (bad.empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << bad;
}

}  // namespace kconv::test
