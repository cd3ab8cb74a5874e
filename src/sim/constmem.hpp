// Constant-memory broadcast model.
//
// The constant cache serves one address per warp per request: if all 32
// lanes read the same address the access is a single broadcast (the best
// case — the special-case kernel is arranged so every warp reads the same
// filter tap simultaneously); k distinct addresses serialize into k
// requests.
#pragma once

#include <span>

#include "src/sim/event.hpp"

namespace kconv::sim {

struct ConstCost {
  /// Serialized requests (number of distinct addresses in the warp).
  u32 requests = 0;
  /// Distinct `line_bytes`-aligned line base addresses (for miss modeling).
  u32 lines_touched = 0;
  u64 line_addrs[32] = {};  // the distinct line addresses, lines_touched used
};

/// Writes the cost into `out`, touching only the line addresses it uses
/// (the hot-loop form, like analyze_gmem's).
void analyze_const(std::span<const Access> lanes, u32 line_bytes,
                   ConstCost& out);

inline ConstCost analyze_const(std::span<const Access> lanes, u32 line_bytes) {
  ConstCost cost;
  analyze_const(lanes, line_bytes, cost);
  return cost;
}

}  // namespace kconv::sim
