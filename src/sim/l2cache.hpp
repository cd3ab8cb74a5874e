// Sector-granular set-associative L2 cache model.
//
// Kepler routes all global loads through L2 (L1 is reserved for local data),
// so the DRAM traffic a kernel generates equals its L2 *miss* sectors. The
// GEMM-based convolution baselines lean on L2 to soften their K×K-fold
// re-reads of the input image; modeling L2 keeps the comparison with the
// paper's kernels honest instead of charging the baselines full DRAM cost.
#pragma once

#include <memory>
#include <vector>

#include "src/common/types.hpp"

namespace kconv::sim {

/// Set-associative, LRU, write-allocate cache over fixed-size sectors.
///
/// The tag array is never filled up front: a set's ways are cleared the
/// first time the set is touched after construction or `invalidate()`
/// (each set remembers the epoch it was last cleared in), so making a
/// cache — a parallel launch makes one shadow per chunk — costs an
/// allocation, and only the pages of touched sets are ever written.
class L2Cache {
 public:
  /// `capacity_bytes` and `sector_bytes` come from the Arch; `ways` is the
  /// associativity (16 approximates Kepler's L2).
  L2Cache(u32 capacity_bytes, u32 sector_bytes, u32 ways = 16);

  /// Touches one sector address (byte address; rounded down to the sector).
  /// Returns true on hit. Misses fill the sector, evicting LRU.
  bool access(u64 addr);

  /// Drops all cached sectors (between independent launches).
  void invalidate();

  u64 hits() const { return hits_; }
  u64 misses() const { return misses_; }
  void reset_counters() { hits_ = misses_ = 0; }

 private:
  /// Left uninitialized until its set is first touched in an epoch.
  struct Way {
    u64 tag;
    u64 lru;  // larger = more recently used; 0 = invalid
  };

  u32 sector_bytes_;
  u32 ways_;
  u64 sets_;
  u64 tick_ = 0;
  u64 hits_ = 0;
  u64 misses_ = 0;
  u64 epoch_ = 1;
  std::vector<u64> set_epoch_;    // per set: epoch its ways were cleared in
  std::unique_ptr<Way[]> lines_;  // sets_ * ways_, row-major by set
};

}  // namespace kconv::sim
