// Warp access-pattern memoization (docs/MODEL.md §5c).
//
// Convolution kernels are massively repetitive: a handful of affine warp
// access shapes — fixed lane-to-lane address deltas, per-lane widths and
// active masks — account for nearly all warp transactions of a launch. The
// analyzers those transactions feed (analyze_smem's bank walk and
// analyze_gmem's sector grouping) are pure functions of a
// *translation-invariant signature* of the access vector:
//
//   * shared memory: shifting every lane address by a multiple of the bank
//     width permutes the banks (a rotation), leaving the replay factor and
//     the distinct-byte count unchanged — so (lane deltas, widths, active
//     mask, base % bank_bytes) determines the whole SmemCost;
//   * global memory: the warp's sector layout *relative to the base lane's
//     aligned sector* is determined by (lane deltas, widths, active mask,
//     base % sector_bytes) — absolute sectors are recovered by adding the
//     base's sector address back (rebasing), preserving the analyzer's
//     sorted probe order.
//
// A PatternCache memoizes both analyzers on that signature. A hit skips the
// per-lane division/sort work entirely; rebased gmem sectors feed the L2 and
// the coalescing counters exactly as a recomputation would, so results are
// bit-identical with the cache on or off, through the serial, parallel and
// trace-replay launch paths alike. One cache lives per launch chunk (like
// the L2 shadow and constant-cache replica), so parallel launches stay
// deterministic without locks. It dies with the chunk: the tables are never
// persisted, and a warm plan-store launch (§5d) rebuilds its own.
#pragma once

#include <cstring>
#include <span>
#include <vector>

#include "src/sim/banks.hpp"
#include "src/sim/coalescing.hpp"

namespace kconv::sim {

/// Translation-invariant signature of one warp access vector. Lane order is
/// part of the signature (the analyzers are order-sensitive only in probe
/// order, but keying on the exact vector keeps equality trivially exact).
struct PatternSig {
  static constexpr u32 kMaxLanes = 32;
  u32 n = 0;      // lanes in the transaction group
  u32 phase = 0;  // base address modulo the space's alignment period
  i64 delta[kMaxLanes];  // lane addr - base addr (0 for predicated-off lanes)
  u32 bytes[kMaxLanes];  // lane access width (0 = predicated off)

  friend bool operator==(const PatternSig& a, const PatternSig& b) {
    return a.n == b.n && a.phase == b.phase &&
           std::memcmp(a.delta, b.delta, a.n * sizeof(i64)) == 0 &&
           std::memcmp(a.bytes, b.bytes, a.n * sizeof(u32)) == 0;
  }
};

class PatternCache {
 public:
  PatternCache(u32 banks, u32 bank_bytes, u32 sector_bytes)
      : banks_(banks), bank_bytes_(bank_bytes), sector_bytes_(sector_bytes) {}

  /// Memoized analyze_smem over this cache's bank geometry.
  SmemCost smem(std::span<const Access> lanes);

  /// Memoized analyze_gmem: absolute sectors land in `out`, rebased from
  /// the cached relative layout on a hit.
  void gmem(std::span<const Access> lanes, GmemCost& out);

  /// Cacheable lookups served (excludes all-predicated-off and oversized
  /// groups, which bypass the cache and run the analyzer directly).
  u64 lookups() const { return lookups_; }
  /// Lookups that matched a cached signature.
  u64 hits() const { return hits_; }

  /// Number of memoized signatures (smem + gmem tables).
  std::size_t entries() const {
    return smem_tab_.sigs.size() + gmem_tab_.sigs.size();
  }

 private:
  /// Cached gmem layout: sector byte addresses relative to the base lane's
  /// aligned sector, in the analyzer's sorted probe order.
  struct GmemPattern {
    u64 lane_bytes = 0;
    std::vector<u64> rel_sectors;
  };

  /// Open-addressed signature table. Values live in a stable side vector so
  /// rehashing never moves them; beyond kMaxEntries new signatures stop
  /// being inserted (a safety valve for pattern-free kernels — lookups
  /// still answer, they just keep missing).
  template <typename V>
  struct Table {
    static constexpr std::size_t kMaxEntries = 1u << 15;
    struct Slot {
      u64 hash = 0;
      u32 idx = 0;  // index + 1 into sigs/values; 0 = empty
    };
    std::vector<Slot> slots = std::vector<Slot>(128);
    std::vector<PatternSig> sigs;
    std::vector<V> values;

    /// Returns the value slot for `sig`, creating it when absent (and the
    /// table has room). `hit` reports whether the signature was present.
    V* find_or_insert(const PatternSig& sig, u64 hash, bool& hit) {
      std::size_t mask = slots.size() - 1;
      std::size_t i = hash & mask;
      while (slots[i].idx != 0) {
        if (slots[i].hash == hash && sigs[slots[i].idx - 1] == sig) {
          hit = true;
          return &values[slots[i].idx - 1];
        }
        i = (i + 1) & mask;
      }
      hit = false;
      if (sigs.size() >= kMaxEntries) return nullptr;
      if ((sigs.size() + 1) * 10 >= slots.size() * 7) {
        grow();
        mask = slots.size() - 1;
        i = hash & mask;
        while (slots[i].idx != 0) i = (i + 1) & mask;
      }
      sigs.push_back(sig);
      values.emplace_back();
      slots[i] = Slot{hash, static_cast<u32>(sigs.size())};
      return &values.back();
    }

    void grow() {
      std::vector<Slot> bigger(slots.size() * 2);
      const std::size_t mask = bigger.size() - 1;
      for (const Slot& s : slots) {
        if (s.idx == 0) continue;
        std::size_t i = s.hash & mask;
        while (bigger[i].idx != 0) i = (i + 1) & mask;
        bigger[i] = s;
      }
      slots.swap(bigger);
    }
  };

  /// Builds the signature over `period`-relative phase; returns false for
  /// groups the cache bypasses (no active lane, or more lanes than a warp
  /// can have). `base` receives the first active lane's address.
  static bool build_sig(std::span<const Access> lanes, u32 period,
                        PatternSig& sig, u64& base, u64& hash);

  u32 banks_;
  u32 bank_bytes_;
  u32 sector_bytes_;
  u64 lookups_ = 0;
  u64 hits_ = 0;
  Table<SmemCost> smem_tab_;
  Table<GmemPattern> gmem_tab_;
};

}  // namespace kconv::sim
