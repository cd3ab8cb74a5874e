// kconv-prof phase taxonomy (docs/MODEL.md §7).
//
// The paper's accounting is per *kernel phase*: the staging copy, the
// compute loop, the prefetch and the write-back each have their own GM/SM
// traffic signature, and the closed-form bounds (§3 one GM read per pixel,
// §4's (WT+K-1)/(WT*K) SM reduction) apply phase by phase. A Phase tags
// every Access a lane issues and every arithmetic op it charges, so the
// executor can split the existing KernelStats counters into per-phase
// deltas without changing what it counts.
//
// Deliberately header-only over kconv_common types: the sim executor
// consumes these value types the same way it consumes analysis ones, while
// kconv_profile itself never links kconv_sim.
#pragma once

#include "src/common/counters.hpp"
#include "src/common/types.hpp"

namespace kconv::profile {

/// Which part of the kernel an access/op belongs to. `Other` is the
/// default for unannotated code; `Sync` is stamped automatically on
/// barrier events (kernels never need to annotate their syncs).
enum class Phase : u8 {
  Other = 0,
  GmLoad,     // cooperative GM -> register staging loads
  SmemStage,  // register/GM -> shared-memory publishing stores
  Sync,       // __syncthreads barriers (auto-attributed)
  Compute,    // SM/CM reads feeding the FMA loop, and the FMAs themselves
  Writeback,  // accumulator -> GM output stores
  Prefetch,   // early GM loads overlapping the compute loop
};

inline constexpr u32 kNumPhases = 7;

inline constexpr const char* phase_name(Phase p) {
  switch (p) {
    case Phase::Other: return "other";
    case Phase::GmLoad: return "gm_load";
    case Phase::SmemStage: return "smem_stage";
    case Phase::Sync: return "sync";
    case Phase::Compute: return "compute";
    case Phase::Writeback: return "writeback";
    case Phase::Prefetch: return "prefetch";
  }
  return "?";
}

inline constexpr u32 phase_index(Phase p) { return static_cast<u32>(p); }

/// Per-phase delta of the KernelStats counters the paper reasons about.
/// Invariant (pinned by tests/profile/): summing any field over the seven
/// phases equals the corresponding launch-total KernelStats field. As in
/// KernelStats, smem_instrs/smem_request_cycles count loads and stores
/// together and the smem_store_* fields are the store-side split.
/// `smem_store_lane_bytes` has no KernelStats counterpart — it exists so
/// the compute phase's *load* traffic is separable for the §4 SM bound.
struct PhaseStats {
  u64 fma_lane_ops = 0;
  u64 alu_lane_ops = 0;
  u64 smem_instrs = 0;
  u64 smem_request_cycles = 0;
  u64 smem_bytes = 0;
  u64 smem_lane_bytes = 0;
  u64 smem_store_instrs = 0;
  u64 smem_store_request_cycles = 0;
  u64 smem_store_lane_bytes = 0;
  u64 gm_instrs = 0;
  u64 gm_sectors = 0;
  u64 gm_sectors_dram = 0;
  u64 gm_bytes_useful = 0;
  u64 const_instrs = 0;
  u64 const_requests = 0;
  u64 const_line_misses = 0;
  u64 barriers = 0;
  u64 pattern_lookups = 0;
  u64 pattern_hits = 0;

  PhaseStats& operator+=(const PhaseStats& o);

  bool empty() const {
    return fma_lane_ops == 0 && alu_lane_ops == 0 && smem_instrs == 0 &&
           gm_instrs == 0 && const_instrs == 0 && barriers == 0 &&
           pattern_lookups == 0;
  }
};

/// Every PhaseStats counter with its replay class, in declaration (= plan
/// byte) order. Classes match the same-named KernelStats counters;
/// smem_store_lane_bytes is invariant like the other smem_* counters.
inline constexpr auto kPhaseCounters = [] {
  using S = PhaseStats;
  using enum CounterClass;
  return CounterTable<S, 19>{{
      {"fma_lane_ops", &S::fma_lane_ops, Compute},
      {"alu_lane_ops", &S::alu_lane_ops, Compute},
      {"smem_instrs", &S::smem_instrs, Invariant},
      {"smem_request_cycles", &S::smem_request_cycles, Invariant},
      {"smem_bytes", &S::smem_bytes, Invariant},
      {"smem_lane_bytes", &S::smem_lane_bytes, Invariant},
      {"smem_store_instrs", &S::smem_store_instrs, Invariant},
      {"smem_store_request_cycles", &S::smem_store_request_cycles, Invariant},
      {"smem_store_lane_bytes", &S::smem_store_lane_bytes, Invariant},
      {"gm_instrs", &S::gm_instrs, Invariant},
      {"gm_sectors", &S::gm_sectors, AddrDep},
      {"gm_sectors_dram", &S::gm_sectors_dram, Warmth},
      {"gm_bytes_useful", &S::gm_bytes_useful, Invariant},
      {"const_instrs", &S::const_instrs, Invariant},
      {"const_requests", &S::const_requests, Invariant},
      {"const_line_misses", &S::const_line_misses, Warmth},
      {"barriers", &S::barriers, Invariant},
      {"pattern_lookups", &S::pattern_lookups, Instrument},
      {"pattern_hits", &S::pattern_hits, Instrument},
  }};
}();
static_assert(covers_every_field(kPhaseCounters),
              "kPhaseCounters must list every PhaseStats field once");

inline PhaseStats& PhaseStats::operator+=(const PhaseStats& o) {
  add_counters(kPhaseCounters, *this, o);
  return *this;
}

/// stats_mismatches for one phase's counters (same levels as KernelStats).
inline std::vector<std::string> stats_mismatches(const PhaseStats& a,
                                                 const PhaseStats& b,
                                                 StatsLevel level) {
  return counter_mismatches(kPhaseCounters, a, b, level, "a", "b");
}

/// One launch/chunk/block's full per-phase breakdown.
struct PhaseProfile {
  PhaseStats p[kNumPhases];

  PhaseStats& at(Phase ph) { return p[phase_index(ph)]; }
  const PhaseStats& at(Phase ph) const { return p[phase_index(ph)]; }

  PhaseProfile& operator+=(const PhaseProfile& o) {
    for (u32 i = 0; i < kNumPhases; ++i) p[i] += o.p[i];
    return *this;
  }

  /// All seven phases summed (the roll-up the sum-invariant tests compare
  /// against launch totals).
  PhaseStats total() const {
    PhaseStats s;
    for (const PhaseStats& ps : p) s += ps;
    return s;
  }
};

/// Per-lane arithmetic attribution, bound to a ThreadCtx while profiling:
/// fma()/alu() bump the slot of the lane's current phase. The lane's base
/// counters (ctx.fma_ops) are maintained independently, so binding one is
/// purely observational.
struct LaneProfile {
  u64 fma[kNumPhases] = {};
  u64 alu[kNumPhases] = {};
};

}  // namespace kconv::profile
