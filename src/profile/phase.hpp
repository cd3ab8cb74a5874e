// kconv-prof phase taxonomy (docs/MODEL.md §7).
//
// The paper's accounting is per *kernel phase*: the staging copy, the
// compute loop, the prefetch and the write-back each have their own GM/SM
// traffic signature, and the closed-form bounds (§3 one GM read per pixel,
// §4's (WT+K-1)/(WT*K) SM reduction) apply phase by phase. A Phase tags
// every Access a lane issues and every arithmetic op it charges, so the
// executor can charge each phase its own KernelStats through the same
// charge rule (src/sim/charge.hpp) it charges the launch with.
//
// Deliberately header-only over kconv_common and the header-only
// KernelStats: the sim executor consumes these value types the same way it
// consumes analysis ones, while kconv_profile itself never links kconv_sim.
#pragma once

#include "src/common/types.hpp"
#include "src/sim/stats.hpp"

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

/// One launch/chunk/block's full per-phase breakdown. Summed over the
/// seven phases, every counter equals the launch's, except the per-launch
/// counters a phase is never charged (docs/MODEL.md §7), which stay 0.
struct PhaseProfile {
  sim::KernelStats p[kNumPhases];

  sim::KernelStats& at(Phase ph) { return p[phase_index(ph)]; }
  const sim::KernelStats& at(Phase ph) const { return p[phase_index(ph)]; }

  PhaseProfile& operator+=(const PhaseProfile& o) {
    for (u32 i = 0; i < kNumPhases; ++i) p[i] += o.p[i];
    return *this;
  }

  /// All seven phases summed (the roll-up the sum-invariant tests compare
  /// against launch totals).
  sim::KernelStats total() const {
    sim::KernelStats s;
    for (const sim::KernelStats& ps : p) s += ps;
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
