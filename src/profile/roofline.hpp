// Roofline bottleneck attribution for kconv-prof (docs/MODEL.md §7).
//
// Per phase, mirrors the timing model's pipe decomposition onto the
// phase's own counter deltas, names the binding resource, and compares
// measured traffic against the paper's closed-form lower bounds (§3 one
// GM read per input pixel for the special case; §4's (WT+K-1)/(WT*K) SM
// and ~1/K GM reductions for the general case).
#pragma once

#include <string>
#include <vector>

#include "src/profile/collector.hpp"
#include "src/sim/arch.hpp"

namespace kconv::profile {

/// Pipe demands of one phase in SM-cycles (work placed on a single SM;
/// divide by Arch::sm_count for an even-spread launch view).
struct PipeCycles {
  double compute = 0.0;
  double issue = 0.0;
  double smem = 0.0;
  double gmem = 0.0;
  double cmem = 0.0;
  double sync = 0.0;
  double total = 0.0;  // max of the above: the modeled cycles of the phase
};

/// Pipe decomposition of `s` under `arch`'s throughput model. Warp
/// instruction counts are approximated as lane-ops / warp_size (a phase is
/// not charged per-warp maxima; full warps make this exact).
PipeCycles phase_pipe_cycles(const sim::Arch& arch,
                             const sim::KernelStats& s);

/// One attributed phase of the launch roll-up.
struct PhaseAttribution {
  Phase phase = Phase::Other;
  sim::KernelStats stats;
  PipeCycles pipes;
  /// Binding resource: "gm-bound", "sm-bound", "bank-conflict-bound",
  /// "compute-bound", "const-bound", "sync-bound", or "idle".
  std::string bound;
  /// Efficiency of the binding resource in [0,1]: useful/(moved) bytes for
  /// GM, instrs/request-cycles for SM, fma/(fma+alu) for compute,
  /// instrs/requests for CM; 1.0 for sync/idle.
  double efficiency = 1.0;
};

/// Launch-level attribution against the paper bounds.
struct RooflineReport {
  std::vector<PhaseAttribution> phases;  // active phases, taxonomy order
  RooflineHints hints;
  /// Measured staging GM read bytes (gm_load + prefetch phases).
  double gm_load_bytes = 0.0;
  /// gm_load_bytes / hints.gm_load_bound_bytes (0 when no bound).
  double gm_load_ratio = 0.0;
  /// Measured SM load elements per FMA in the compute phase.
  double smem_load_elems_per_fma = 0.0;
  /// Paper §4 headline SM-traffic ratio (WT+K-1)/(WT*K) for the hints'
  /// tiling, 0 unless the general case applies.
  double sm_reduction_bound = 0.0;
};

RooflineReport attribute_roofline(const sim::Arch& arch,
                                  const LaunchProfile& prof);

/// Text block appended to sim::format_report when profiling is on.
std::string format_profile(const sim::Arch& arch, const LaunchProfile& prof);

/// JSON object for the report's "profile" key, indented by `indent`
/// spaces: {"phases": [...], "roofline": {...}}.
std::string profile_to_json(const sim::Arch& arch, const LaunchProfile& prof,
                            int indent);

}  // namespace kconv::profile
