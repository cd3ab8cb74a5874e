// Metrics registry for kconv-prof (docs/MODEL.md §7).
//
// A BlockProfiler routes the executor's per-phase charges: retire_group()
// charges each warp transaction's cost to the phase stamped on the
// retiring accesses, through the same charge rule as the launch
// (src/sim/charge.hpp), and the segment loop drains per-lane arithmetic at
// every barrier. Charges land in a chunk-level
// PhaseProfile sink (merged index-order into the launch roll-up, so totals
// are thread-count-invariant) and, for the first few executed blocks, in a
// BlockTimeline of ordered slices the Perfetto exporter turns into tracks.
#pragma once

#include <vector>

#include "src/common/types.hpp"
#include "src/profile/phase.hpp"
#include "src/sim/dim.hpp"

namespace kconv::profile {

/// One contiguous stretch of a block's execution spent in one phase.
/// Slices are appended in retirement order; a new slice opens whenever the
/// phase differs from the slice currently at the tail, so alternating
/// phases (load/stage interleave) produce alternating slices.
struct PhaseSlice {
  Phase phase = Phase::Other;
  sim::KernelStats stats;
};

/// Ordered slice list for one executed block. `seq` is the block's index
/// in launch iteration order (grid-flattened, sample-adjusted), which the
/// exporter uses as the Perfetto process id.
struct BlockTimeline {
  sim::Dim3 block;
  u64 seq = 0;
  std::vector<PhaseSlice> slices;
};

/// Kernel-provided context for the roofline attribution: which paper case
/// applies and the launch-wide traffic lower bounds derived from its
/// closed forms. Filled by the kernel runners when profiling is on.
struct RooflineHints {
  enum class Kind : u8 { None = 0, Special, General, ImplicitGemm };
  Kind kind = Kind::None;
  u32 k = 0;   // filter K
  u32 wt = 0;  // per-thread output tile width WT (general case)
  u32 ft = 0;  // per-thread filter count FT (general case)
  /// Minimum bytes the staging phases must read from GM for the whole
  /// launch (paper §3 for special: one 4-byte read per input pixel modulo
  /// halo; §4 tiling for general/implicit-GEMM).
  double gm_load_bound_bytes = 0.0;
  /// Minimum SM *load* elements per FMA in the compute phase (general
  /// case, §4: (WT+K-1)/(K*FT*WT) image reads + 1/WT filter reads).
  double smem_load_elems_per_fma_bound = 0.0;
};

/// Launch-level profiling result, attached to LaunchResult. Empty (and
/// `enabled == false`) unless LaunchOptions::profile was set.
struct LaunchProfile {
  bool enabled = false;
  PhaseProfile phases;
  std::vector<BlockTimeline> timelines;
  RooflineHints hints;
};

/// Per-block charging interface handed to run_block(): charge() applies
/// one charge to the chunk sink's phase and, when a timeline is attached,
/// to its tail slice, opening a new slice when the phase changes.
class BlockProfiler {
 public:
  explicit BlockProfiler(PhaseProfile& sink, BlockTimeline* timeline = nullptr)
      : sink_(&sink), timeline_(timeline) {}

  template <class F>
  void charge(Phase ph, F&& f) {
    f(sink_->at(ph));
    if (timeline_ != nullptr) {
      if (timeline_->slices.empty() || timeline_->slices.back().phase != ph)
        timeline_->slices.push_back(PhaseSlice{ph, {}});
      f(timeline_->slices.back().stats);
    }
  }

 private:
  PhaseProfile* sink_;
  BlockTimeline* timeline_;
};

}  // namespace kconv::profile
