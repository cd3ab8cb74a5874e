// Metrics registry for kconv-prof (docs/MODEL.md §7).
//
// A BlockProfiler is the per-block charging surface the executor talks to:
// retire_group() reports each warp transaction's cost deltas tagged with
// the phase stamped on the retiring accesses, and the segment loop drains
// per-lane arithmetic at every barrier. Charges land in a chunk-level
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
  PhaseStats stats;
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

/// Per-block charging interface handed to run_block(). All methods add
/// into the chunk sink; the timeline (optional) additionally records the
/// charge on its tail slice.
class BlockProfiler {
 public:
  explicit BlockProfiler(PhaseProfile& sink, BlockTimeline* timeline = nullptr)
      : sink_(&sink), timeline_(timeline) {}

  PhaseProfile& sink() { return *sink_; }
  BlockTimeline* timeline() { return timeline_; }

  /// Shared-memory transaction retired in phase `ph`. Mirrors KernelStats'
  /// semantics: smem_instrs/request_cycles count loads AND stores, the
  /// smem_store_* fields are the store-side split of the same totals.
  void smem(Phase ph, u64 request_cycles, u64 bytes, u64 lane_bytes,
            bool is_store) {
    charge(ph, [&](PhaseStats& s) {
      ++s.smem_instrs;
      s.smem_request_cycles += request_cycles;
      if (is_store) {
        ++s.smem_store_instrs;
        s.smem_store_request_cycles += request_cycles;
        s.smem_store_lane_bytes += lane_bytes;
      }
      s.smem_bytes += bytes;
      s.smem_lane_bytes += lane_bytes;
    });
  }

  /// Global-memory transaction retired in phase `ph`.
  void gmem(Phase ph, u64 sectors, u64 sectors_dram, u64 lane_bytes) {
    charge(ph, [&](PhaseStats& s) {
      ++s.gm_instrs;
      s.gm_sectors += sectors;
      s.gm_sectors_dram += sectors_dram;
      s.gm_bytes_useful += lane_bytes;
    });
  }

  /// Constant-memory transaction retired in phase `ph`.
  void cmem(Phase ph, u64 requests, u64 line_misses) {
    charge(ph, [&](PhaseStats& s) {
      ++s.const_instrs;
      s.const_requests += requests;
      s.const_line_misses += line_misses;
    });
  }

  /// Pattern-cache activity observed while retiring in phase `ph`.
  void pattern(Phase ph, u64 lookups, u64 hits) {
    if (lookups == 0 && hits == 0) return;
    charge(ph, [&](PhaseStats& s) {
      s.pattern_lookups += lookups;
      s.pattern_hits += hits;
    });
  }

  /// Arithmetic drained from lane profiles at a segment boundary.
  void compute(Phase ph, u64 fma_lane_ops, u64 alu_lane_ops) {
    if (fma_lane_ops == 0 && alu_lane_ops == 0) return;
    charge(ph, [&](PhaseStats& s) {
      s.fma_lane_ops += fma_lane_ops;
      s.alu_lane_ops += alu_lane_ops;
    });
  }

  /// Barrier release (pairs 1:1 with KernelStats::barriers).
  void barrier() {
    charge(Phase::Sync, [](PhaseStats& s) { ++s.barriers; });
  }

 private:
  template <class F>
  void charge(Phase ph, F&& f) {
    f(sink_->at(ph));
    if (timeline_ != nullptr) {
      if (timeline_->slices.empty() || timeline_->slices.back().phase != ph)
        timeline_->slices.push_back(PhaseSlice{ph, {}});
      f(timeline_->slices.back().stats);
    }
  }

  PhaseProfile* sink_;
  BlockTimeline* timeline_;
};

}  // namespace kconv::profile
