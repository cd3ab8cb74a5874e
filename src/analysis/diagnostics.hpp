// Typed findings produced by the kconv-check analysis subsystem.
//
// Two families of diagnostics (ISSUE 4 / docs/MODEL.md §6):
//   * HazardRecord — hard errors from the shadow-state race detector:
//     same-epoch shared-memory conflicts between warps (or unordered
//     intra-warp lane pairs), and cross-block global-memory write overlaps.
//   * LintFinding — paper-grounded efficiency diagnostics over a launch's
//     aggregate statistics (Chen et al. DAC'17 §2.1), each carrying the
//     measured metric, its trip threshold, and the paper's remediation.
//
// This header is intentionally light: only sim geometry/event value types,
// so everything above the simulator (CLI, tests, tools) can consume
// findings without linking the execution engine.
#pragma once

#include <string>
#include <vector>

#include "src/common/types.hpp"
#include "src/sim/dim.hpp"
#include "src/sim/event.hpp"

namespace kconv::analysis {

/// Hazard classes the detector reports. The RAW/WAR/WAW names describe the
/// order the two accesses retired in (for cross-warp pairs within one
/// barrier epoch the true hardware order is undefined — that is the bug).
enum class HazardKind : u8 {
  /// Shared memory: a read observed a same-epoch write from another warp.
  SmemRaw,
  /// Shared memory: a write hit a byte read this epoch by another warp.
  SmemWar,
  /// Shared memory: two warps wrote the same byte in one epoch.
  SmemWaw,
  /// Shared memory: two lanes of the SAME warp touched the same byte in
  /// the same scheduling round with no ordering edge (divergent subgroups
  /// of one warp instruction, at least one a write).
  SmemIntraWarp,
  /// Global memory: two different blocks wrote the same byte.
  GmemBlockOverlap,
};

const char* hazard_kind_name(HazardKind k);  // kebab-case, stable

/// One endpoint of a hazard: which lane touched the bytes, and when.
struct HazardOp {
  sim::Op op = sim::Op::Sync;
  u32 warp = 0;
  u32 lane = 0;      // flat thread index within the block
  u32 round = 0;     // scheduling round within the barrier segment
  u64 op_index = 0;  // index in the lane's retired event stream
};

struct HazardRecord {
  HazardKind kind = HazardKind::SmemRaw;
  sim::Dim3 block;        // block the hazard was detected in
  sim::Dim3 other_block;  // GmemBlockOverlap only: the earlier writer
  /// First conflicting byte: a block-local shared-memory offset for the
  /// Smem* kinds, a flat device address for GmemBlockOverlap.
  u64 addr = 0;
  /// Conflicting extent: the width of the exposing access (Smem*) or of
  /// the overlapping write interval (GmemBlockOverlap).
  u64 bytes = 0;
  /// Barrier epoch the conflict happened in (Smem* kinds; epochs count
  /// across blocks, so equal epochs always mean "same block, same segment").
  u64 epoch = 0;
  HazardOp first;   // access already in the shadow state
  HazardOp second;  // access that exposed the hazard
};

enum class Severity : u8 { Info, Warning, Error };
const char* severity_name(Severity s);

/// Efficiency lint classes, one per memory-inefficiency pattern the paper
/// names. See docs/MODEL.md §6 for the catalog with citations.
enum class LintKind : u8 {
  /// Average lane access width below the SM bank width (W_CD < W_SMB):
  /// scalar float traffic on 8-byte-bank hardware wastes half of every
  /// bank's bandwidth (§2.1, Fig. 1; fix per Eq. 1: float2 accesses).
  BankWidthMismatch,
  /// SM request cycles per instruction above threshold: bank-conflict
  /// replays serialize the warp (§2.1; e.g. the unpadded transposed filter
  /// store of §4.2's gray box).
  BankConflictReplays,
  /// GM sector bytes moved per useful byte above threshold: uncoalesced
  /// access wastes DRAM bandwidth on 32B-sector granularity (§2.2).
  UncoalescedGmem,
  /// Occupancy limited by shared memory below half the SM's warp capacity:
  /// the tile sizing spends more SM than the latency hiding it buys (§4.3).
  SmemOccupancyCap,
  /// Constant-memory requests per instruction above threshold: lanes
  /// diverge on CM addresses instead of broadcasting (§2.3/§3.3).
  LowCmBroadcast,
};

const char* lint_kind_name(LintKind k);  // kebab-case, stable

struct LintFinding {
  LintKind kind = LintKind::BankWidthMismatch;
  Severity severity = Severity::Warning;
  double value = 0.0;      // measured metric
  double threshold = 0.0;  // trip point it crossed
  std::string message;     // what was measured, with numbers
  std::string remediation; // what the paper says to do about it
};

/// Everything kconv-check produced for one launch.
struct AnalysisReport {
  bool hazard_checked = false;
  bool linted = false;
  /// Blocks that ran under the shadow-state check: every executed block
  /// (a checked launch never replays).
  u64 blocks_checked = 0;
  /// Accesses involved in >= 1 shared-memory race. Exact even when the
  /// recorded list below is capped.
  u64 races_total = 0;
  /// Cross-block GM write intervals that overlapped another block's. Exact
  /// even when the recorded list below is capped.
  u64 gm_overlaps_total = 0;
  std::vector<HazardRecord> hazards;
  std::vector<LintFinding> lints;

  /// Merges another launch's results: flags OR, totals add, and its
  /// records and findings follow this launch's.
  AnalysisReport& operator+=(const AnalysisReport& o) {
    hazard_checked = hazard_checked || o.hazard_checked;
    linted = linted || o.linted;
    blocks_checked += o.blocks_checked;
    races_total += o.races_total;
    gm_overlaps_total += o.gm_overlaps_total;
    hazards.insert(hazards.end(), o.hazards.begin(), o.hazards.end());
    lints.insert(lints.end(), o.lints.begin(), o.lints.end());
    return *this;
  }

  /// A launch passes kconv-check when it has no hazards and no lint at
  /// Warning or above (Info findings are advisory).
  bool clean() const {
    if (races_total != 0 || gm_overlaps_total != 0) return false;
    for (const LintFinding& f : lints) {
      if (f.severity != Severity::Info) return false;
    }
    return true;
  }
};

}  // namespace kconv::analysis
