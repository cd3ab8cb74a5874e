// Shadow-state hazard detection for shared and global memory.
//
// BlockChecker maintains per-byte shadow state over one block's shared
// memory: the last writer (lane/warp/round/op index) and the last readers,
// each versioned by a *barrier epoch*. ThreadCtx::sync() — surfaced to the
// checker as on_barrier() — advances the epoch instead of clearing the
// shadow, so a block's worth of state resets in O(1). Conflicting accesses
// (>= 1 write) to the same byte within one epoch are a race when they come
// from different warps; within a warp, different scheduling rounds are
// ordered by lockstep execution, and only same-round pairs (divergent
// subgroups of one warp instruction) race. See docs/MODEL.md §6.
//
// The same object accumulates every block's global-memory write intervals
// (GmemWriteMap); after the launch, a sort-and-sweep over all blocks
// reports bytes written by more than one block.
//
// One BlockChecker serves one launch chunk (serial launches have exactly
// one), mirroring how L2 shadows and pattern caches are scoped: no locks,
// deterministic, merged in chunk index order by finalize_hazards().
#pragma once

#include <vector>

#include "src/analysis/diagnostics.hpp"
#include "src/sim/config.hpp"

namespace kconv::analysis {

/// Per-block global-memory write intervals, coalesced per block and
/// sort-swept across blocks for overlaps.
class GmemWriteMap {
 public:
  void begin_block(u64 flat_id, sim::Dim3 block);
  void note(u64 addr, u32 bytes);
  void seal_block();
  void append(GmemWriteMap&& o);

  /// Sorts all sealed intervals and appends one HazardRecord per interval
  /// that overlaps an earlier (lower flat id on ties) block's interval,
  /// up to `cap` records; `overlaps_total` counts them all. Destructive —
  /// call once, after every block is sealed.
  void detect(std::vector<HazardRecord>& out, u64& overlaps_total,
              std::size_t cap);

 private:
  struct Interval {
    u64 addr = 0;
    u64 end = 0;
    u64 flat = 0;  // flat block id, for deterministic ordering
    sim::Dim3 block;
  };
  std::vector<Interval> sealed_;
  std::vector<Interval> staged_;  // current block, coalesced on seal
  u64 cur_flat_ = 0;
  sim::Dim3 cur_block_;
};

class BlockChecker {
 public:
  BlockChecker(const sim::LaunchConfig& cfg, u32 warp_size);

  // --- Full shadow-state check (direct execution of a block) --------------
  void begin_block(sim::Dim3 block);
  /// Feed one lane's retired access (in retire order). Predicated-off
  /// accesses (bytes == 0) are ignored. `op_index` is the event's index in
  /// the lane's retired stream (diagnostics only).
  void on_access(u32 lane, u32 round, u64 op_index, const sim::Access& a);
  /// A __syncthreads barrier released: advance the epoch.
  void on_barrier();
  void end_block();

  u64 blocks_checked() const { return blocks_checked_; }
  u64 races_total() const { return races_total_; }
  const std::vector<HazardRecord>& records() const { return records_; }
  GmemWriteMap& writes() { return gm_; }

 private:
  struct Shadow {
    u64 write_epoch = 0;
    u64 read_epoch = 0;
    u64 w_op = 0;
    u64 r0_op = 0;
    u64 r1_op = 0;
    u32 w_lane = 0, w_round = 0;
    u32 r0_lane = 0, r0_round = 0;
    u32 r1_lane = 0, r1_round = 0;
    u32 reader_warps = 0;  // warp bitmask for this read_epoch
    sim::Op w_kind = sim::Op::StoreShared;
    sim::Op r0_kind = sim::Op::LoadShared;
    sim::Op r1_kind = sim::Op::LoadShared;
  };

  void report(HazardKind kind, u64 byte, const sim::Access& a, u32 lane,
              u32 round, u64 op_index, const HazardOp& first);
  u64 flat_id(sim::Dim3 b) const;

  std::vector<Shadow> shadow_;  // one entry per shared-memory byte
  GmemWriteMap gm_;
  sim::Dim3 grid_;
  sim::Dim3 cur_block_;
  u32 warp_size_ = 32;
  u64 epoch_ = 0;
  u64 blocks_checked_ = 0;
  u64 races_total_ = 0;
  std::vector<HazardRecord> records_;

  /// Caps keep pathological kernels from flooding memory with findings;
  /// races_total_ stays exact past them.
  static constexpr u32 kMaxRecordsPerBlock = 8;
  static constexpr std::size_t kMaxRecords = 256;
  u32 block_records_ = 0;
};

/// Merges per-chunk checkers — in chunk index order, so results are
/// independent of host scheduling — into `rep`, then runs the cross-block
/// GM overlap scan over the union of all chunks' writes.
void finalize_hazards(std::vector<BlockChecker*> checkers,
                      AnalysisReport& rep);

}  // namespace kconv::analysis
