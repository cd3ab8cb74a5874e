// The charge rule: how one retired warp transaction becomes KernelStats
// counters, written once for every caller (docs/MODEL.md §1). price_tx runs
// the space's analyzer (or the §5c pattern memo) once; probe_caches runs
// the cost through the caches it is given and records the misses;
// charge_invariant charges the translation-invariant counters and marks the
// segment's GM load / SM store; charge_addr_dep charges GM sectors and the
// misses. Charging only reads the cost, so kconv-prof charges a phase (§7)
// the cost the launch was charged. retire_tx does all four and returns the
// cost. close_segment, charge_warp_compute and charge_pattern are the
// barrier rule, the per-warp arithmetic and the §5c memo's activity. The
// executor and kconv-xray's counter sink (no caches) call retire_tx;
// replay's segment walk skips charge_invariant, since the class trace
// carries the invariant counters (§5b). Inline for the executor's hot loop.
#pragma once

#include <algorithm>
#include <span>

#include "src/sim/arch.hpp"
#include "src/sim/banks.hpp"
#include "src/sim/coalescing.hpp"
#include "src/sim/constmem.hpp"
#include "src/sim/l2cache.hpp"
#include "src/sim/pattern_cache.hpp"
#include "src/sim/stats.hpp"

namespace kconv::sim {

/// What one retired warp transaction costs; only the member of `op`'s
/// space is valid. Callers keep one alive and reuse it, so pricing
/// allocates nothing once its sector vector is warm.
struct TxCost {
  Op op = Op::Sync;
  SmemCost smem;
  GmemCost gmem;  ///< sectors in L2 probe order
  ConstCost cnst;
  /// Probes probe_caches saw miss: DRAM sectors or constant lines.
  u64 misses = 0;

  /// False for a shared or global group whose every lane is predicated off:
  /// it issues no instruction. A constant load always issues.
  bool issued() const {
    if (is_smem(op)) return smem.lane_bytes != 0;
    if (is_gmem(op)) return gmem.lane_bytes != 0;
    return op == Op::LoadConst;
  }
};

/// The GM-load / SM-store marks of the current barrier segment.
struct SegmentFlags {
  bool gm_load = false;
  bool sm_store = false;
};

inline void price_tx(const Arch& arch, PatternCache* pattern, Op op,
                     std::span<const Access> lanes, TxCost& out) {
  out.op = op;
  out.misses = 0;
  if (is_smem(op)) {
    out.smem = pattern != nullptr ? pattern->smem(lanes)
                                  : analyze_smem(lanes, arch.smem_banks,
                                                 arch.smem_bank_bytes);
  } else if (is_gmem(op)) {
    if (pattern != nullptr) {
      pattern->gmem(lanes, out.gmem);
    } else {
      analyze_gmem(lanes, arch.gm_sector_bytes, out.gmem);
    }
  } else if (op == Op::LoadConst) {
    analyze_const(lanes, arch.const_line_bytes, out.cnst);
  }
}

inline void charge_invariant(const TxCost& c, KernelStats& stats,
                             SegmentFlags& seg) {
  if (!c.issued()) return;
  if (is_smem(c.op)) {
    ++stats.smem_instrs;
    stats.smem_request_cycles += c.smem.request_cycles;
    stats.smem_bytes += c.smem.unique_bytes;
    stats.smem_lane_bytes += c.smem.lane_bytes;
    if (c.op == Op::StoreShared) {
      ++stats.smem_store_instrs;
      stats.smem_store_request_cycles += c.smem.request_cycles;
      seg.sm_store = true;
    }
  } else if (is_gmem(c.op)) {
    ++stats.gm_instrs;
    stats.gm_bytes_useful += c.gmem.lane_bytes;
    seg.gm_load = seg.gm_load || c.op == Op::LoadGlobal;
  } else {
    ++stats.const_instrs;
    stats.const_requests += c.cnst.requests;
  }
}

/// Probes the given caches in the analyzer's order and counts the misses
/// in `c.misses`. A predicated-off group has no sectors or lines, so it
/// probes nothing; a null cache is not probed and misses nothing.
inline void probe_caches(TxCost& c, L2Cache* gm_l2, L2Cache* const_cache) {
  if (is_gmem(c.op) && gm_l2 != nullptr) {
    for (const u64 sector : c.gmem.sectors) c.misses += !gm_l2->access(sector);
  } else if (c.op == Op::LoadConst && const_cache != nullptr) {
    for (u32 i = 0; i < c.cnst.lines_touched; ++i) {
      c.misses += !const_cache->access(c.cnst.line_addrs[i]);
    }
  }
}

/// Charges gm_sectors and the probed misses to the cache-warmth counters.
inline void charge_addr_dep(const TxCost& c, KernelStats& stats) {
  if (is_gmem(c.op)) {
    stats.gm_sectors += c.gmem.sectors.size();
    stats.gm_sectors_dram += c.misses;
  } else if (c.op == Op::LoadConst) {
    stats.const_line_misses += c.misses;
  }
}

inline const TxCost& retire_tx(const Arch& arch, PatternCache* pattern, Op op,
                               std::span<const Access> lanes,
                               L2Cache* gm_l2, L2Cache* const_cache,
                               KernelStats& stats, SegmentFlags& seg,
                               TxCost& scratch) {
  price_tx(arch, pattern, op, lanes, scratch);
  probe_caches(scratch, gm_l2, const_cache);
  charge_invariant(scratch, stats, seg);
  charge_addr_dep(scratch, stats);
  return scratch;
}

/// The §5c memo's lookups and hits since it read `lookups0` and `hits0`.
inline void charge_pattern(const PatternCache& pattern, u64 lookups0,
                           u64 hits0, KernelStats& stats) {
  stats.pattern_lookups += pattern.lookups() - lookups0;
  stats.pattern_hits += pattern.hits() - hits0;
}

/// Closes a segment: a gm_phase when it loaded GM, a gm_dep_phase when it
/// also stored SM (§4 latency floor), and a barrier when a released
/// barrier rather than the block's end closes it.
inline void close_segment(SegmentFlags& seg, bool at_barrier,
                          KernelStats& stats) {
  stats.barriers += at_barrier;
  stats.gm_phases += seg.gm_load;
  stats.gm_dep_phases += seg.gm_load && seg.sm_store;
  seg = SegmentFlags{};
}

/// One warp's arithmetic over a block: lane-op sums and, maximized each on
/// its own, the busiest lane's counts.
struct WarpCompute {
  u64 fma_lane_ops = 0, alu_lane_ops = 0;
  u64 max_fma = 0, max_alu = 0, max_events = 0;

  void add_lane(u64 fma, u64 alu, u64 events) {
    fma_lane_ops += fma;
    alu_lane_ops += alu;
    max_fma = std::max(max_fma, fma);
    max_alu = std::max(max_alu, alu);
    max_events = std::max(max_events, events);
  }
};

/// A warp instruction covers up to warp_size lane-ops, and a warp is as
/// slow as its busiest lane.
inline void charge_warp_compute(const WarpCompute& w, KernelStats& stats) {
  stats.fma_lane_ops += w.fma_lane_ops;
  stats.alu_lane_ops += w.alu_lane_ops;
  stats.fma_warp_instrs += w.max_fma;
  stats.alu_warp_instrs += w.max_alu;
  stats.max_warp_instrs = std::max(stats.max_warp_instrs,
                                   w.max_events + w.max_fma + w.max_alu);
}

}  // namespace kconv::sim
