// Counters accumulated while executing device code.
//
// KernelStats is the interface between the functional/transaction layer and
// the timing model: it holds exactly the quantities the paper reasons about
// (GM sectors, SM request cycles and conflicts, CM broadcasts, FMA work).
#pragma once

#include "src/common/counters.hpp"
#include "src/common/types.hpp"

namespace kconv::sim {

/// Aggregated execution statistics for one or more thread blocks.
struct KernelStats {
  // --- Compute --------------------------------------------------------------
  /// Total FMA lane-operations executed (one lane-FMA = 2 flops).
  u64 fma_lane_ops = 0;
  /// Warp-level FMA instructions (per warp: max over lanes of its FMA count).
  u64 fma_warp_instrs = 0;
  /// Non-FMA arithmetic charged by kernels (address math, adds); lane ops.
  u64 alu_lane_ops = 0;
  u64 alu_warp_instrs = 0;

  // --- Shared memory ---------------------------------------------------------
  /// Warp-level shared-memory instructions issued (loads + stores).
  u64 smem_instrs = 0;
  /// Request cycles consumed after bank-conflict analysis. For a
  /// conflict-free access this equals 1 per instruction; conflicts add
  /// replays. This is the quantity the paper's §2.1 model halves by
  /// matching W_CD to W_SMB.
  u64 smem_request_cycles = 0;
  /// Useful bytes moved to/from shared memory (sum of unique lane bytes).
  u64 smem_bytes = 0;
  /// Sum of the bytes each lane asked for, per SM instruction (counts
  /// broadcast reads at full width, unlike smem_bytes). Divided by
  /// warp_size * smem_instrs this is the average lane access width the
  /// bank-width-mismatch lint compares against W_SMB.
  u64 smem_lane_bytes = 0;
  /// Store-side split of smem_instrs / smem_request_cycles: the paper's
  /// transposed-filter conflicts (§4.2) live entirely on stores and would
  /// be diluted by conflict-free loads in the combined replay factor.
  u64 smem_store_instrs = 0;
  u64 smem_store_request_cycles = 0;

  // --- Global memory ----------------------------------------------------------
  /// Warp-level global-memory instructions issued.
  u64 gm_instrs = 0;
  /// 32B sectors requested (after coalescing, before L2).
  u64 gm_sectors = 0;
  /// Sectors that missed L2 and were served by DRAM.
  u64 gm_sectors_dram = 0;
  /// Useful bytes requested by lanes (not padded to sector granularity).
  u64 gm_bytes_useful = 0;

  // --- Constant memory ---------------------------------------------------------
  /// Warp-level constant loads issued.
  u64 const_instrs = 0;
  /// Serialized constant requests (1 when the whole warp broadcasts).
  u64 const_requests = 0;
  /// Constant-cache line misses (charged as GM sectors as well).
  u64 const_line_misses = 0;

  // --- Control ------------------------------------------------------------------
  /// __syncthreads barriers executed (per block).
  u64 barriers = 0;
  /// Barrier-separated program segments that contain >= 1 GM load.
  u64 gm_phases = 0;
  /// Segments containing BOTH a GM load and a shared-memory store: the
  /// load's latency sits on the critical path into the following barrier
  /// (no prefetch distance). Kernels that prefetch into registers and
  /// publish to SM in a later segment avoid this — the timing model's
  /// latency floor charges only these dependent phases.
  u64 gm_dep_phases = 0;
  /// Warp transactions that retired with lane subgroups (divergence replays).
  u64 divergent_retires = 0;

  // --- Analyzer memoization -------------------------------------------------
  /// Warp transactions looked up in the access-pattern cache (MODEL.md §5c;
  /// 0 when the cache is disabled — all-predicated-off groups bypass it).
  u64 pattern_lookups = 0;
  /// Lookups served from the cache without re-running the analyzer.
  u64 pattern_hits = 0;

  /// Longest per-warp instruction stream (critical path for the latency floor).
  u64 max_warp_instrs = 0;

  /// Thread blocks whose statistics are accumulated here.
  u64 blocks_executed = 0;

  KernelStats& operator+=(const KernelStats& o);
  bool operator==(const KernelStats&) const = default;
  /// True when no counter was charged (a phase the launch never entered).
  bool empty() const { return *this == KernelStats{}; }

  /// Total floating-point operations (FMA counts as 2).
  double flops() const { return 2.0 * static_cast<double>(fma_lane_ops); }

  /// Average SM request cycles per SM instruction (1.0 = conflict-free).
  double smem_replay_factor() const {
    return smem_instrs == 0 ? 0.0
                            : static_cast<double>(smem_request_cycles) /
                                  static_cast<double>(smem_instrs);
  }

  /// Average SM request cycles per SM *store* instruction.
  double smem_store_replay_factor() const {
    return smem_store_instrs == 0
               ? 0.0
               : static_cast<double>(smem_store_request_cycles) /
                     static_cast<double>(smem_store_instrs);
  }

  /// Access-pattern-cache hit rate (0.0 when the cache never engaged).
  double pattern_hit_rate() const {
    return pattern_lookups == 0 ? 0.0
                                : static_cast<double>(pattern_hits) /
                                      static_cast<double>(pattern_lookups);
  }

  /// GM over-fetch: sector bytes actually moved / bytes the lanes asked for.
  double gm_overfetch(u32 sector_bytes) const {
    return gm_bytes_useful == 0
               ? 0.0
               : static_cast<double>(gm_sectors) * sector_bytes /
                     static_cast<double>(gm_bytes_useful);
  }
};

/// Every KernelStats counter with its replay class, in declaration order
/// (which is also the plan-file byte order, docs/MODEL.md §5d).
inline constexpr auto kKernelCounters = [] {
  using S = KernelStats;
  using enum CounterClass;
  return CounterTable<S, 25>{{
      {"fma_lane_ops", &S::fma_lane_ops, Compute},
      {"fma_warp_instrs", &S::fma_warp_instrs, Compute},
      {"alu_lane_ops", &S::alu_lane_ops, Compute},
      {"alu_warp_instrs", &S::alu_warp_instrs, Compute},
      {"smem_instrs", &S::smem_instrs, Invariant},
      {"smem_request_cycles", &S::smem_request_cycles, Invariant},
      {"smem_bytes", &S::smem_bytes, Invariant},
      {"smem_lane_bytes", &S::smem_lane_bytes, Invariant},
      {"smem_store_instrs", &S::smem_store_instrs, Invariant},
      {"smem_store_request_cycles", &S::smem_store_request_cycles, Invariant},
      {"gm_instrs", &S::gm_instrs, Invariant},
      {"gm_sectors", &S::gm_sectors, AddrDep},
      {"gm_sectors_dram", &S::gm_sectors_dram, Warmth},
      {"gm_bytes_useful", &S::gm_bytes_useful, Invariant},
      {"const_instrs", &S::const_instrs, Invariant},
      {"const_requests", &S::const_requests, Invariant},
      {"const_line_misses", &S::const_line_misses, Warmth},
      {"barriers", &S::barriers, Invariant},
      {"gm_phases", &S::gm_phases, Invariant},
      {"gm_dep_phases", &S::gm_dep_phases, Invariant},
      {"divergent_retires", &S::divergent_retires, Invariant},
      {"pattern_lookups", &S::pattern_lookups, Instrument},
      {"pattern_hits", &S::pattern_hits, Instrument},
      {"max_warp_instrs", &S::max_warp_instrs, Compute, /*max=*/true},
      {"blocks_executed", &S::blocks_executed, Blocks},
  }};
}();
static_assert(covers_every_field(kKernelCounters),
              "kKernelCounters must list every KernelStats field once");

inline KernelStats& KernelStats::operator+=(const KernelStats& o) {
  add_counters(kKernelCounters, *this, o);
  return *this;
}

/// The counters `level` compares that differ between two launches, as
/// "field: a=X b=Y" lines — the house invariant's one predicate
/// (docs/MODEL.md §1): Exact between runs with one schedule, Schedule
/// across thread counts, fleets and replay, Analytic against analytic
/// launches.
inline std::vector<std::string> stats_mismatches(const KernelStats& a,
                                                 const KernelStats& b,
                                                 StatsLevel level,
                                                 const char* a_name = "a",
                                                 const char* b_name = "b") {
  return counter_mismatches(kKernelCounters, a, b, level, a_name, b_name);
}

}  // namespace kconv::sim
