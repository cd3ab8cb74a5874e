// Fleet sharding: one launch's block grid across N simulated devices.
//
// A fleet launch partitions the grid by ShardStrategy into per-device block
// ranges — the chunk unit of the parallel launcher generalized to a
// (device, block-range, transfer-ledger) triple. Execution semantics are
// unchanged: every block runs against the same functional memory, so
// outputs are byte-identical and all scheduling-invariant counters are
// exact versus a single-device launch (each device's chunk probes a cold
// L2 shadow and constant-cache replica, so the two cache-warmth counters
// are partition-dependent exactly as in docs/MODEL.md §5a). What the fleet
// ADDS is the modeled inter-device layer: per-device staging/halo ledgers
// (transfer.hpp) and a FleetAnalyzer that compares the traffic each shard
// strategy creates against Demmel–Dinh-style communication lower bounds
// (docs/MODEL.md §9).
#pragma once

#include <string>
#include <vector>

#include "src/sim/arch.hpp"
#include "src/sim/dim.hpp"
#include "src/sim/stats.hpp"
#include "src/sim/transfer.hpp"

namespace kconv::sim {

/// Half-open interval of flat block ids, in launch (row-major flat) order.
struct BlockRange {
  u64 begin = 0;
  u64 end = 0;
};

/// One device's slice of a sharded launch: the (device, block-range,
/// transfer-ledger) triple the chunk machinery executes.
struct FleetShard {
  u32 device = 0;
  std::vector<BlockRange> runs;
  u64 blocks = 0;
  /// Spatial strategy: this device's output-row-group interval [row_begin,
  /// row_end) — drives the halo-exchange model. Unused otherwise.
  u64 row_begin = 0;
  u64 row_end = 0;
  TransferLedger ledger;
};

/// Splits `grid` into per-device shards. Throws kconv::Error when the
/// strategy needs an axis the kernel did not declare in `hints` (e.g.
/// channel-sharding a kernel with no filter-group axis) or when the grid
/// geometry cannot be sharded that way. Devices beyond the shardable
/// extent receive zero blocks (and stage nothing).
std::vector<FleetShard> shard_grid(const Dim3& grid, const FleetOptions& fleet,
                                   const FleetHints& hints);

/// Fills every shard's TransferLedger from the shard geometry: staging
/// (host->device input shard + filters, device->host output shard) plus
/// device->device halo bytes for interior spatial cuts. Bytes are charged
/// to the receiving device; ops count DMA operations.
void model_transfers(const FleetOptions& fleet, const FleetHints& hints,
                     u64 blocks_total, std::vector<FleetShard>& shards);

// ---------------------------------------------------------------------------
// FleetAnalyzer: communication-lower-bound attribution (docs/MODEL.md §9).

/// The §9 communication-bound rule: modeled transfer time exceeds modeled
/// compute time. A Functional trace carries no compute time, so it never
/// counts as communication-bound.
inline bool comm_bound(double transfer_s, double compute_s) {
  return transfer_s > compute_s && compute_s > 0.0;
}

/// Per-device roll-up reported to the user.
struct FleetDeviceReport {
  u32 device = 0;
  u64 blocks = 0;
  TransferLedger ledger;
  /// Modeled staging/exchange time of this device's ledger.
  double transfer_seconds = 0.0;
  /// Modeled execution time of this device's blocks (0 under Functional
  /// traces, which carry no timing).
  double compute_seconds = 0.0;
  /// Demmel–Dinh inter-device bound: bytes this device's outputs provably
  /// require over the interconnect (input footprint + filter slice +
  /// output write-back).
  double comm_bound_bytes = 0.0;
  /// ledger.total_bytes() / comm_bound_bytes.
  double comm_ratio = 0.0;
};

/// Launch-level fleet report, embedded in LaunchResult and the report/JSON
/// `fleet` block.
struct FleetResult {
  bool enabled = false;
  u32 devices = 0;
  ShardStrategy strategy = ShardStrategy::Batch;
  std::string interconnect;
  bool p2p = false;

  /// Fleet makespan: max over devices of (transfer + compute) seconds.
  double seconds = 0.0;
  double transfer_seconds = 0.0;  ///< sum over devices
  double compute_seconds = 0.0;   ///< max over devices
  u64 h2d_bytes = 0, d2h_bytes = 0, d2d_bytes = 0;

  /// Inter-device attribution: measured(modeled) interconnect bytes vs the
  /// Demmel–Dinh footprint bound summed over devices.
  double interdevice_bound_bytes = 0.0;
  double interdevice_moved_bytes = 0.0;
  double interdevice_ratio = 0.0;
  /// "optimal" | "within-<k>x" | "communication-bound".
  std::string interdevice_verdict;

  /// Inter-level (GM) attribution: measured GM sector bytes vs
  /// max(footprint, flops/sqrt(M_smem)) per device, summed.
  double interlevel_bound_bytes = 0.0;
  double interlevel_moved_bytes = 0.0;
  double interlevel_ratio = 0.0;
  std::string interlevel_verdict;

  std::vector<FleetDeviceReport> device_reports;
};

/// Builds the fleet report: per-device ledger times, Demmel–Dinh bounds
/// (the memory-independent footprint bound per device plus the
/// flops/sqrt(M) inter-level bound, constant factors dropped — see
/// docs/MODEL.md §9), and the verdicts. `per_device_stats` and
/// `compute_seconds` are indexed like `shards`.
FleetResult analyze_fleet(const Arch& arch, const FleetOptions& fleet,
                          const FleetHints& hints, u64 blocks_total,
                          const std::vector<FleetShard>& shards,
                          const std::vector<KernelStats>& per_device_stats,
                          const std::vector<double>& compute_seconds);

}  // namespace kconv::sim
