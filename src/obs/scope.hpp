// kconv-scope: request-scoped tracing for the serving stack
// (docs/MODEL.md §11).
//
// A TelemetrySink is a purely observational side channel: it mints span IDs,
// appends structured events to <dir>/events.jsonl, owns the MetricsRegistry
// snapshotted to <dir>/metrics.jsonl, and retains span/device-lane records in
// memory for the unified Chrome trace export. Nothing in the simulator reads
// it back — the house invariant (outputs and scheduling-invariant counters
// byte-identical with telemetry on or off) holds because every hook is a
// guarded append.
//
// Propagation is by value: a TelemetryScope {sink, trace, parent} rides in
// sim::LaunchOptions. The serving driver mints trace = request id and a
// request span at enqueue; run_graph opens a span per node and re-parents the
// scope it hands to conv2d/launch; launch_impl opens the launch span, records
// the §5d plan-cache outcome, and one event per fleet device chunk. A default
// scope (null sink) turns every hook into a no-op.
#pragma once

#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/types.hpp"
#include "src/obs/metrics.hpp"

namespace kconv::obs {

/// Running totals over the §5d plan-cache outcome taxonomy. One counter per
/// status string PlanCache::load_view (and launch_impl) can report, plus
/// `unplanned` for launches with no plan store configured — so total() always
/// equals the number of conv launches observed.
struct PlanCacheTaxonomy {
  u64 hit = 0;
  u64 miss = 0;
  u64 corrupt = 0;
  u64 corrupt_payload = 0;
  u64 stale_version = 0;
  u64 stale_key = 0;
  u64 stale_arch = 0;
  u64 stale_config = 0;
  u64 stale_trace_level = 0;
  u64 stale_static_signature = 0;
  u64 disabled = 0;
  u64 unplanned = 0;  ///< launch ran with no plan store at all

  /// Maps a LaunchResult::plan_cache_status string ("" → unplanned; unknown
  /// strings conservatively count as corrupt so total() stays exhaustive).
  void add(const std::string& status, u64 n = 1);
  u64 total() const;
  u64 stale_total() const {
    return stale_version + stale_key + stale_arch + stale_config +
           stale_trace_level + stale_static_signature;
  }
  u64 miss_total() const { return total() - hit; }
  PlanCacheTaxonomy& operator+=(const PlanCacheTaxonomy& o);
  bool operator==(const PlanCacheTaxonomy&) const = default;
};

/// The launch totals one graph run reports and every serving layer above it
/// rolls up: run_graph folds each conv launch into one, the serving driver
/// folds requests, and the telemetry report prints the result (docs/MODEL.md
/// §11). Scheduling-invariant: pure functions of the launch sequence,
/// identical across thread counts and with telemetry on or off.
struct RunTotals {
  u64 conv_launches = 0;
  /// §5d plan-cache outcome of every conv launch; total() == conv_launches.
  PlanCacheTaxonomy plan_taxonomy;

  /// Fusion roofline accounting: GM bytes the fused epilogue never moved —
  /// the standalone bias_relu pass's write + read round-trip of each fused
  /// intermediate (8 bytes per activation element).
  u64 fused_pairs = 0;
  double fusion_gm_bytes_eliminated = 0.0;

  /// Fleet aggregates (LaunchOptions::fleet.devices > 1): modeled staging
  /// and halo traffic of every sharded conv launch (docs/MODEL.md §9).
  u64 fleet_h2d_bytes = 0, fleet_d2h_bytes = 0, fleet_d2d_bytes = 0;
  double fleet_transfer_seconds = 0.0;
  u64 fleet_device_chunks = 0;  ///< per-device chunk reports seen
  u64 comm_bound_devices = 0;   ///< chunks the §9 comm-bound rule flags

  u64 arena_slot_reuses = 0;  ///< node outputs placed into a recycled slot
  u64 arena_peak_bytes = 0;   ///< activation bytes live at once; max-merged

  /// Sums every field, except arena_peak_bytes, which takes the max.
  RunTotals& operator+=(const RunTotals& o);
  bool operator==(const RunTotals&) const = default;

  /// Adds the registry's per-request counters (conv_launches, fused_pairs,
  /// plan_hit, plan_miss, arena_slot_reuses, fleet_device_chunks,
  /// comm_bound_devices) and the arena_peak_bytes gauge.
  void add_to(Metrics& m) const;
};

/// One completed (or still-open, end_us < 0) span.
struct SpanRecord {
  u64 trace = 0;   ///< request id; 0 = driver-level (batch lane)
  u64 span = 0;    ///< unique within the sink, minted from 1
  u64 parent = 0;  ///< 0 = root
  std::string tier;  ///< "serving" | "graph" | "launch"
  std::string name;
  std::string args_json;  ///< "" or a JSON object literal
  double begin_us = 0.0;
  double end_us = -1.0;
};

/// One priced interval on a device lane of the unified trace: transfer time
/// from the chunk's TransferLedger or its modeled compute time. Lane
/// placement uses a per-device cursor so each track is monotone regardless
/// of worker-thread arrival order.
struct DeviceLaneSlice {
  u32 device = 0;
  bool transfer = false;  ///< true = transfer lane, false = compute lane
  std::string name;
  double begin_us = 0.0;
  double dur_us = 0.0;
  u64 bytes = 0;
};

/// Thread-safe JSONL event sink + metrics owner. Construction creates the
/// output directory and opens events.jsonl / metrics.jsonl for writing,
/// throwing kconv::Error if the directory is unusable (the CLI maps that to
/// exit 2, mirroring the PlanCache probe).
class TelemetrySink {
 public:
  explicit TelemetrySink(std::string dir);
  ~TelemetrySink();
  TelemetrySink(const TelemetrySink&) = delete;
  TelemetrySink& operator=(const TelemetrySink&) = delete;

  const std::string& dir() const { return dir_; }

  /// Opens a span and appends its span_begin event. Returns the span id.
  u64 begin_span(u64 trace, u64 parent, const char* tier,
                 const std::string& name, std::string args_json = {});
  void end_span(u64 span);

  /// §5d plan-cache outcome for one launch ("" normalises to "unplanned").
  void plan_cache_event(u64 trace, u64 span, const std::string& status,
                        u64 blocks_replayed);
  /// Per-device fleet chunk: ledger byte totals, priced transfer vs modeled
  /// compute seconds, and the caller's communication-bound verdict
  /// (sim::comm_bound). Also extends the device's transfer + compute lanes
  /// for the unified trace.
  void fleet_device_event(u64 trace, u64 span, u32 device, u64 blocks,
                          u64 h2d_bytes, u64 d2h_bytes, u64 d2d_bytes,
                          double transfer_s, double compute_s,
                          double comm_ratio, bool comm_bound);
  /// Arena slot assignment for one graph node output; reused = true when the
  /// liveness planner recycled a previously occupied slot.
  void arena_event(u64 trace, u64 span, const std::string& node, i64 slot,
                   bool reused, u64 bytes);

  /// Merge one deterministic delta into a registry group. Serialized by the
  /// sink mutex; callers are responsible for calling in index order.
  void merge_metrics(const MetricsKey& key, const Metrics& delta);
  /// Appends one snapshot (all groups) to metrics.jsonl.
  void snapshot_metrics();

  u64 events_written() const;
  u64 snapshots_written() const;
  u64 open_spans() const;
  std::vector<SpanRecord> spans() const;
  std::vector<DeviceLaneSlice> device_slices() const;
  MetricsRegistry metrics_copy() const;

  /// Monotonic microseconds since sink construction.
  double now_us() const;

 private:
  void write_line(const std::string& line);  // callers hold mu_

  std::string dir_;
  std::FILE* events_ = nullptr;
  std::FILE* metrics_file_ = nullptr;
  mutable std::mutex mu_;
  u64 next_span_ = 1;
  u64 events_written_ = 0;
  u64 snapshots_ = 0;
  u64 open_ = 0;
  std::vector<SpanRecord> spans_;
  std::map<u64, std::size_t> span_index_;
  std::vector<DeviceLaneSlice> device_slices_;
  std::map<u32, double> device_cursor_us_;
  MetricsRegistry registry_;
  i64 epoch_ns_ = 0;
};

/// Value-propagated handle threaded through LaunchOptions. Default state is
/// "off": every instrumentation site guards on on().
struct TelemetryScope {
  TelemetrySink* sink = nullptr;
  u64 trace = 0;   ///< request id this work belongs to
  u64 parent = 0;  ///< enclosing span id
  bool on() const { return sink != nullptr; }
  /// Scope for work nested under `span`.
  TelemetryScope child(u64 span) const { return TelemetryScope{sink, trace, span}; }
};

}  // namespace kconv::obs
