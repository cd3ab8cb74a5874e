// Serving telemetry roll-up: the `telemetry` report/JSON block and the
// health verdicts derived from it (docs/MODEL.md §11).
#pragma once

#include <string>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/scope.hpp"

namespace kconv::obs {

/// The serving driver's running roll-up (serve::ServeStats): the run totals
/// of every request plus the driver's own request, batch and latency facts.
/// All scheduling-invariant except the latency histogram, whose *samples*
/// are wall-clock host times but whose structure (count, merge order) is
/// index-ordered and therefore deterministic.
struct ServeStats : RunTotals {
  u64 processed = 0;
  u64 batches = 0;  ///< same-(network, shape) groups executed
  u64 cold = 0, warm = 0, analytic = 0;
  u64 max_queue_depth = 0;       ///< high-water queued requests
  u64 max_inflight_batches = 0;  ///< high-water batches per drain
  Histogram latency;             ///< host seconds per request

  using RunTotals::operator+=;
  /// Sums the counts and merges the histograms; high-water marks take the
  /// max. One drain's delta merges into the driver's stats this way.
  ServeStats& operator+=(const ServeStats& o);
};

/// Aggregated view of one serving run: the driver's stats plus the sink and
/// plan-store facts. Plain data so tests can build and round-trip it without
/// a serving driver.
struct ServingTelemetry {
  std::string dir;
  u64 events = 0;
  u64 snapshots = 0;
  u64 metric_groups = 0;
  u64 plan_stores = 0;
  ServeStats stats;

  /// Fraction of requests that avoided the cold capture path (replay or
  /// analytic fast path).
  double warm_path_ratio() const {
    return stats.processed == 0
               ? 0.0
               : static_cast<double>(stats.processed - stats.cold) /
                     static_cast<double>(stats.processed);
  }
};

struct HealthVerdict {
  std::string name;     ///< "warm-path" | "communication"
  std::string verdict;  ///< short machine-matchable status
  std::string detail;   ///< paper-cited interpretation
};

/// The two serving health checks with paper-cited interpretations.
std::vector<HealthVerdict> health_verdicts(const ServingTelemetry& t);

/// Single-line JSON object for a taxonomy: {"launches":N,"hit":..,...,
/// "stores":S}. Shared by the serving `plan_cache` block and the
/// `telemetry` block so the two can be cross-checked field by field.
std::string taxonomy_to_json(const PlanCacheTaxonomy& t, u64 stores);

/// The report/JSON `telemetry` block. `indent` is the number of spaces
/// prefixed to every line so callers can nest it in their own object.
std::string telemetry_to_json(const ServingTelemetry& t, int indent);

/// Human-readable health summary for report output.
std::string format_telemetry(const ServingTelemetry& t);

}  // namespace kconv::obs
