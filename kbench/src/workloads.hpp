// The benchmark's four workloads and the harness that times them.
//
// Every workload is a closed loop from one process: the next op starts when
// the previous one has returned. Set-up (building tensors, reference
// outputs, seeding the plan store) runs several times before the loop and
// reports its median. The loop runs for the requested seconds, checks every
// output, and yields the end-to-end metrics. A traced run runs every op
// twice, untraced and traced, then probes each layer's public functions
// under spans for the per-layer metrics.
#pragma once

#include <string>
#include <vector>

#include "kbench/src/spans.hpp"
#include "kbench/src/stats.hpp"

namespace kbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  kconv::u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the spans file and scratch plan stores.
  std::string out_dir = ".bench_out";
};

struct RunResult {
  /// The end-to-end metrics BENCHMARK.json gates. Host time is CPU time
  /// here: hypervisor steal stretches wall time by up to 2x for minutes.
  std::vector<Metric> end_to_end;
  /// The wall-clock end-to-end metrics and error_rate, printed beside them.
  std::vector<Metric> printed;
  /// Traced runs only: every per-layer metric, then the tracing overhead
  /// (traced minus untraced twin ops) of each host-timed metric.
  std::vector<Metric> per_layer;
  Tally tally;
  kconv::u64 latency_samples = 0;
  /// Wall seconds each set-up took (setup_s is their CPU-time median).
  std::vector<double> setup_wall_s;
  /// One line per failed op: workload, seed, op index and what failed.
  std::vector<std::string> repros;
  /// Host threads each layer was given, as a JSON object.
  std::string threads_json;
};

/// conv-layers, serve-warm, tune-cold, conv-fleet.
const std::vector<std::string>& workload_names();

/// Name and unit of every per-layer metric, in report order.
const std::vector<Metric>& per_layer_catalog();

/// Runs one workload end to end. Throws kconv::Error for an unknown name.
RunResult run_workload(const RunConfig& cfg, Tracer& tracer);

}  // namespace kbench
