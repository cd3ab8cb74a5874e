// The serving driver: request queue, shape batching, and warm fast paths.
//
// A ServingDriver accepts inference requests against named networks,
// batches queued work that targets the same (network, input shape) pair,
// and executes batches on the process-wide ThreadPool — each request on its
// own simulated device (requests are independent; the simulator is
// deterministic, so results are byte-identical for any worker count).
//
// All requests share one PlanCache: the first (cold) request through a
// network captures and persists each conv's launch plan; every later (warm)
// request replays it, and with `launch.analytic` set, warm conv launches
// take the §5d pure-analytic fast path — timing/traffic derived from the
// stored plan's class traces with zero representative block execution (such
// requests return timings but no activation data).
//
// Host-parallelism caveat: request batches scale with worker threads, but on
// a single-CPU host (the CI runner) `threads > 1` only overlaps scheduling,
// not compute — throughput numbers there reflect one core.
#pragma once

#include <mutex>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/obs/scope.hpp"
#include "src/obs/telemetry_report.hpp"
#include "src/serve/networks.hpp"
#include "src/sim/plan_cache.hpp"

namespace kconv::serve {

struct ServeOptions {
  /// Worker threads for request-level parallelism (0 = hardware count).
  u32 threads = 1;
  /// Shared across all requests; nullptr serves every request cold. This
  /// is the driver's only plan store: a non-null `launch.plan_cache` is
  /// rejected at construction.
  sim::PlanCache* plan_cache = nullptr;
  /// Fold conv -> bias+ReLU pairs into the conv write-back.
  bool fuse = true;
  /// Base launch options for every node (replay, num_threads, profile,
  /// analytic...). `launch.analytic` runs warm conv launches analytically
  /// (timings only, no output data).
  sim::LaunchOptions launch;
  /// kconv-scope sink (docs/MODEL.md §11). When set, the driver mints one
  /// trace per request (trace = request id + 1; trace 0 is the driver's
  /// batch lane), spans every queue wait / batch / execution, rolls metrics
  /// up per (network, shape, mode) in request-index order, and snapshots
  /// them after each drain. Purely observational: replies and every
  /// scheduling-invariant counter are byte-identical with this null or set.
  obs::TelemetrySink* telemetry = nullptr;
};

struct ServeReply {
  u64 id = 0;
  bool ok = false;        ///< graph executed and produced valid output
  bool warm = false;      ///< every plan-cached conv launch hit
  bool analytic = false;  ///< conv launches took the analytic fast path
  double sim_seconds = 0.0;   ///< simulated device time of the whole graph
  double host_seconds = 0.0;  ///< wall-clock host time for this request
  tensor::Tensor output;
};

/// The driver's roll-up: run totals of every request plus its own request,
/// batch and latency facts (docs/MODEL.md §11).
using ServeStats = obs::ServeStats;

class ServingDriver {
 public:
  explicit ServingDriver(ServeOptions opt);

  /// Queues one request; `net` must outlive the drain that serves it.
  /// Returns the request id replies are matched by.
  u64 enqueue(const Network& net, tensor::Tensor input);

  /// Runs every queued request, batching same-(network, shape) work, and
  /// returns replies ordered by request id. Thread-safe against concurrent
  /// enqueue() (requests queued mid-drain wait for the next drain).
  std::vector<ServeReply> drain();

  ServeStats stats() const;
  const ServeOptions& options() const { return opt_; }

 private:
  struct Pending {
    u64 id = 0;
    const Network* net = nullptr;
    tensor::Tensor input;
    u64 request_span = 0;  ///< open from enqueue to reply completion
    u64 queued_span = 0;   ///< open from enqueue to execution start
  };

  ServeOptions opt_;
  ThreadPool pool_;
  mutable std::mutex mu_;
  std::vector<Pending> queue_;
  u64 next_id_ = 0;
  ServeStats stats_;
};

}  // namespace kconv::serve
