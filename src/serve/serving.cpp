#include "src/serve/serving.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/strutil.hpp"
#include "src/sim/sim.hpp"

namespace kconv::serve {

ServingDriver::ServingDriver(ServeOptions opt)
    : opt_(std::move(opt)), pool_(opt_.threads) {
  KCONV_CHECK(opt_.launch.plan_cache == nullptr,
              "ServeOptions::launch.plan_cache is not read: pass the plan "
              "store as ServeOptions::plan_cache");
}

u64 ServingDriver::enqueue(const Network& net, tensor::Tensor input) {
  std::lock_guard<std::mutex> lock(mu_);
  Pending p;
  const u64 id = next_id_++;
  p.id = id;
  p.net = &net;
  p.input = std::move(input);
  if (opt_.telemetry != nullptr) {
    // Trace = request id + 1: trace 0 is the driver's batch lane. The
    // request span stays open until the reply is complete; the queued span
    // closes when a worker picks the request up, making queue wait a
    // first-class interval in the unified trace.
    const u64 trace = id + 1;
    p.request_span = opt_.telemetry->begin_span(
        trace, 0, "serving", "request",
        strf("{\"id\":%llu,\"network\":\"%s\","
             "\"shape\":\"%lldx%lldx%lld\"}",
             static_cast<unsigned long long>(id), net.name.c_str(),
             static_cast<long long>(p.input.c()),
             static_cast<long long>(p.input.h()),
             static_cast<long long>(p.input.w())));
    p.queued_span = opt_.telemetry->begin_span(trace, p.request_span,
                                               "serving", "queued");
  }
  queue_.push_back(std::move(p));
  stats_.max_queue_depth =
      std::max<u64>(stats_.max_queue_depth, queue_.size());
  return id;
}

ServeStats ServingDriver::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<ServeReply> ServingDriver::drain() {
  std::vector<Pending> work;
  {
    std::lock_guard<std::mutex> lock(mu_);
    work.swap(queue_);
  }
  if (work.empty()) return {};

  // Batch by (network, input shape) in first-appearance order; requests
  // keep their queue order inside a batch.
  struct Batch {
    const Network* net;
    Shape shape;
    std::vector<std::size_t> members;  // indices into `work`
  };
  std::vector<Batch> batches;
  for (std::size_t i = 0; i < work.size(); ++i) {
    const Shape s{work[i].input.c(), work[i].input.h(), work[i].input.w()};
    Batch* home = nullptr;
    for (Batch& b : batches) {
      if (b.net == work[i].net && b.shape == s) {
        home = &b;
        break;
      }
    }
    if (home == nullptr) {
      batches.push_back(Batch{work[i].net, s, {}});
      home = &batches.back();
    }
    home->members.push_back(i);
  }

  GraphRunOptions gopt;
  gopt.fuse = opt_.fuse;
  gopt.launch = opt_.launch;
  gopt.launch.plan_cache = opt_.plan_cache;

  obs::TelemetrySink* const sink = opt_.telemetry;
  std::vector<ServeReply> replies(work.size());
  std::vector<obs::RunTotals> totals(work.size());
  ServeStats delta;
  delta.max_inflight_batches = batches.size();
  for (const Batch& batch : batches) {
    ++delta.batches;
    u64 batch_span = 0;
    if (sink != nullptr) {
      batch_span = sink->begin_span(
          0, 0, "serving",
          strf("batch %s %lldx%lldx%lld", batch.net->name.c_str(),
               static_cast<long long>(batch.shape.c),
               static_cast<long long>(batch.shape.h),
               static_cast<long long>(batch.shape.w)),
          strf("{\"requests\":%zu}", batch.members.size()));
    }
    // One simulated device per request: requests are independent and the
    // simulator is deterministic, so results do not depend on which worker
    // (or how many workers) ran them.
    pool_.parallel_for(
        0, batch.members.size(), 1, [&](u64 begin, u64 end, u32) {
          for (u64 m = begin; m < end; ++m) {
            const Pending& p = work[batch.members[m]];
            u64 exec_span = 0;
            GraphRunOptions g = gopt;
            if (sink != nullptr) {
              sink->end_span(p.queued_span);
              exec_span = sink->begin_span(p.id + 1, p.request_span,
                                           "serving", "execute");
              g.launch.telemetry =
                  obs::TelemetryScope{sink, p.id + 1, exec_span};
            }
            const auto t0 = std::chrono::steady_clock::now();
            sim::Device dev(sim::kepler_k40m());
            GraphRun r = run_graph(dev, p.net->graph, p.input, g);
            const auto t1 = std::chrono::steady_clock::now();
            ServeReply& reply = replies[batch.members[m]];
            reply.id = p.id;
            reply.ok = r.output_valid;
            reply.warm = r.warm;
            reply.analytic = r.analytic;
            reply.sim_seconds = r.total_seconds;
            reply.host_seconds =
                std::chrono::duration<double>(t1 - t0).count();
            reply.output = std::move(r.output);
            totals[batch.members[m]] = r;  // its RunTotals part
            if (sink != nullptr) {
              sink->end_span(exec_span);
              sink->end_span(p.request_span);
            }
          }
        });
    if (sink != nullptr) sink->end_span(batch_span);
  }
  // Request-index order: every merge below (stats and the telemetry
  // registry alike) is deterministic across worker-thread counts (§5a).
  for (std::size_t i = 0; i < work.size(); ++i) {
    ++delta.processed;
    const char* mode;
    if (replies[i].analytic) {
      ++delta.analytic;
      mode = "warm_analytic";
    } else if (replies[i].warm) {
      ++delta.warm;
      mode = "warm_replay";
    } else {
      ++delta.cold;
      mode = "cold";
    }
    delta += totals[i];
    delta.latency.add(replies[i].host_seconds);
    if (sink != nullptr) {
      obs::MetricsKey key;
      key.network = work[i].net->name;
      key.shape = strf("%lldx%lldx%lld",
                       static_cast<long long>(work[i].input.c()),
                       static_cast<long long>(work[i].input.h()),
                       static_cast<long long>(work[i].input.w()));
      key.mode = mode;
      obs::Metrics m;
      m.count("requests");
      totals[i].add_to(m);
      m.gauge_max("queue_depth", static_cast<double>(work.size()));
      m.gauge_max("inflight_batches", static_cast<double>(batches.size()));
      m.hist("latency_s").add(replies[i].host_seconds);
      m.hist("sim_s").add(replies[i].sim_seconds);
      sink->merge_metrics(key, m);
    }
  }
  if (sink != nullptr) sink->snapshot_metrics();
  std::sort(replies.begin(), replies.end(),
            [](const ServeReply& a, const ServeReply& b) {
              return a.id < b.id;
            });
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ += delta;
  }
  return replies;
}

}  // namespace kconv::serve
