#include "src/obs/telemetry_report.hpp"

#include <algorithm>

#include "src/common/strutil.hpp"

namespace kconv::obs {

ServeStats& ServeStats::operator+=(const ServeStats& o) {
  RunTotals::operator+=(o);
  processed += o.processed;
  batches += o.batches;
  cold += o.cold;
  warm += o.warm;
  analytic += o.analytic;
  max_queue_depth = std::max(max_queue_depth, o.max_queue_depth);
  max_inflight_batches =
      std::max(max_inflight_batches, o.max_inflight_batches);
  latency.merge(o.latency);
  return *this;
}

std::vector<HealthVerdict> health_verdicts(const ServingTelemetry& t) {
  const ServeStats& s = t.stats;
  std::vector<HealthVerdict> out;

  {
    HealthVerdict v;
    v.name = "warm-path";
    const double r = t.warm_path_ratio();
    if (s.processed == 0) {
      v.verdict = "idle";
      v.detail = "no requests observed";
    } else if (r >= 0.5) {
      v.verdict = "warm";
      v.detail = strf(
          "%.0f%% of requests rode the plan-replay/analytic fast paths "
          "(MODEL.md §5d): steady-state traffic amortizes Li et al.'s "
          "per-launch capture cost (PAPER.md)",
          r * 100.0);
    } else {
      v.verdict = "cold-dominated";
      v.detail = strf(
          "only %.0f%% of requests avoided cold capture: the memory-"
          "efficiency win Li et al. argue for (PAPER.md) is re-paid per "
          "request until the plan store warms",
          r * 100.0);
    }
    out.push_back(std::move(v));
  }

  {
    HealthVerdict v;
    v.name = "communication";
    if (s.fleet_device_chunks == 0) {
      v.verdict = "single-device";
      v.detail = "no fleet device chunks observed";
    } else if (s.comm_bound_devices == 0) {
      v.verdict = "compute-bound";
      v.detail = strf(
          "all %llu device chunks spent more modeled time computing than "
          "moving bytes: traffic stays inside the Demmel-Dinh "
          "communication lower bound regime (PAPERS.md)",
          (unsigned long long)s.fleet_device_chunks);
    } else {
      v.verdict = "communication-bound";
      v.detail = strf(
          "%llu of %llu device chunks were communication-bound (modeled "
          "transfer > compute): per Demmel-Dinh (PAPERS.md), shrink halo "
          "traffic or coarsen the shard before adding devices",
          (unsigned long long)s.comm_bound_devices,
          (unsigned long long)s.fleet_device_chunks);
    }
    out.push_back(std::move(v));
  }

  return out;
}

std::string taxonomy_to_json(const PlanCacheTaxonomy& t, u64 stores) {
  return strf(
      "{\"launches\": %llu, \"hit\": %llu, \"miss\": %llu, "
      "\"corrupt\": %llu, \"corrupt_payload\": %llu, "
      "\"stale_version\": %llu, \"stale_key\": %llu, \"stale_arch\": %llu, "
      "\"stale_config\": %llu, \"stale_trace_level\": %llu, "
      "\"stale_static_signature\": %llu, \"disabled\": %llu, "
      "\"unplanned\": %llu, \"stores\": %llu}",
      (unsigned long long)t.total(), (unsigned long long)t.hit,
      (unsigned long long)t.miss, (unsigned long long)t.corrupt,
      (unsigned long long)t.corrupt_payload,
      (unsigned long long)t.stale_version, (unsigned long long)t.stale_key,
      (unsigned long long)t.stale_arch, (unsigned long long)t.stale_config,
      (unsigned long long)t.stale_trace_level,
      (unsigned long long)t.stale_static_signature,
      (unsigned long long)t.disabled, (unsigned long long)t.unplanned,
      (unsigned long long)stores);
}

std::string telemetry_to_json(const ServingTelemetry& t, int indent) {
  const ServeStats& s = t.stats;
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::string out = "{\n";
  auto line = [&](const std::string& body, bool last = false) {
    out += pad + "  " + body + (last ? "\n" : ",\n");
  };
  line(strf("\"dir\": \"%s\"", json_escape(t.dir).c_str()));
  line(strf("\"events\": %llu", (unsigned long long)t.events));
  line(strf("\"snapshots\": %llu", (unsigned long long)t.snapshots));
  line(strf("\"metric_groups\": %llu", (unsigned long long)t.metric_groups));
  line(strf("\"requests\": %llu", (unsigned long long)s.processed));
  line(strf("\"batches\": %llu", (unsigned long long)s.batches));
  line(strf("\"cold\": %llu", (unsigned long long)s.cold));
  line(strf("\"warm\": %llu", (unsigned long long)s.warm));
  line(strf("\"analytic\": %llu", (unsigned long long)s.analytic));
  line(strf("\"conv_launches\": %llu", (unsigned long long)s.conv_launches));
  line(strf("\"plan_cache\": %s",
            taxonomy_to_json(s.plan_taxonomy, t.plan_stores).c_str()));
  line(strf("\"warm_path_ratio\": %.6f", t.warm_path_ratio()));
  line(strf("\"fleet_device_chunks\": %llu",
            (unsigned long long)s.fleet_device_chunks));
  line(strf("\"comm_bound_devices\": %llu",
            (unsigned long long)s.comm_bound_devices));
  line(strf("\"max_queue_depth\": %llu",
            (unsigned long long)s.max_queue_depth));
  line(strf("\"max_inflight_batches\": %llu",
            (unsigned long long)s.max_inflight_batches));
  line(strf("\"arena_peak_bytes\": %llu",
            (unsigned long long)s.arena_peak_bytes));
  line(strf("\"latency_s\": %s", s.latency.to_json().c_str()));
  // Health verdicts, machine-checkable.
  out += pad + "  \"health\": [\n";
  const std::vector<HealthVerdict> verdicts = health_verdicts(t);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    out += pad + strf("    {\"name\": \"%s\", \"verdict\": \"%s\", "
                      "\"detail\": \"%s\"}%s\n",
                      verdicts[i].name.c_str(), verdicts[i].verdict.c_str(),
                      json_escape(verdicts[i].detail).c_str(),
                      i + 1 < verdicts.size() ? "," : "");
  }
  out += pad + "  ]\n";
  out += pad + "}";
  return out;
}

std::string format_telemetry(const ServingTelemetry& t) {
  const ServeStats& s = t.stats;
  std::string out;
  out += strf("kconv-scope telemetry -> %s\n", t.dir.c_str());
  out += strf("  events=%llu snapshots=%llu metric-groups=%llu\n",
              (unsigned long long)t.events, (unsigned long long)t.snapshots,
              (unsigned long long)t.metric_groups);
  out += strf("  requests=%llu (cold=%llu warm=%llu analytic=%llu) "
              "launches=%llu\n",
              (unsigned long long)s.processed, (unsigned long long)s.cold,
              (unsigned long long)s.warm, (unsigned long long)s.analytic,
              (unsigned long long)s.conv_launches);
  out += strf("  plan-cache: hit=%llu miss=%llu stale=%llu corrupt=%llu "
              "disabled=%llu unplanned=%llu stores=%llu\n",
              (unsigned long long)s.plan_taxonomy.hit,
              (unsigned long long)s.plan_taxonomy.miss,
              (unsigned long long)s.plan_taxonomy.stale_total(),
              (unsigned long long)(s.plan_taxonomy.corrupt +
                                   s.plan_taxonomy.corrupt_payload),
              (unsigned long long)s.plan_taxonomy.disabled,
              (unsigned long long)s.plan_taxonomy.unplanned,
              (unsigned long long)t.plan_stores);
  if (s.latency.count() > 0) {
    out += strf("  latency ms: p50=%.3f p95=%.3f p99=%.3f (n=%llu%s)\n",
                s.latency.percentile(0.50) * 1e3,
                s.latency.percentile(0.95) * 1e3,
                s.latency.percentile(0.99) * 1e3,
                (unsigned long long)s.latency.count(),
                s.latency.exact() ? ", exact" : ", bucketed");
  }
  out += "  health:\n";
  for (const HealthVerdict& v : health_verdicts(t)) {
    out += strf("    %-13s %-19s %s\n", (v.name + ":").c_str(),
                v.verdict.c_str(), v.detail.c_str());
  }
  return out;
}

}  // namespace kconv::obs
