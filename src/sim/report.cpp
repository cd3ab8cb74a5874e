#include "src/sim/report.hpp"

#include "src/analysis/report.hpp"
#include "src/common/strutil.hpp"
#include "src/profile/roofline.hpp"

namespace kconv::sim {

namespace {
const char* limiter_name(OccupancyLimiter l) {
  switch (l) {
    case OccupancyLimiter::Threads: return "threads";
    case OccupancyLimiter::SharedMem: return "shared memory";
    case OccupancyLimiter::Registers: return "registers";
    case OccupancyLimiter::Blocks: return "block slots";
  }
  return "?";
}
}  // namespace

std::string format_report(const Arch& arch, const LaunchResult& res,
                          std::span<const LaunchStage> stages) {
  const KernelStats& s = res.stats;
  const TimingEstimate& t = res.timing;
  std::string out;
  out += strf("=== %s ===\n", arch.name.c_str());
  out += strf("blocks: %llu total, %llu executed%s%s\n",
              static_cast<unsigned long long>(res.blocks_total),
              static_cast<unsigned long long>(res.blocks_executed),
              res.sampled ? " (sampled)" : "",
              res.analytic ? " (analytic: outputs not materialized, "
                             "gm/const miss counters approximate)"
                           : "");
  if (!res.plan_cache_status.empty()) {
    out += strf("plan cache: %s (%llu blocks replayed)\n",
                res.plan_cache_status.c_str(),
                static_cast<unsigned long long>(res.blocks_replayed));
  }
  out += strf("time: %.3f ms  (%.0f cycles, %.1f waves)\n", t.seconds * 1e3,
              t.total_cycles, t.waves);
  out += strf("perf: %.1f GFlop/s  (%.1f%% of %.0f GFlop/s peak), bound: %s\n",
              t.gflops, 100.0 * t.sm_efficiency, arch.peak_sp_gflops(),
              stages.size() > 1 ? "per stage" : t.bound.c_str());
  if (stages.size() > 1) {
    // A fold has no occupancy or pipes of its own: list its stages.
    for (const LaunchStage& st : stages) {
      out += strf("stage %-10s %2u launch(es) %8.3f ms %8llu blocks, DRAM %s\n",
                  st.name.c_str(), st.launches, st.launch.timing.seconds * 1e3,
                  static_cast<unsigned long long>(st.launch.blocks_total),
                  human_bytes(st.launch.dram_bytes()).c_str());
    }
  } else {
    const Occupancy& o = t.occupancy;
    out += strf("occupancy: %u blocks/SM, %u warps/SM (%.0f%%), limited by "
                "%s\n",
                o.blocks_per_sm, o.warps_per_sm, 100.0 * o.fraction,
                limiter_name(o.limiter));
    out += strf("pipes (SM-cycles/wave): compute %.0f, issue %.0f, smem %.0f, "
                "gmem %.0f, const %.0f, latency floor %.0f\n",
                t.pipe_compute, t.pipe_issue, t.pipe_smem, t.pipe_gmem,
                t.pipe_const, t.latency_floor);
  }
  if (s.smem_instrs > 0) {
    out += strf("smem: %llu instrs, %llu request cycles (replay factor "
                "%.2f), %s moved\n",
                static_cast<unsigned long long>(s.smem_instrs),
                static_cast<unsigned long long>(s.smem_request_cycles),
                s.smem_replay_factor(),
                human_bytes(static_cast<double>(s.smem_bytes)).c_str());
  }
  if (s.gm_instrs > 0) {
    out += strf("gmem: %llu instrs, %llu sectors (%llu DRAM / %llu L2-hit), "
                "overfetch %.2fx, %.1f GB/s DRAM\n",
                static_cast<unsigned long long>(s.gm_instrs),
                static_cast<unsigned long long>(s.gm_sectors),
                static_cast<unsigned long long>(s.gm_sectors_dram),
                static_cast<unsigned long long>(s.gm_sectors -
                                                s.gm_sectors_dram),
                s.gm_overfetch(arch.gm_sector_bytes), t.dram_gbps);
  }
  if (s.const_instrs > 0) {
    out += strf("const: %llu instrs, %llu requests (%.2f per instr), "
                "%llu line misses\n",
                static_cast<unsigned long long>(s.const_instrs),
                static_cast<unsigned long long>(s.const_requests),
                static_cast<double>(s.const_requests) /
                    static_cast<double>(s.const_instrs),
                static_cast<unsigned long long>(s.const_line_misses));
  }
  if (s.pattern_lookups > 0) {
    out += strf("pattern cache: %llu lookups, %llu hits (%.1f%%)\n",
                static_cast<unsigned long long>(s.pattern_lookups),
                static_cast<unsigned long long>(s.pattern_hits),
                100.0 * s.pattern_hit_rate());
  }
  out += strf("fma: %llu lane-ops (%llu warp instrs); divergent retires: "
              "%llu; barriers/block: %.1f\n",
              static_cast<unsigned long long>(s.fma_lane_ops),
              static_cast<unsigned long long>(s.fma_warp_instrs),
              static_cast<unsigned long long>(s.divergent_retires),
              s.blocks_executed
                  ? static_cast<double>(s.barriers) /
                        static_cast<double>(s.blocks_executed)
                  : 0.0);
  if (res.fleet.enabled) {
    const FleetResult& f = res.fleet;
    out += strf("fleet: %u devices, shard=%s, link=%s%s\n", f.devices,
                shard_name(f.strategy), f.interconnect.c_str(),
                f.p2p ? " (p2p)" : "");
    out += strf("fleet time: %.3f ms makespan (compute %.3f ms + transfers "
                "%.3f ms total)\n",
                f.seconds * 1e3, f.compute_seconds * 1e3,
                f.transfer_seconds * 1e3);
    out += strf("fleet traffic: h2d %s, d2h %s, d2d %s\n",
                human_bytes(static_cast<double>(f.h2d_bytes)).c_str(),
                human_bytes(static_cast<double>(f.d2h_bytes)).c_str(),
                human_bytes(static_cast<double>(f.d2d_bytes)).c_str());
    out += strf("fleet bounds: inter-device %.2fx of Demmel-Dinh (%s), "
                "inter-level %.2fx (%s)\n",
                f.interdevice_ratio, f.interdevice_verdict.c_str(),
                f.interlevel_ratio, f.interlevel_verdict.c_str());
    for (const FleetDeviceReport& d : f.device_reports) {
      out += strf("  dev%u: %llu blocks, h2d %s, d2h %s, d2d %s, "
                  "transfer %.3f ms, compute %.3f ms\n",
                  d.device, static_cast<unsigned long long>(d.blocks),
                  human_bytes(static_cast<double>(d.ledger.h2d_bytes)).c_str(),
                  human_bytes(static_cast<double>(d.ledger.d2h_bytes)).c_str(),
                  human_bytes(static_cast<double>(d.ledger.d2d_bytes)).c_str(),
                  d.transfer_seconds * 1e3, d.compute_seconds * 1e3);
    }
  }
  if (res.analysis.hazard_checked || res.analysis.linted) {
    out += analysis::format_analysis(res.analysis);
  }
  if (res.profile.enabled) {
    out += profile::format_profile(arch, res.profile);
  }
  return out;
}

std::string fleet_to_json(const FleetResult& f, int indent) {
  const std::string pad(indent, ' ');
  const std::string pad2(indent + 2, ' ');
  const std::string pad4(indent + 4, ' ');
  std::string out = "{\n";
  out += pad2 + strf("\"devices\": %u,\n", f.devices);
  out += pad2 + strf("\"shard\": \"%s\",\n", shard_name(f.strategy));
  out += pad2 + strf("\"interconnect\": \"%s\",\n", f.interconnect.c_str());
  out += pad2 + strf("\"p2p\": %s,\n", f.p2p ? "true" : "false");
  out += pad2 + strf("\"seconds\": %.9g,\n", f.seconds);
  out += pad2 + strf("\"transfer_seconds\": %.9g,\n", f.transfer_seconds);
  out += pad2 + strf("\"compute_seconds\": %.9g,\n", f.compute_seconds);
  out += pad2 + strf("\"h2d_bytes\": %llu,\n",
                     static_cast<unsigned long long>(f.h2d_bytes));
  out += pad2 + strf("\"d2h_bytes\": %llu,\n",
                     static_cast<unsigned long long>(f.d2h_bytes));
  out += pad2 + strf("\"d2d_bytes\": %llu,\n",
                     static_cast<unsigned long long>(f.d2d_bytes));
  out += pad2 + strf("\"interdevice_bound_bytes\": %.9g,\n",
                     f.interdevice_bound_bytes);
  out += pad2 + strf("\"interdevice_moved_bytes\": %.9g,\n",
                     f.interdevice_moved_bytes);
  out += pad2 + strf("\"interdevice_ratio\": %.6g,\n", f.interdevice_ratio);
  out += pad2 + strf("\"interdevice_verdict\": \"%s\",\n",
                     f.interdevice_verdict.c_str());
  out += pad2 + strf("\"interlevel_bound_bytes\": %.9g,\n",
                     f.interlevel_bound_bytes);
  out += pad2 + strf("\"interlevel_moved_bytes\": %.9g,\n",
                     f.interlevel_moved_bytes);
  out += pad2 + strf("\"interlevel_ratio\": %.6g,\n", f.interlevel_ratio);
  out += pad2 + strf("\"interlevel_verdict\": \"%s\",\n",
                     f.interlevel_verdict.c_str());
  out += pad2 + "\"device_reports\": [\n";
  for (std::size_t i = 0; i < f.device_reports.size(); ++i) {
    const FleetDeviceReport& d = f.device_reports[i];
    out += pad4 +
           strf("{\"device\": %u, \"blocks\": %llu, \"h2d_bytes\": %llu, "
                "\"d2h_bytes\": %llu, \"d2d_bytes\": %llu, "
                "\"transfer_seconds\": %.9g, \"compute_seconds\": %.9g, "
                "\"comm_bound_bytes\": %.9g, \"comm_ratio\": %.6g}%s\n",
                d.device, static_cast<unsigned long long>(d.blocks),
                static_cast<unsigned long long>(d.ledger.h2d_bytes),
                static_cast<unsigned long long>(d.ledger.d2h_bytes),
                static_cast<unsigned long long>(d.ledger.d2d_bytes),
                d.transfer_seconds, d.compute_seconds, d.comm_bound_bytes,
                d.comm_ratio,
                i + 1 < f.device_reports.size() ? "," : "");
  }
  out += pad2 + "]\n";
  out += pad + "}";
  return out;
}

std::string to_json(const Arch& arch, const LaunchResult& res,
                    std::span<const LaunchStage> stages) {
  const TimingEstimate& t = res.timing;
  std::string out = "{\n";
  out += strf("  \"arch\": \"%s\",\n", arch.name.c_str());
  out += strf("  \"blocks_total\": %llu,\n",
              static_cast<unsigned long long>(res.blocks_total));
  out += strf("  \"sampled\": %s,\n", res.sampled ? "true" : "false");
  out += strf("  \"analytic\": %s,\n", res.analytic ? "true" : "false");
  out += strf("  \"blocks_replayed\": %llu,\n",
              static_cast<unsigned long long>(res.blocks_replayed));
  if (!res.plan_cache_status.empty()) {
    out += strf("  \"plan_cache_hit\": %s,\n",
                res.plan_cache_hit ? "true" : "false");
    out += strf("  \"plan_cache_status\": \"%s\",\n",
                res.plan_cache_status.c_str());
  }
  out += strf("  \"seconds\": %.9g,\n", t.seconds);
  out += strf("  \"gflops\": %.6g,\n", t.gflops);
  out += strf("  \"bound\": \"%s\",\n", t.bound.c_str());
  out += strf("  \"occupancy_blocks_per_sm\": %u,\n",
              t.occupancy.blocks_per_sm);
  out += strf("  \"pipes\": {\"compute\": %.6g, \"issue\": %.6g, "
              "\"smem\": %.6g, \"gmem\": %.6g, \"const\": %.6g, "
              "\"latency_floor\": %.6g},\n",
              t.pipe_compute, t.pipe_issue, t.pipe_smem, t.pipe_gmem,
              t.pipe_const, t.latency_floor);
  out += "  " + counters_json(kKernelCounters, res.stats, ",\n  ");
  if (stages.size() > 1) {
    out += ",\n  \"stages\": [";
    for (const LaunchStage& st : stages) {
      const LaunchResult& l = st.launch;
      out += strf("%s\n    {\"name\": \"%s\", \"launches\": %u, "
                  "\"blocks_total\": %llu, \"seconds\": %.9g, "
                  "\"gflops\": %.6g, ",
                  &st == stages.data() ? "" : ",", st.name.c_str(),
                  st.launches, static_cast<unsigned long long>(l.blocks_total),
                  l.timing.seconds, l.timing.gflops) +
             counters_json(kKernelCounters, l.stats, ", ") + "}";
    }
    out += "\n  ]";
  }
  if (res.fleet.enabled) {
    out += ",\n  \"fleet\": " + fleet_to_json(res.fleet, 2);
  }
  if (res.analysis.hazard_checked || res.analysis.linted) {
    out += ",\n  \"analysis\": " + analysis::to_json(res.analysis, 2);
  }
  if (res.profile.enabled) {
    out += ",\n  \"profile\": " +
           profile::profile_to_json(arch, res.profile, 2);
  }
  out += "\n}";
  return out;
}

std::string format_brief(const LaunchResult& res) {
  return strf("%8.1f GFlop/s  %8.3f ms  bound=%-7s  smem-replay=%.2f",
              res.timing.gflops, res.timing.seconds * 1e3,
              res.timing.bound.c_str(), res.stats.smem_replay_factor());
}

}  // namespace kconv::sim
