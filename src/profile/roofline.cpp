#include "src/profile/roofline.hpp"

#include <algorithm>

#include "src/common/strutil.hpp"

namespace kconv::profile {

namespace {

const char* roofline_kind_name(RooflineHints::Kind k) {
  switch (k) {
    case RooflineHints::Kind::None: return "none";
    case RooflineHints::Kind::Special: return "special";
    case RooflineHints::Kind::General: return "general";
    case RooflineHints::Kind::ImplicitGemm: return "implicit_gemm";
  }
  return "?";
}

// Binding resource + efficiency from a phase's pipe decomposition. The
// SM pipe splits into "sm-bound" (issue-rate limited) vs
// "bank-conflict-bound" (replay factor well above 1) because the paper's
// whole §4 is about removing the latter.
void attribute_phase(PhaseAttribution& a) {
  const sim::KernelStats& s = a.stats;
  const PipeCycles& p = a.pipes;
  const struct {
    double v;
    int which;  // 0 compute/issue, 1 smem, 2 gmem, 3 const, 4 sync
  } pipes[] = {{p.compute, 0}, {p.issue, 0}, {p.smem, 1},
               {p.gmem, 2},    {p.cmem, 3},  {p.sync, 4}};
  double best = 0.0;
  int which = -1;
  for (const auto& e : pipes) {
    if (e.v > best) {
      best = e.v;
      which = e.which;
    }
  }
  switch (which) {
    case 0: {
      a.bound = "compute-bound";
      const double ops =
          static_cast<double>(s.fma_lane_ops + s.alu_lane_ops);
      a.efficiency =
          ops > 0.0 ? static_cast<double>(s.fma_lane_ops) / ops : 1.0;
      break;
    }
    case 1: {
      const u64 instrs = s.smem_instrs;
      const u64 cycles = s.smem_request_cycles;
      const double replay =
          instrs > 0 ? static_cast<double>(cycles) / instrs : 1.0;
      a.bound = replay > 1.2 ? "bank-conflict-bound" : "sm-bound";
      a.efficiency = cycles > 0 ? static_cast<double>(instrs) / cycles : 1.0;
      break;
    }
    case 2:
      // Efficiency (useful/moved bytes) filled by the caller, which knows
      // the arch's sector size.
      a.bound = "gm-bound";
      break;
    case 3:
      a.bound = "const-bound";
      a.efficiency = s.const_requests > 0
                         ? static_cast<double>(s.const_instrs) /
                               static_cast<double>(s.const_requests)
                         : 1.0;
      break;
    case 4:
      a.bound = "sync-bound";
      a.efficiency = 1.0;
      break;
    default:
      a.bound = "idle";
      a.efficiency = 1.0;
      break;
  }
}

std::string json_phase(const PhaseAttribution& a, const std::string& pad) {
  std::string out = pad + "{";
  out += strf("\"phase\": \"%s\", ", phase_name(a.phase));
  out += strf("\"cycles\": %.6g, ", a.pipes.total);
  out += strf("\"bound\": \"%s\", ", a.bound.c_str());
  out += strf("\"efficiency\": %.6g,\n", a.efficiency);
  out += pad + " " + counters_json(sim::kKernelCounters, a.stats, ", ") + "}";
  return out;
}

}  // namespace

PipeCycles phase_pipe_cycles(const sim::Arch& arch,
                             const sim::KernelStats& s) {
  PipeCycles p;
  // Warp instructions ~ lane-ops / warp_size (exact for full warps).
  const double fma_wi =
      static_cast<double>(s.fma_lane_ops) / arch.warp_size;
  const double alu_wi =
      static_cast<double>(s.alu_lane_ops) / arch.warp_size;
  p.compute =
      (fma_wi + alu_wi) / (arch.warp_fma_per_cycle() * arch.fma_efficiency);
  const double mem_wi = static_cast<double>(s.smem_instrs + s.gm_instrs);
  p.issue = (fma_wi + alu_wi + mem_wi) / arch.issue_slots_per_cycle;
  p.smem = static_cast<double>(s.smem_request_cycles) /
           arch.smem_requests_per_cycle;
  const double sectors_dram = static_cast<double>(s.gm_sectors_dram);
  const double sectors_l2 =
      static_cast<double>(s.gm_sectors) - sectors_dram;
  p.gmem = sectors_dram * arch.gm_sector_bytes /
               (arch.dram_bytes_per_sm_cycle() * arch.dram_efficiency) +
           sectors_l2 * arch.gm_sector_bytes / arch.l2_bytes_per_sm_cycle();
  p.cmem =
      static_cast<double>(s.const_requests) / arch.const_broadcasts_per_cycle;
  p.sync = static_cast<double>(s.barriers) * arch.barrier_cost;
  p.total = std::max({p.compute, p.issue, p.smem, p.gmem, p.cmem, p.sync});
  return p;
}

RooflineReport attribute_roofline(const sim::Arch& arch,
                                  const LaunchProfile& prof) {
  RooflineReport r;
  r.hints = prof.hints;
  for (u32 i = 0; i < kNumPhases; ++i) {
    const sim::KernelStats& s = prof.phases.p[i];
    if (s.empty()) continue;
    PhaseAttribution a;
    a.phase = static_cast<Phase>(i);
    a.stats = s;
    a.pipes = phase_pipe_cycles(arch, s);
    attribute_phase(a);
    if (a.bound == "gm-bound" && s.gm_sectors > 0) {
      a.efficiency = static_cast<double>(s.gm_bytes_useful) /
                     (static_cast<double>(s.gm_sectors) * arch.gm_sector_bytes);
    }
    r.phases.push_back(std::move(a));
  }

  const sim::KernelStats& ld = prof.phases.at(Phase::GmLoad);
  const sim::KernelStats& pf = prof.phases.at(Phase::Prefetch);
  r.gm_load_bytes =
      static_cast<double>(ld.gm_bytes_useful + pf.gm_bytes_useful);
  if (r.hints.gm_load_bound_bytes > 0.0)
    r.gm_load_ratio = r.gm_load_bytes / r.hints.gm_load_bound_bytes;

  const sim::KernelStats& cp = prof.phases.at(Phase::Compute);
  if (cp.fma_lane_ops > 0) {
    // Every compute-phase SM byte is a load: no kernel stores to SM from
    // its compute scope (tests/profile/roofline_test.cpp pins it).
    r.smem_load_elems_per_fma = static_cast<double>(cp.smem_lane_bytes) /
                                4.0 / static_cast<double>(cp.fma_lane_ops);
  }
  if (r.hints.kind == RooflineHints::Kind::General && r.hints.k > 0 &&
      r.hints.wt > 0) {
    r.sm_reduction_bound =
        static_cast<double>(r.hints.wt + r.hints.k - 1) /
        (static_cast<double>(r.hints.wt) * r.hints.k);
  }
  return r;
}

std::string format_profile(const sim::Arch& arch, const LaunchProfile& prof) {
  const RooflineReport r = attribute_roofline(arch, prof);
  std::string out;
  out += "--- profile (per phase) ---\n";
  for (const PhaseAttribution& a : r.phases) {
    const sim::KernelStats& s = a.stats;
    out += strf("%-10s %12.0f cyc  %-19s eff %.2f", phase_name(a.phase),
                a.pipes.total, a.bound.c_str(), a.efficiency);
    if (s.gm_instrs > 0) {
      out += strf("  gm %llu sect (%s useful)",
                  static_cast<unsigned long long>(s.gm_sectors),
                  human_bytes(static_cast<double>(s.gm_bytes_useful)).c_str());
    }
    if (s.smem_instrs > 0) {
      const u64 instrs = s.smem_instrs;
      const u64 cycles = s.smem_request_cycles;
      out += strf("  smem %llu instr (replay %.2f)",
                  static_cast<unsigned long long>(instrs),
                  instrs ? static_cast<double>(cycles) / instrs : 0.0);
    }
    if (s.const_requests > 0) {
      out += strf("  const %llu req",
                  static_cast<unsigned long long>(s.const_requests));
    }
    if (s.fma_lane_ops > 0) {
      out += strf("  fma %llu",
                  static_cast<unsigned long long>(s.fma_lane_ops));
    }
    if (s.barriers > 0) {
      out += strf("  barriers %llu",
                  static_cast<unsigned long long>(s.barriers));
    }
    out += "\n";
  }
  out += strf("roofline (%s case):", roofline_kind_name(r.hints.kind));
  if (r.hints.gm_load_bound_bytes > 0.0) {
    out += strf(" GM staging reads %s vs bound %s (%.2fx)",
                human_bytes(r.gm_load_bytes).c_str(),
                human_bytes(r.hints.gm_load_bound_bytes).c_str(),
                r.gm_load_ratio);
  }
  if (r.smem_load_elems_per_fma > 0.0) {
    out += strf("; SM loads/FMA %.4f", r.smem_load_elems_per_fma);
    if (r.hints.smem_load_elems_per_fma_bound > 0.0) {
      out += strf(" vs bound %.4f (paper SM ratio (WT+K-1)/(WT*K) = %.3f)",
                  r.hints.smem_load_elems_per_fma_bound, r.sm_reduction_bound);
    }
  }
  out += "\n";
  return out;
}

std::string profile_to_json(const sim::Arch& arch, const LaunchProfile& prof,
                            int indent) {
  const RooflineReport r = attribute_roofline(arch, prof);
  const std::string pad(static_cast<size_t>(indent), ' ');
  const std::string pad2 = pad + "  ";
  const std::string pad3 = pad2 + "  ";
  std::string out = "{\n";
  out += pad2 + "\"phases\": [\n";
  for (size_t i = 0; i < r.phases.size(); ++i) {
    out += json_phase(r.phases[i], pad3);
    out += i + 1 < r.phases.size() ? ",\n" : "\n";
  }
  out += pad2 + "],\n";
  out += pad2 + "\"roofline\": {\n";
  out += pad3 + strf("\"kind\": \"%s\",\n", roofline_kind_name(r.hints.kind));
  out += pad3 + strf("\"k\": %u, \"wt\": %u, \"ft\": %u,\n", r.hints.k,
                     r.hints.wt, r.hints.ft);
  out += pad3 + strf("\"gm_load_bytes\": %.6g,\n", r.gm_load_bytes);
  out += pad3 + strf("\"gm_load_bound_bytes\": %.6g,\n",
                     r.hints.gm_load_bound_bytes);
  out += pad3 + strf("\"gm_load_ratio\": %.6g,\n", r.gm_load_ratio);
  out += pad3 + strf("\"smem_load_elems_per_fma\": %.6g,\n",
                     r.smem_load_elems_per_fma);
  out += pad3 + strf("\"smem_load_elems_per_fma_bound\": %.6g,\n",
                     r.hints.smem_load_elems_per_fma_bound);
  out += pad3 + strf("\"sm_reduction_bound\": %.6g\n", r.sm_reduction_bound);
  out += pad2 + "}\n";
  out += pad + "}";
  return out;
}

}  // namespace kconv::profile
