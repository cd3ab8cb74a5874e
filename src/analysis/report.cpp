#include "src/analysis/report.hpp"

#include "src/common/strutil.hpp"

namespace kconv::analysis {

const char* hazard_kind_name(HazardKind k) {
  switch (k) {
    case HazardKind::SmemRaw: return "smem-race-raw";
    case HazardKind::SmemWar: return "smem-race-war";
    case HazardKind::SmemWaw: return "smem-race-waw";
    case HazardKind::SmemIntraWarp: return "smem-race-intra-warp";
    case HazardKind::GmemBlockOverlap: return "gmem-block-overlap";
  }
  return "?";
}

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::Info: return "info";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

const char* lint_kind_name(LintKind k) {
  switch (k) {
    case LintKind::BankWidthMismatch: return "bank-width-mismatch";
    case LintKind::BankConflictReplays: return "bank-conflict-replays";
    case LintKind::UncoalescedGmem: return "uncoalesced-gmem";
    case LintKind::SmemOccupancyCap: return "smem-occupancy-cap";
    case LintKind::LowCmBroadcast: return "low-cm-broadcast";
  }
  return "?";
}

namespace {

std::string format_hazard(const HazardRecord& r) {
  if (r.kind == HazardKind::GmemBlockOverlap) {
    return strf("  [%s] blocks (%u,%u,%u) and (%u,%u,%u) both write GM "
                "bytes [0x%llx, +%llu)\n",
                hazard_kind_name(r.kind), r.other_block.x, r.other_block.y,
                r.other_block.z, r.block.x, r.block.y, r.block.z,
                static_cast<unsigned long long>(r.addr),
                static_cast<unsigned long long>(r.bytes));
  }
  return strf("  [%s] block (%u,%u,%u) smem byte 0x%llx (epoch %llu): "
              "%s lane %u (warp %u, op #%llu) vs %s lane %u (warp %u, "
              "op #%llu)\n",
              hazard_kind_name(r.kind), r.block.x, r.block.y, r.block.z,
              static_cast<unsigned long long>(r.addr),
              static_cast<unsigned long long>(r.epoch),
              sim::op_name(r.first.op), r.first.lane, r.first.warp,
              static_cast<unsigned long long>(r.first.op_index),
              sim::op_name(r.second.op), r.second.lane, r.second.warp,
              static_cast<unsigned long long>(r.second.op_index));
}

std::string json_hazard(const HazardRecord& r, const std::string& pad) {
  std::string o = pad + "{";
  o += strf("\"kind\": \"%s\", \"block\": [%u,%u,%u], ",
            hazard_kind_name(r.kind), r.block.x, r.block.y, r.block.z);
  if (r.kind == HazardKind::GmemBlockOverlap) {
    o += strf("\"other_block\": [%u,%u,%u], ", r.other_block.x,
              r.other_block.y, r.other_block.z);
  }
  o += strf("\"addr\": %llu, \"bytes\": %llu",
            static_cast<unsigned long long>(r.addr),
            static_cast<unsigned long long>(r.bytes));
  if (r.kind != HazardKind::GmemBlockOverlap) {
    o += strf(", \"epoch\": %llu", static_cast<unsigned long long>(r.epoch));
    const auto op_json = [](const HazardOp& h) {
      return strf("{\"op\": \"%s\", \"warp\": %u, \"lane\": %u, "
                  "\"round\": %u, \"op_index\": %llu}",
                  sim::op_name(h.op), h.warp, h.lane, h.round,
                  static_cast<unsigned long long>(h.op_index));
    };
    o += ", \"first\": " + op_json(r.first);
    o += ", \"second\": " + op_json(r.second);
  }
  o += "}";
  return o;
}

std::string json_lint(const LintFinding& f, const std::string& pad) {
  return pad +
         strf("{\"kind\": \"%s\", \"severity\": \"%s\", \"value\": %.6g, "
              "\"threshold\": %.6g, \"message\": \"%s\", "
              "\"remediation\": \"%s\"}",
              lint_kind_name(f.kind), severity_name(f.severity), f.value,
              f.threshold, json_escape(f.message).c_str(),
              json_escape(f.remediation).c_str());
}

}  // namespace

std::string format_analysis(const AnalysisReport& rep) {
  std::string out = "=== kconv-check ===\n";
  if (rep.hazard_checked) {
    if (rep.races_total == 0 && rep.gm_overlaps_total == 0) {
      out += strf("hazards: clean (%llu blocks fully checked)\n",
                  static_cast<unsigned long long>(rep.blocks_checked));
    } else {
      out += strf("hazards: %llu shared-memory races, %llu cross-block GM "
                  "overlaps (%llu blocks fully checked)\n",
                  static_cast<unsigned long long>(rep.races_total),
                  static_cast<unsigned long long>(rep.gm_overlaps_total),
                  static_cast<unsigned long long>(rep.blocks_checked));
      for (const HazardRecord& r : rep.hazards) out += format_hazard(r);
      const u64 shown = rep.hazards.size();
      const u64 total = rep.races_total + rep.gm_overlaps_total;
      if (total > shown) {
        out += strf("  ... and %llu more (record cap)\n",
                    static_cast<unsigned long long>(total - shown));
      }
    }
  }
  if (rep.linted) {
    if (rep.lints.empty()) {
      out += "lints: clean\n";
    } else {
      out += strf("lints: %zu finding%s\n", rep.lints.size(),
                  rep.lints.size() == 1 ? "" : "s");
      for (const LintFinding& f : rep.lints) {
        out += strf("  [%s] %s: %s (measured %.3g, threshold %.3g)\n",
                    severity_name(f.severity), lint_kind_name(f.kind),
                    f.message.c_str(), f.value, f.threshold);
        out += strf("      fix: %s\n", f.remediation.c_str());
      }
    }
  }
  out += strf("verdict: %s\n", rep.clean() ? "PASS" : "FAIL");
  return out;
}

std::string to_json(const AnalysisReport& rep, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string in1 = pad + "  ";
  const std::string in2 = pad + "    ";
  std::string out = "{\n";
  out += in1 + strf("\"hazard_checked\": %s,\n",
                    rep.hazard_checked ? "true" : "false");
  out += in1 + strf("\"linted\": %s,\n", rep.linted ? "true" : "false");
  out += in1 + strf("\"clean\": %s,\n", rep.clean() ? "true" : "false");
  out += in1 + strf("\"blocks_checked\": %llu,\n",
                    static_cast<unsigned long long>(rep.blocks_checked));
  out += in1 + strf("\"races_total\": %llu,\n",
                    static_cast<unsigned long long>(rep.races_total));
  out += in1 + strf("\"gm_overlaps_total\": %llu,\n",
                    static_cast<unsigned long long>(rep.gm_overlaps_total));
  out += in1 + "\"hazards\": [";
  for (std::size_t i = 0; i < rep.hazards.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += json_hazard(rep.hazards[i], in2);
  }
  out += rep.hazards.empty() ? "],\n" : "\n" + in1 + "],\n";
  out += in1 + "\"lints\": [";
  for (std::size_t i = 0; i < rep.lints.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += json_lint(rep.lints[i], in2);
  }
  out += rep.lints.empty() ? "]\n" : "\n" + in1 + "]\n";
  out += pad + "}";
  return out;
}

}  // namespace kconv::analysis
