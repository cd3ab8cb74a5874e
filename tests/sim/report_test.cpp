#include "src/sim/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/report.hpp"

#include "src/sim/sim.hpp"
#include "tests/support/json_reader.hpp"
#include "tests/support/stats_match.hpp"

namespace kconv::sim {
namespace {

using testsupport::JsonReader;
using testsupport::JsonValue;
using testsupport::field;

/// A tiny kernel exercising all memory spaces so the report has content.
class AllSpacesKernel {
 public:
  BufferView<float> gm;
  ConstView<float> cm;
  u32 sh_off = 0;

  ThreadProgram operator()(ThreadCtx& t) const {
    auto sh = t.shared<float>(sh_off, 64);
    const i64 g_idx = t.block_idx.x * 64 + t.thread_idx.x;
    const float c = t.ld_const(cm, 0);
    const float g = t.ld_global(gm, g_idx);
    t.st_shared(sh, t.thread_idx.x, t.fma(g, c, 1.0f));
    co_await t.sync();
    const float v = t.ld_shared(sh, t.thread_idx.x);
    t.st_global(gm, g_idx, v);
  }
};

LaunchResult run_once(Device& dev, const LaunchOptions& opt = {}) {
  auto arr = dev.alloc<float>(4 * 64);
  std::vector<float> cdata = {2.0f};
  auto cm = dev.alloc_const<float>(cdata);
  AllSpacesKernel k;
  k.gm = arr.view();
  k.cm = ConstView<float>(cm.get(), 0, 1);
  SharedLayout smem;
  k.sh_off = smem.alloc<float>(64);
  LaunchConfig cfg;
  cfg.grid = {4, 1, 1};
  cfg.block = {64, 1, 1};
  cfg.shared_bytes = smem.size();
  return launch(dev, k, cfg, opt);
}

TEST(Report, FullReportMentionsEverySection) {
  Device dev(kepler_k40m());
  const auto res = run_once(dev);
  const std::string r = format_report(dev.arch(), res);
  for (const char* needle :
       {"Kepler K40m", "GFlop/s", "occupancy", "smem:", "gmem:", "const:",
        "fma:", "barriers/block"}) {
    EXPECT_NE(r.find(needle), std::string::npos) << needle << "\n" << r;
  }
}

TEST(Report, BriefIsOneLine) {
  Device dev(kepler_k40m());
  const auto res = run_once(dev);
  const std::string b = format_brief(res);
  EXPECT_EQ(std::count(b.begin(), b.end(), '\n'), 0);
  EXPECT_NE(b.find("GFlop/s"), std::string::npos);
}

TEST(Report, JsonHasBalancedBracesAndKeys) {
  Device dev(kepler_k40m());
  const auto res = run_once(dev);
  const std::string j = to_json(dev.arch(), res);
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
            std::count(j.begin(), j.end(), '}'));
  for (const char* key :
       {"\"arch\"", "\"seconds\"", "\"gflops\"", "\"bound\"", "\"pipes\"",
        "\"smem_request_cycles\"", "\"gm_sectors\"", "\"barriers\""}) {
    EXPECT_NE(j.find(key), std::string::npos) << key;
  }
  // No trailing comma before the closing brace.
  const auto pos = j.rfind(',');
  EXPECT_LT(pos, j.rfind('"'));
}

// --- JSON schema round trip -----------------------------------------------

TEST(Report, JsonRoundTripMatchesKernelStatsSchema) {
  Device dev(kepler_k40m());
  const auto res = run_once(dev);
  const auto root = JsonReader(to_json(dev.arch(), res)).parse();
  ASSERT_EQ(root->type, JsonValue::Type::Object);

  // Strings and flags.
  EXPECT_EQ(field(*root, "arch").type, JsonValue::Type::String);
  EXPECT_EQ(field(*root, "arch").str, dev.arch().name);
  EXPECT_EQ(field(*root, "bound").type, JsonValue::Type::String);
  EXPECT_EQ(field(*root, "sampled").type, JsonValue::Type::Bool);
  EXPECT_FALSE(field(*root, "sampled").boolean);

  // Every counter key must exist, be a number, and round-trip its value.
  const std::map<std::string, u64> counters = {
      {"blocks_total", res.blocks_total},
      {"blocks_executed", res.blocks_executed},
      {"fma_lane_ops", res.stats.fma_lane_ops},
      {"smem_instrs", res.stats.smem_instrs},
      {"smem_request_cycles", res.stats.smem_request_cycles},
      {"smem_lane_bytes", res.stats.smem_lane_bytes},
      {"smem_store_instrs", res.stats.smem_store_instrs},
      {"smem_store_request_cycles", res.stats.smem_store_request_cycles},
      {"gm_sectors", res.stats.gm_sectors},
      {"gm_sectors_dram", res.stats.gm_sectors_dram},
      {"const_requests", res.stats.const_requests},
      {"pattern_lookups", res.stats.pattern_lookups},
      {"pattern_hits", res.stats.pattern_hits},
      {"barriers", res.stats.barriers},
  };
  for (const auto& [key, expected] : counters) {
    const JsonValue& v = field(*root, key);
    ASSERT_EQ(v.type, JsonValue::Type::Number) << key;
    EXPECT_EQ(static_cast<u64>(v.number), expected) << key;
    EXPECT_GT(expected, 0u) << key << " is 0: the round trip proves nothing";
  }
  // The counter block carries every KernelStats counter, once.
  for (const auto& c : kKernelCounters) {
    const JsonValue& v = field(*root, c.name);
    ASSERT_EQ(v.type, JsonValue::Type::Number) << c.name;
    EXPECT_EQ(static_cast<u64>(v.number), res.stats.*c.member) << c.name;
  }
  const std::string json = to_json(dev.arch(), res);
  const std::string key = "\"blocks_executed\"";
  EXPECT_EQ(json.find(key), json.rfind(key));
  EXPECT_GT(field(*root, "seconds").number, 0.0);
  EXPECT_GT(field(*root, "gflops").number, 0.0);

  const JsonValue& pipes = field(*root, "pipes");
  ASSERT_EQ(pipes.type, JsonValue::Type::Object);
  for (const char* key :
       {"compute", "issue", "smem", "gmem", "const", "latency_floor"}) {
    EXPECT_EQ(field(pipes, key).type, JsonValue::Type::Number) << key;
  }

  // No analysis or profile object unless the feature was requested.
  EXPECT_EQ(root->object.count("analysis"), 0u);
  EXPECT_EQ(root->object.count("profile"), 0u);
}

TEST(Report, JsonCarriesAnalysisObjectWhenChecked) {
  Device dev(kepler_k40m());
  LaunchOptions opt;
  opt.hazard_check = true;
  opt.lint = true;
  const auto res = run_once(dev, opt);
  const auto root = JsonReader(to_json(dev.arch(), res)).parse();

  const JsonValue& a = field(*root, "analysis");
  ASSERT_EQ(a.type, JsonValue::Type::Object);
  EXPECT_TRUE(field(a, "hazard_checked").boolean);
  EXPECT_TRUE(field(a, "linted").boolean);
  EXPECT_TRUE(field(a, "clean").boolean);
  EXPECT_EQ(static_cast<u64>(field(a, "blocks_checked").number),
            res.blocks_executed);
  EXPECT_EQ(field(a, "races_total").number, 0.0);
  EXPECT_EQ(field(a, "gm_overlaps_total").number, 0.0);
  EXPECT_EQ(field(a, "hazards").type, JsonValue::Type::Array);
  EXPECT_TRUE(field(a, "hazards").array.empty());
  EXPECT_EQ(field(a, "lints").type, JsonValue::Type::Array);
}

TEST(Report, JsonCarriesProfileBlockWhenProfiled) {
  Device dev(kepler_k40m());
  LaunchOptions opt;
  opt.profile = true;
  const auto res = run_once(dev, opt);
  const auto root = JsonReader(to_json(dev.arch(), res)).parse();

  const JsonValue& p = field(*root, "profile");
  ASSERT_EQ(p.type, JsonValue::Type::Object);

  // Every active phase entry carries the attribution triple plus the full
  // counter delta; this pins the schema downstream dashboards consume.
  const JsonValue& phases = field(p, "phases");
  ASSERT_EQ(phases.type, JsonValue::Type::Array);
  ASSERT_FALSE(phases.array.empty());
  KernelStats sum;  // the JSON phases, summed counter by counter
  std::vector<std::string> names;
  for (const auto& ph : phases.array) {
    ASSERT_EQ(ph->type, JsonValue::Type::Object);
    EXPECT_EQ(field(*ph, "phase").type, JsonValue::Type::String);
    names.push_back(field(*ph, "phase").str);
    EXPECT_EQ(field(*ph, "bound").type, JsonValue::Type::String);
    EXPECT_GE(field(*ph, "efficiency").number, 0.0);
    EXPECT_LE(field(*ph, "efficiency").number, 1.0);
    EXPECT_GE(field(*ph, "cycles").number, 0.0);
    const KernelStats* want = nullptr;
    for (u32 i = 0; i < profile::kNumPhases; ++i) {
      if (names.back() == profile::phase_name(static_cast<profile::Phase>(i)))
        want = &res.profile.phases.p[i];
    }
    ASSERT_NE(want, nullptr) << names.back();
    for (const auto& c : kKernelCounters) {
      const JsonValue& v = field(*ph, c.name);
      ASSERT_EQ(v.type, JsonValue::Type::Number) << c.name;
      EXPECT_EQ(static_cast<u64>(v.number), want->*c.member)
          << names.back() << " " << c.name;
      sum.*c.member += static_cast<u64>(v.number);
    }
  }
  // The JSON roll-up sums back to the launch totals, even for this
  // unannotated kernel (everything lands in "other" + "sync").
  EXPECT_TRUE(test::sums_match(sum, res.stats));
  EXPECT_NE(std::find(names.begin(), names.end(), "other"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "sync"), names.end());

  const JsonValue& roof = field(p, "roofline");
  ASSERT_EQ(roof.type, JsonValue::Type::Object);
  EXPECT_EQ(field(roof, "kind").str, "none");  // no kernel runner hints here
  for (const char* key :
       {"k", "wt", "ft", "gm_load_bytes", "gm_load_bound_bytes",
        "gm_load_ratio", "smem_load_elems_per_fma",
        "smem_load_elems_per_fma_bound", "sm_reduction_bound"}) {
    ASSERT_EQ(field(roof, key).type, JsonValue::Type::Number) << key;
  }
}

TEST(Report, AnalysisJsonRecordsRoundTrip) {
  analysis::AnalysisReport rep;
  rep.hazard_checked = true;
  rep.linted = true;
  rep.blocks_checked = 3;
  rep.races_total = 1;
  rep.gm_overlaps_total = 1;

  analysis::HazardRecord race;
  race.kind = analysis::HazardKind::SmemRaw;
  race.block = {2, 0, 0};
  race.addr = 0x40;
  race.bytes = 4;
  race.epoch = 5;
  race.first = {Op::StoreShared, 1, 7, 3, 21};
  race.second = {Op::LoadShared, 0, 4, 9, 44};
  rep.hazards.push_back(race);

  analysis::HazardRecord overlap;
  overlap.kind = analysis::HazardKind::GmemBlockOverlap;
  overlap.block = {1, 0, 0};
  overlap.other_block = {0, 0, 0};
  overlap.addr = 0x1000;
  overlap.bytes = 128;
  rep.hazards.push_back(overlap);

  analysis::LintFinding lint;
  lint.kind = analysis::LintKind::BankConflictReplays;
  lint.severity = analysis::Severity::Warning;
  lint.value = 15.2;
  lint.threshold = 2.5;
  lint.message = "smem stores replay 15.2x";
  lint.remediation = "pad the leading dimension by one bank";
  rep.lints.push_back(lint);

  const auto a = JsonReader(analysis::to_json(rep)).parse();
  EXPECT_FALSE(field(*a, "clean").boolean);
  ASSERT_EQ(field(*a, "hazards").array.size(), 2u);

  const JsonValue& jrace = *field(*a, "hazards").array[0];
  EXPECT_EQ(field(jrace, "kind").str, "smem-race-raw");
  ASSERT_EQ(field(jrace, "block").array.size(), 3u);
  EXPECT_EQ(field(jrace, "block").array[0]->number, 2.0);
  EXPECT_EQ(field(jrace, "addr").number, 64.0);
  EXPECT_EQ(field(jrace, "epoch").number, 5.0);
  const JsonValue& jfirst = field(jrace, "first");
  EXPECT_EQ(field(jfirst, "op").str, "st.shared");
  EXPECT_EQ(field(jfirst, "warp").number, 1.0);
  EXPECT_EQ(field(jfirst, "lane").number, 7.0);
  EXPECT_EQ(field(jfirst, "op_index").number, 21.0);
  EXPECT_EQ(field(field(jrace, "second"), "op").str, "ld.shared");

  const JsonValue& joverlap = *field(*a, "hazards").array[1];
  EXPECT_EQ(field(joverlap, "kind").str, "gmem-block-overlap");
  EXPECT_EQ(field(joverlap, "other_block").array.size(), 3u);
  EXPECT_EQ(field(joverlap, "bytes").number, 128.0);
  EXPECT_EQ(joverlap.object.count("epoch"), 0u);

  const JsonValue& jlint = *field(*a, "lints").array[0];
  EXPECT_EQ(field(jlint, "kind").str, "bank-conflict-replays");
  EXPECT_EQ(field(jlint, "severity").str, "warning");
  EXPECT_EQ(field(jlint, "threshold").number, 2.5);
  EXPECT_EQ(field(jlint, "message").str, "smem stores replay 15.2x");

  // Quotes in messages are escaped (the reader above keeps no escape
  // handling, so assert on the raw text).
  rep.lints[0].message = "the \"+1\" padding trick";
  const std::string j = analysis::to_json(rep);
  EXPECT_NE(j.find("the \\\"+1\\\" padding trick"), std::string::npos);
}

}  // namespace
}  // namespace kconv::sim
