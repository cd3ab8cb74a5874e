// kconv-scope telemetry suite (docs/MODEL.md §11).
//
// The house invariant under test: telemetry is purely observational. Serving
// the same requests with a TelemetrySink attached or with telemetry off must
// produce byte-identical outputs and identical scheduling-invariant counters,
// in every mode (cold / warm replay / warm analytic), for any worker-thread
// count, with and without fleet sharding. On top of that: the event/metrics
// JSONL streams and the `telemetry` report block parse and cross-check, the
// §5d taxonomy sums to the conv-launch count, and an unusable sink directory
// throws instead of silently dropping telemetry.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/obs/telemetry_report.hpp"
#include "src/obs/unified_trace.hpp"
#include "src/serve/serving.hpp"
#include "src/sim/sim.hpp"
#include "tests/support/json_reader.hpp"

namespace kconv::obs {
namespace {

namespace fs = std::filesystem;
using serve::Network;
using serve::ServeOptions;
using serve::ServeReply;
using serve::ServeStats;
using serve::ServingDriver;

std::string fresh_dir(const std::string& name) {
  const fs::path p =
      fs::temp_directory_path() / ("kconv_telemetry_test_" + name);
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<std::string> lines;
  if (f == nullptr) return lines;
  std::string cur;
  int c;
  while ((c = std::fgetc(f)) != EOF) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += static_cast<char>(c);
    }
  }
  std::fclose(f);
  EXPECT_TRUE(cur.empty()) << path << " does not end in a newline";
  return lines;
}

struct ServeOut {
  std::vector<ServeReply> replies;
  ServeStats stats;
};

ServeOut serve_n(const Network& net, ServeOptions opt, int n) {
  ServingDriver driver(std::move(opt));
  for (int i = 0; i < n; ++i) {
    driver.enqueue(net, make_network_input(net, static_cast<u64>(i)));
  }
  ServeOut out;
  out.replies = driver.drain();
  out.stats = driver.stats();
  return out;
}

void expect_equivalent(const ServeOut& off, const ServeOut& on) {
  ASSERT_EQ(off.replies.size(), on.replies.size());
  for (std::size_t i = 0; i < off.replies.size(); ++i) {
    const ServeReply& a = off.replies[i];
    const ServeReply& b = on.replies[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.warm, b.warm);
    EXPECT_EQ(a.analytic, b.analytic);
    EXPECT_EQ(a.sim_seconds, b.sim_seconds);
    const auto fa = a.output.flat();
    const auto fb = b.output.flat();
    ASSERT_EQ(fa.size(), fb.size());
    if (!fa.empty()) {
      EXPECT_EQ(
          std::memcmp(fa.data(), fb.data(), fa.size() * sizeof(float)), 0);
    }
  }
  // Every scheduling-invariant counter; host-time fields excluded by
  // construction (they are wall-clock).
  EXPECT_EQ(off.stats.processed, on.stats.processed);
  EXPECT_EQ(off.stats.batches, on.stats.batches);
  EXPECT_EQ(off.stats.cold, on.stats.cold);
  EXPECT_EQ(off.stats.warm, on.stats.warm);
  EXPECT_EQ(off.stats.analytic, on.stats.analytic);
  EXPECT_EQ(off.stats.fused_pairs, on.stats.fused_pairs);
  EXPECT_EQ(off.stats.fusion_gm_bytes_eliminated,
            on.stats.fusion_gm_bytes_eliminated);
  EXPECT_EQ(off.stats.fleet_h2d_bytes, on.stats.fleet_h2d_bytes);
  EXPECT_EQ(off.stats.fleet_d2h_bytes, on.stats.fleet_d2h_bytes);
  EXPECT_EQ(off.stats.fleet_d2d_bytes, on.stats.fleet_d2d_bytes);
  EXPECT_EQ(off.stats.conv_launches, on.stats.conv_launches);
  EXPECT_EQ(off.stats.plan_taxonomy.total(), on.stats.plan_taxonomy.total());
  EXPECT_EQ(off.stats.plan_taxonomy.unplanned,
            on.stats.plan_taxonomy.unplanned);
  EXPECT_EQ(off.stats.plan_taxonomy.hit, on.stats.plan_taxonomy.hit);
  EXPECT_EQ(off.stats.plan_taxonomy.miss, on.stats.plan_taxonomy.miss);
  EXPECT_EQ(off.stats.fleet_device_chunks, on.stats.fleet_device_chunks);
  EXPECT_EQ(off.stats.comm_bound_devices, on.stats.comm_bound_devices);
  EXPECT_EQ(off.stats.arena_slot_reuses, on.stats.arena_slot_reuses);
  EXPECT_EQ(off.stats.arena_peak_bytes, on.stats.arena_peak_bytes);
  EXPECT_EQ(off.stats.max_queue_depth, on.stats.max_queue_depth);
  EXPECT_EQ(off.stats.max_inflight_batches, on.stats.max_inflight_batches);
  EXPECT_EQ(off.stats.latency.count(), on.stats.latency.count());
}

// Pre-seeds a plan store with one request so every compared request is
// warm: a fresh store at threads > 1 would let workers race the first cold
// capture, making the hit/miss split schedule-dependent (a §5d property,
// nothing to do with telemetry).
void seed_store(const Network& net, sim::PlanCache* plans) {
  ServeOptions opt;
  opt.plan_cache = plans;
  ServingDriver seeder(opt);
  seeder.enqueue(net, make_network_input(net, 0));
  (void)seeder.drain();
}

// One sweep covering the three §5d serving modes x thread counts {1, 2}:
// telemetry off vs on must agree on outputs and every scheduling-invariant
// counter.
TEST(TelemetryIdentity, AllModesAndThreadCounts) {
  const Network net = serve::make_network("lenet");
  struct Mode {
    const char* name;
    bool plans;
    bool analytic;
  };
  const Mode modes[] = {
      {"cold", false, false},
      {"replay", true, false},
      {"analytic", true, true},
  };
  for (const Mode& mode : modes) {
    for (u32 threads : {1u, 2u}) {
      const std::string tag =
          std::string(mode.name) + "_t" + std::to_string(threads);
      std::unique_ptr<sim::PlanCache> plans_off, plans_on;
      ServeOptions off;
      off.threads = threads;
      off.launch.analytic = mode.analytic;
      if (mode.plans) {
        plans_off =
            std::make_unique<sim::PlanCache>(fresh_dir("plans_off_" + tag));
        seed_store(net, plans_off.get());
        off.plan_cache = plans_off.get();
      }
      ServeOptions on = off;
      if (mode.plans) {
        plans_on =
            std::make_unique<sim::PlanCache>(fresh_dir("plans_on_" + tag));
        seed_store(net, plans_on.get());
        on.plan_cache = plans_on.get();
      }
      TelemetrySink sink(fresh_dir("sink_" + tag));
      on.telemetry = &sink;
      const ServeOut a = serve_n(net, off, 4);
      const ServeOut b = serve_n(net, on, 4);
      SCOPED_TRACE(tag);
      expect_equivalent(a, b);
      if (mode.plans) {
        EXPECT_EQ(b.stats.plan_taxonomy.hit, b.stats.conv_launches);
      }
      EXPECT_GT(sink.events_written(), 0u);
      EXPECT_EQ(sink.open_spans(), 0u) << "unclosed spans after drain";
    }
  }
}

TEST(TelemetryIdentity, FleetShardingOnAndOff) {
  const Network net = serve::make_network("lenet-wide");
  for (u32 devices : {1u, 2u}) {
    ServeOptions off;
    off.launch.fleet.devices = devices;
    ServeOptions on = off;
    TelemetrySink sink(
        fresh_dir("fleet_sink_d" + std::to_string(devices)));
    on.telemetry = &sink;
    const ServeOut a = serve_n(net, off, 2);
    const ServeOut b = serve_n(net, on, 2);
    SCOPED_TRACE(devices);
    expect_equivalent(a, b);
    if (devices > 1) {
      EXPECT_GT(b.stats.fleet_device_chunks, 0u);
      EXPECT_FALSE(sink.device_slices().empty());
    }
  }
}

TEST(Telemetry, EventStreamParsesAndSpansBalance) {
  const Network net = serve::make_network("lenet");
  const std::string dir = fresh_dir("events");
  TelemetrySink sink(dir);
  ServeOptions opt;
  opt.telemetry = &sink;
  const ServeOut out = serve_n(net, opt, 3);
  ASSERT_EQ(out.replies.size(), 3u);

  const auto lines = read_lines(dir + "/events.jsonl");
  ASSERT_EQ(lines.size(), sink.events_written());
  u64 begins = 0, ends = 0, requests = 0;
  for (const auto& line : lines) {
    const auto doc = testsupport::JsonReader(line).parse();
    ASSERT_EQ(doc->type, testsupport::JsonValue::Type::Object);
    const std::string ev = doc->object.at("ev")->str;
    ASSERT_TRUE(doc->object.count("ts_us")) << line;
    if (ev == "span_begin") {
      ++begins;
      if (doc->object.at("name")->str == "request") ++requests;
    } else if (ev == "span_end") {
      ++ends;
    } else {
      EXPECT_TRUE(ev == "plan_cache" || ev == "fleet_device" ||
                  ev == "arena_slot")
          << ev;
    }
  }
  EXPECT_EQ(begins, ends);
  EXPECT_EQ(requests, 3u);
  // In-memory span records agree with the stream.
  u64 closed = 0;
  for (const SpanRecord& s : sink.spans()) {
    if (s.end_us >= 0.0) ++closed;
  }
  EXPECT_EQ(closed, begins);
}

TEST(Telemetry, MetricsStreamMatchesStatsAndTaxonomySums) {
  const Network net = serve::make_network("lenet");
  const std::string dir = fresh_dir("metrics");
  TelemetrySink sink(dir);
  ServeOptions opt;
  opt.telemetry = &sink;
  const ServeOut out = serve_n(net, opt, 4);

  // Taxonomy is exhaustive over conv launches (all unplanned here: no
  // plan store), and the latency histogram holds one sample per request.
  EXPECT_EQ(out.stats.plan_taxonomy.total(), out.stats.conv_launches);
  EXPECT_EQ(out.stats.plan_taxonomy.unplanned, out.stats.conv_launches);
  EXPECT_EQ(out.stats.latency.count(), out.stats.processed);

  const auto lines = read_lines(dir + "/metrics.jsonl");
  ASSERT_EQ(sink.snapshots_written(), 1u);
  ASSERT_EQ(lines.size(), 1u);  // one group: (lenet, 1x28x28, cold)
  const auto doc = testsupport::JsonReader(lines[0]).parse();
  EXPECT_EQ(doc->object.at("network")->str, "lenet");
  EXPECT_EQ(doc->object.at("shape")->str, "1x28x28");
  EXPECT_EQ(doc->object.at("mode")->str, "cold");
  const auto& counters = doc->object.at("counters")->object;
  EXPECT_EQ(counters.at("requests")->number, 4.0);
  EXPECT_EQ(counters.at("conv_launches")->number,
            static_cast<double>(out.stats.conv_launches));
  const auto& hists = doc->object.at("histograms")->object;
  EXPECT_EQ(hists.at("latency_s")->object.at("count")->number, 4.0);

  // The registry copy agrees with the stream.
  const auto reg = sink.metrics_copy();
  ASSERT_EQ(reg.groups().size(), 1u);
  EXPECT_EQ(
      reg.groups().begin()->second.counters.at("conv_launches"),
      out.stats.conv_launches);
}

TEST(Telemetry, ReportBlockRoundTripsWithHealthVerdicts) {
  ServingTelemetry t;
  t.dir = "/tmp/x";
  t.events = 10;
  t.snapshots = 1;
  t.metric_groups = 2;
  t.stats.processed = 4;
  t.stats.batches = 1;
  t.stats.cold = 1;
  t.stats.warm = 3;
  t.stats.conv_launches = 8;
  t.stats.plan_taxonomy.hit = 6;
  t.stats.plan_taxonomy.miss = 2;
  t.plan_stores = 2;
  t.stats.max_queue_depth = 4;
  t.stats.max_inflight_batches = 1;
  t.stats.latency.add(1e-3);
  EXPECT_EQ(t.warm_path_ratio(), 0.75);

  const auto doc =
      testsupport::JsonReader(telemetry_to_json(t, 0)).parse();
  ASSERT_EQ(doc->type, testsupport::JsonValue::Type::Object);
  EXPECT_EQ(doc->object.at("requests")->number, 4.0);
  EXPECT_EQ(doc->object.at("warm_path_ratio")->number, 0.75);
  EXPECT_EQ(doc->object.count("eviction_churn"), 0u);
  const auto& plan = doc->object.at("plan_cache")->object;
  EXPECT_EQ(plan.at("launches")->number, 8.0);
  EXPECT_EQ(plan.at("hit")->number, 6.0);
  EXPECT_EQ(plan.at("stores")->number, 2.0);
  EXPECT_EQ(plan.count("evictions"), 0u);
  const auto& health = doc->object.at("health")->array;
  ASSERT_EQ(health.size(), 2u);
  std::vector<std::string> names;
  for (const auto& v : health) names.push_back(v->object.at("name")->str);
  const std::vector<std::string> want{"warm-path", "communication"};
  EXPECT_EQ(names, want);
  EXPECT_EQ(health[0]->object.at("verdict")->str, "warm");
  EXPECT_EQ(health[1]->object.at("verdict")->str, "single-device");

  // The standalone taxonomy line is valid JSON too and agrees field-wise.
  const auto tax =
      testsupport::JsonReader(taxonomy_to_json(t.stats.plan_taxonomy, 2)).parse();
  EXPECT_EQ(tax->object.at("launches")->number, 8.0);
  EXPECT_EQ(tax->object.at("miss")->number, 2.0);
}

TEST(Telemetry, ReportBlockEscapesTheDirectory) {
  ServingTelemetry t;
  t.dir = "/tmp/tel\"q\\x\ty";
  const auto doc =
      testsupport::JsonReader(telemetry_to_json(t, 2)).parse();
  EXPECT_EQ(doc->object.at("dir")->str, t.dir);
}

TEST(Telemetry, UnifiedTraceExportsAllTiers) {
  const Network net = serve::make_network("lenet-wide");
  TelemetrySink sink(fresh_dir("trace"));
  ServeOptions opt;
  opt.launch.fleet.devices = 2;
  opt.telemetry = &sink;
  (void)serve_n(net, opt, 2);
  const std::string json =
      unified_trace_json(sink, sim::kepler_k40m(), {});
  const auto doc = testsupport::JsonReader(json).parse();
  const auto& events = doc->object.at("traceEvents")->array;
  ASSERT_FALSE(events.empty());
  bool serving_proc = false, device_proc = false;
  u64 b = 0, e = 0;
  for (const auto& ev : events) {
    const std::string ph = ev->object.at("ph")->str;
    if (ph == "M" && ev->object.at("name")->str == "process_name") {
      const std::string pname =
          ev->object.at("args")->object.at("name")->str;
      serving_proc |= pname == "serving";
      device_proc |= pname.rfind("device ", 0) == 0;
    }
    if (ph == "B") ++b;
    if (ph == "E") ++e;
  }
  EXPECT_TRUE(serving_proc);
  EXPECT_TRUE(device_proc);
  EXPECT_EQ(b, e);
  EXPECT_GT(b, 0u);
}

TEST(Telemetry, UnusableSinkDirectoryThrows) {
  const std::string dir = fresh_dir("file_in_the_way");
  // A regular file where the sink wants its directory.
  const std::string path = dir + "/occupied";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  EXPECT_THROW(TelemetrySink{path}, kconv::Error);
}

}  // namespace
}  // namespace kconv::obs
