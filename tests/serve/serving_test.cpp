// Serving-driver suite (docs/MODEL.md §8).
//
// The contracts under test: replies are deterministic — bit-identical for
// any worker-thread count and any fuse setting; same-(network, shape) work
// coalesces into batches; and a shared PlanCache moves traffic from cold to
// warm to analytic with the outputs (when they exist) unchanged.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/serve/serving.hpp"
#include "src/sim/sim.hpp"

namespace kconv::serve {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path p = fs::temp_directory_path() / ("kconv_serving_test_" + name);
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

bool bit_equal(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.flat().size() == b.flat().size() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.flat().size() * sizeof(float)) == 0;
}

std::vector<ServeReply> serve_n(const Network& net, ServeOptions opt,
                                int n) {
  ServingDriver driver(std::move(opt));
  for (int i = 0; i < n; ++i) {
    driver.enqueue(net, make_network_input(net, static_cast<u64>(i)));
  }
  return driver.drain();
}

TEST(Serving, RepliesArriveInRequestIdOrder) {
  const Network net = make_network("lenet");
  const auto replies = serve_n(net, {}, 3);
  ASSERT_EQ(replies.size(), 3u);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    EXPECT_EQ(replies[i].id, i);
    EXPECT_TRUE(replies[i].ok);
    ASSERT_EQ(replies[i].output.c(), 10);
  }
}

TEST(Serving, DeterministicAcrossThreadCounts) {
  const Network net = make_network("lenet");
  ServeOptions serial;
  serial.threads = 1;
  ServeOptions wide;
  wide.threads = 4;
  const auto a = serve_n(net, serial, 4);
  const auto b = serve_n(net, wide, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_TRUE(bit_equal(a[i].output, b[i].output)) << "request " << i;
    // Simulated time is a device-side quantity: identical too.
    EXPECT_EQ(a[i].sim_seconds, b[i].sim_seconds);
  }
}

TEST(Serving, FuseOffProducesBitIdenticalOutputs) {
  const Network net = make_network("vgg-tiny");
  ServeOptions fused;
  ServeOptions unfused;
  unfused.fuse = false;
  const auto a = serve_n(net, fused, 2);
  const auto b = serve_n(net, unfused, 2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(bit_equal(a[i].output, b[i].output));
  }
}

TEST(Serving, BatchesBySameNetworkAndShape) {
  const Network lenet = make_network("lenet");
  const Network vgg = make_network("vgg-tiny");
  ServingDriver driver({});
  driver.enqueue(lenet, make_network_input(lenet, 0));
  driver.enqueue(vgg, make_network_input(vgg, 1));
  driver.enqueue(lenet, make_network_input(lenet, 2));
  driver.enqueue(vgg, make_network_input(vgg, 3));
  const auto replies = driver.drain();
  ASSERT_EQ(replies.size(), 4u);
  const ServeStats s = driver.stats();
  EXPECT_EQ(s.processed, 4u);
  EXPECT_EQ(s.batches, 2u);  // interleaved arrivals, two groups
}

TEST(Serving, SharedPlanCacheWarmsWithinOneDrain) {
  const std::string dir = fresh_dir("warm_drain");
  sim::PlanCache plans(dir);
  const Network net = make_network("lenet");
  ServeOptions opt;
  opt.plan_cache = &plans;
  ServingDriver driver(opt);
  for (int i = 0; i < 3; ++i) {
    driver.enqueue(net, make_network_input(net, static_cast<u64>(i)));
  }
  const auto replies = driver.drain();
  const ServeStats s = driver.stats();
  EXPECT_EQ(s.cold, 1u);  // first request captures the plans
  EXPECT_EQ(s.warm, 2u);  // the rest replay them
  for (const auto& r : replies) EXPECT_TRUE(r.ok);
  fs::remove_all(dir);
}

TEST(Serving, RejectsALaunchLevelPlanCache) {
  // The driver serves through ServeOptions::plan_cache alone, so a store
  // set only on the base launch options is refused at construction rather
  // than silently ignored.
  const std::string dir = fresh_dir("launch_level");
  sim::PlanCache plans(dir);
  ServeOptions opt;
  opt.launch.plan_cache = &plans;
  try {
    ServingDriver driver(opt);
    ADD_FAILURE() << "a launch-level plan cache was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("ServeOptions::plan_cache"),
              std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

TEST(Serving, ServeOptionsPlanCacheStoresColdAndHitsWarm) {
  // ServeOptions::plan_cache is the one route to a store: a cold driver
  // writes one plan per conv launch into it, and a second driver over the
  // same store hits every launch and writes nothing.
  const std::string dir = fresh_dir("serve_route");
  sim::PlanCache plans(dir);
  const Network net = make_network("lenet");
  ServeOptions opt;
  opt.plan_cache = &plans;

  ServingDriver cold(opt);
  cold.enqueue(net, make_network_input(net, 0));
  (void)cold.drain();
  const ServeStats c = cold.stats();
  ASSERT_GT(c.conv_launches, 0u);
  EXPECT_EQ(c.cold, 1u);
  EXPECT_EQ(c.plan_taxonomy.miss, c.conv_launches);
  EXPECT_EQ(plans.stores(), c.conv_launches);
  EXPECT_GT(plans.disk_bytes(), 0u);

  ServingDriver warm(opt);
  warm.enqueue(net, make_network_input(net, 1));
  (void)warm.drain();
  const ServeStats w = warm.stats();
  EXPECT_EQ(w.warm, 1u);
  EXPECT_EQ(w.plan_taxonomy.hit, w.conv_launches);
  EXPECT_EQ(plans.stores(), c.conv_launches);
  fs::remove_all(dir);
}

TEST(Serving, ColdWarmAnalyticProgressionAcrossDrivers) {
  const std::string dir = fresh_dir("progression");
  sim::PlanCache plans(dir);
  const Network net = make_network("lenet");

  ServeOptions opt;
  opt.plan_cache = &plans;
  const auto cold = serve_n(net, opt, 1);
  ASSERT_EQ(cold.size(), 1u);
  EXPECT_TRUE(cold[0].ok);
  EXPECT_FALSE(cold[0].warm);

  // A fresh driver (fresh process, in production) over the same store.
  const auto warm = serve_n(net, opt, 1);
  ASSERT_EQ(warm.size(), 1u);
  EXPECT_TRUE(warm[0].warm);
  EXPECT_TRUE(bit_equal(cold[0].output, warm[0].output));
  EXPECT_EQ(cold[0].sim_seconds, warm[0].sim_seconds);

  // Analytic: zero representative execution, timings only.
  opt.launch.analytic = true;
  const auto fast = serve_n(net, opt, 1);
  ASSERT_EQ(fast.size(), 1u);
  EXPECT_TRUE(fast[0].analytic);
  EXPECT_FALSE(fast[0].ok);  // no activations materialized
  EXPECT_EQ(fast[0].sim_seconds, cold[0].sim_seconds);
  fs::remove_all(dir);
}

TEST(Serving, AnalyticRepliesAreDeterministicAcrossThreadCounts) {
  const std::string dir = fresh_dir("analytic_threads");
  sim::PlanCache plans(dir);
  const Network net = make_network("lenet");
  ServeOptions opt;
  opt.plan_cache = &plans;
  (void)serve_n(net, opt, 1);  // seed the store

  opt.launch.analytic = true;
  opt.threads = 1;
  const auto a = serve_n(net, opt, 3);
  opt.threads = 3;
  const auto b = serve_n(net, opt, 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].analytic);
    EXPECT_TRUE(b[i].analytic);
    EXPECT_EQ(a[i].sim_seconds, b[i].sim_seconds);
  }
  fs::remove_all(dir);
}

TEST(Serving, StatsAccumulateAcrossDrains) {
  const Network net = make_network("lenet");
  ServingDriver driver({});
  driver.enqueue(net, make_network_input(net, 0));
  (void)driver.drain();
  driver.enqueue(net, make_network_input(net, 1));
  driver.enqueue(net, make_network_input(net, 2));
  (void)driver.drain();
  const ServeStats s = driver.stats();
  EXPECT_EQ(s.processed, 3u);
  EXPECT_EQ(s.batches, 2u);
  EXPECT_GT(s.fused_pairs, 0u);
  EXPECT_GT(s.fusion_gm_bytes_eliminated, 0.0);
}

// --- roll-up agreement -------------------------------------------------------

/// A plan-store directory private to the running test: ctest runs tests in
/// parallel processes.
std::string test_dir(const std::string& what) {
  return fresh_dir(
      what + "_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name());
}

/// One drain that mixes fused convs, a 2-device batch fleet and a plan store
/// going cold then warm. `lenet` and `lenet_copy` are separate Network
/// objects and so separate batches: request 0 captures every lenet plan
/// alone, then the copy's three requests replay them at any worker count.
struct MixedDrain {
  Network lenet = make_network("lenet");
  Network lenet_copy = make_network("lenet");
  Network wide = make_network("lenet-wide");

  /// (network, input seed) in queue order.
  std::vector<std::pair<const Network*, u64>> requests() const {
    return {{&lenet, 0}, {&wide, 1}, {&lenet_copy, 2}, {&lenet_copy, 3},
            {&lenet_copy, 4}};
  }

  static sim::LaunchOptions launch() {
    sim::LaunchOptions lo;
    lo.fleet.devices = 2;
    lo.fleet.strategy = sim::ShardStrategy::Batch;
    return lo;
  }

  /// Serves the requests in one drain over a fresh plan store.
  ServeStats serve(u32 threads, obs::TelemetrySink* sink) const {
    const std::string dir = test_dir("rollup_plans");
    ServeStats stats;
    {
      sim::PlanCache plans(dir);
      ServeOptions opt;
      opt.threads = threads;
      opt.plan_cache = &plans;
      opt.launch = launch();
      opt.telemetry = sink;
      ServingDriver driver(opt);
      for (const auto& [net, seed] : requests()) {
        driver.enqueue(*net, make_network_input(*net, seed));
      }
      (void)driver.drain();
      stats = driver.stats();
    }
    fs::remove_all(dir);
    return stats;
  }

  /// The same requests through run_graph directly over a fresh plan store,
  /// folded with +=.
  obs::RunTotals direct() const {
    const std::string dir = test_dir("rollup_direct");
    obs::RunTotals sum;
    {
      sim::PlanCache plans(dir);
      GraphRunOptions g;
      g.launch = launch();
      g.launch.plan_cache = &plans;
      g.launch.replay = true;
      for (const auto& [net, seed] : requests()) {
        sim::Device dev(sim::kepler_k40m());
        sum += run_graph(dev, net->graph, make_network_input(*net, seed), g);
      }
    }
    fs::remove_all(dir);
    return sum;
  }
};

const obs::RunTotals& totals(const ServeStats& s) { return s; }

TEST(ServingRollup, StatsEqualTheFoldOfEachRequestsGraphTotals) {
  const MixedDrain mix;
  const ServeStats s = mix.serve(1, nullptr);
  // The drain really mixes what it claims to.
  EXPECT_EQ(s.cold, 2u);
  EXPECT_EQ(s.warm, 3u);
  EXPECT_GT(s.plan_taxonomy.miss, 0u);
  EXPECT_GT(s.plan_taxonomy.hit, 0u);
  EXPECT_GT(s.fused_pairs, 0u);
  EXPECT_GT(s.fleet_device_chunks, 0u);
  EXPECT_GT(s.fleet_d2h_bytes, 0u);
  EXPECT_GT(s.arena_slot_reuses, 0u);
  EXPECT_EQ(totals(s), mix.direct());
}

TEST(ServingRollup, StatsAreFieldEqualAcrossThreadCounts) {
  const MixedDrain mix;
  const ServeStats a = mix.serve(1, nullptr);
  const ServeStats b = mix.serve(3, nullptr);
  EXPECT_EQ(totals(a), totals(b));
  EXPECT_EQ(a.processed, b.processed);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.cold, b.cold);
  EXPECT_EQ(a.warm, b.warm);
  EXPECT_EQ(a.analytic, b.analytic);
  EXPECT_EQ(a.max_queue_depth, b.max_queue_depth);
  EXPECT_EQ(a.max_inflight_batches, b.max_inflight_batches);
  EXPECT_EQ(a.latency.count(), b.latency.count());
}

TEST(ServingRollup, RegistryCountersSumToTheirStatsFields) {
  const MixedDrain mix;
  const std::string dir = test_dir("rollup_sink");
  obs::TelemetrySink sink(dir);
  const ServeStats s = mix.serve(3, &sink);
  EXPECT_EQ(totals(s), totals(mix.serve(3, nullptr)));

  std::map<std::string, u64> sums;
  double arena_gauge = 0.0;
  const obs::MetricsRegistry reg = sink.metrics_copy();
  EXPECT_EQ(reg.groups().size(), 3u);  // lenet cold/warm, lenet-wide cold
  for (const auto& [key, m] : reg.groups()) {
    for (const auto& [name, v] : m.counters) sums[name] += v;
    arena_gauge = std::max(arena_gauge, m.gauges.at("arena_peak_bytes"));
  }
  const std::map<std::string, u64> want{
      {"requests", s.processed},
      {"conv_launches", s.conv_launches},
      {"fused_pairs", s.fused_pairs},
      {"plan_hit", s.plan_taxonomy.hit},
      {"plan_miss", s.plan_taxonomy.miss_total()},
      {"arena_slot_reuses", s.arena_slot_reuses},
      {"fleet_device_chunks", s.fleet_device_chunks},
      {"comm_bound_devices", s.comm_bound_devices},
  };
  EXPECT_EQ(sums, want);
  EXPECT_EQ(arena_gauge, static_cast<double>(s.arena_peak_bytes));
  fs::remove_all(dir);
}

TEST(Serving, RefusesAChannelShardBeforeTheFirstLaunch) {
  // Every network opens with a single-channel conv on the special kernel,
  // which declares no channel axis: the graph is refused up front, naming
  // that layer, while batch and spatial sharding stay accepted.
  const sim::Arch arch = sim::kepler_k40m();
  for (const std::string& name : network_names()) {
    const Network net = make_network(name);
    GraphRunOptions g;
    g.launch.fleet.devices = 2;
    g.launch.fleet.strategy = sim::ShardStrategy::Channel;
    const std::string why = shard_error(arch, net.graph, g.launch.fleet);
    EXPECT_EQ(why,
              "conv layer 'conv_1': the 'special' kernel declares no "
              "channel shard axis")
        << name;
    sim::Device dev(arch);
    try {
      run_graph(dev, net.graph, make_network_input(net, 0), g);
      ADD_FAILURE() << name << ": channel-sharded graph was not refused";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("kconv error: " + why, 0), 0u)
          << e.what();
    }
    for (const auto s : {sim::ShardStrategy::Batch,
                         sim::ShardStrategy::Spatial}) {
      g.launch.fleet.strategy = s;
      EXPECT_EQ(shard_error(arch, net.graph, g.launch.fleet), "") << name;
    }
  }
}

TEST(Serving, EmptyDrainIsANoOp) {
  ServingDriver driver({});
  EXPECT_TRUE(driver.drain().empty());
  EXPECT_EQ(driver.stats().processed, 0u);
  EXPECT_EQ(driver.stats().batches, 0u);
}

}  // namespace
}  // namespace kconv::serve
