// Layer-graph runner suite (docs/MODEL.md §8).
//
// The load-bearing contract: graph execution — with or without the fused
// conv+bias+ReLU epilogue, under every launch mode — produces logits that
// are bit-identical to hand-sequencing the same kernels, and the tensor
// arena's slot reuse never aliases two live activations.
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/core/conv_api.hpp"
#include "src/kernels/gemm_kernels.hpp"
#include "src/kernels/layer_ops.hpp"
#include "src/serve/graph.hpp"
#include "src/serve/networks.hpp"
#include "src/sim/plan_cache.hpp"
#include "src/sim/sim.hpp"

#include <filesystem>

namespace kconv::serve {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path p = fs::temp_directory_path() / ("kconv_serve_test_" + name);
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

bool bit_equal(const tensor::Tensor& a, const tensor::Tensor& b) {
  if (a.n() != b.n() || a.c() != b.c() || a.h() != b.h() || a.w() != b.w()) {
    return false;
  }
  return std::memcmp(a.flat().data(), b.flat().data(),
                     a.flat().size() * sizeof(float)) == 0;
}

/// Runs `net` hand-sequenced — each kernel called explicitly, every
/// intermediate materialized, no fusion — the way the examples did before
/// the graph runner existed.
tensor::Tensor run_hand_sequenced(const Network& net,
                                  const tensor::Tensor& input,
                                  const sim::LaunchOptions& launch = {}) {
  sim::Device dev(sim::kepler_k40m());
  const auto& nodes = net.graph.nodes();
  std::vector<tensor::Tensor> outs(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    const tensor::Tensor& in =
        n.kind == OpKind::Input ? input
                                : outs[static_cast<std::size_t>(n.input)];
    switch (n.kind) {
      case OpKind::Input:
        outs[i] = input;
        break;
      case OpKind::Conv: {
        core::ConvOptions copt;
        copt.launch = launch;
        auto r = core::conv2d(dev, in, n.filters, copt);
        EXPECT_TRUE(r.output_valid);
        outs[i] = std::move(r.output);
        break;
      }
      case OpKind::BiasRelu: {
        auto r = kernels::bias_relu(dev, in, n.bias, launch);
        EXPECT_TRUE(r.output_valid);
        outs[i] = std::move(r.output);
        break;
      }
      case OpKind::MaxPool: {
        auto r = kernels::max_pool_2x2(dev, in, launch);
        EXPECT_TRUE(r.output_valid);
        outs[i] = std::move(r.output);
        break;
      }
      case OpKind::Dense: {
        tensor::Matrix xin(n.weights.cols, 1);
        for (i64 f = 0; f < n.weights.cols; ++f) {
          xin.data[static_cast<std::size_t>(f)] =
              in.flat()[static_cast<std::size_t>(f)];
        }
        auto fc = kernels::gemm(dev, n.weights, xin,
                                kernels::gemm_fitted(n.weights.rows, 1),
                                launch);
        EXPECT_TRUE(fc.output_valid);
        tensor::Tensor logits(1, n.weights.rows, 1, 1);
        for (i64 r = 0; r < n.weights.rows; ++r) {
          logits.at(0, r, 0, 0) = fc.c.data[static_cast<std::size_t>(r)];
        }
        outs[i] = std::move(logits);
        break;
      }
    }
  }
  return outs[static_cast<std::size_t>(net.graph.output_node())];
}

// --- graph construction -----------------------------------------------------

TEST(GraphBuild, RejectsOutOfRangeInputId) {
  Graph g;
  g.add_input(1, 8, 8);
  EXPECT_THROW(g.add_max_pool(5), Error);
  EXPECT_THROW(g.add_max_pool(-1), Error);
}

TEST(GraphBuild, RejectsSecondInput) {
  Graph g;
  g.add_input(1, 8, 8);
  EXPECT_THROW(g.add_input(1, 8, 8), Error);
}

TEST(GraphBuild, ShapesValidatePerNode) {
  {
    Graph g;  // bias arity != channels
    const i32 x = g.add_input(2, 8, 8);
    g.add_bias_relu(x, {0.0f, 0.0f, 0.0f});
    EXPECT_THROW(g.shapes(), Error);
  }
  {
    Graph g;  // filter channels != input channels
    const i32 x = g.add_input(3, 8, 8);
    g.add_conv(x, tensor::Tensor::filters(4, 2, 3));
    EXPECT_THROW(g.shapes(), Error);
  }
  {
    Graph g;  // dense feature count mismatch
    const i32 x = g.add_input(1, 4, 4);
    g.add_dense(x, tensor::Matrix(10, 99));
    EXPECT_THROW(g.shapes(), Error);
  }
}

TEST(GraphBuild, ShapesFollowTheLenetChain) {
  const Network net = make_network("lenet");
  const std::vector<Shape> s = net.graph.shapes();
  ASSERT_EQ(s.size(), 8u);
  EXPECT_EQ(s[1], (Shape{8, 24, 24}));   // conv1
  EXPECT_EQ(s[3], (Shape{8, 12, 12}));   // pool1
  EXPECT_EQ(s[4], (Shape{16, 8, 8}));    // conv2
  EXPECT_EQ(s[6], (Shape{16, 4, 4}));    // pool2
  EXPECT_EQ(s[7], (Shape{10, 1, 1}));    // logits
}

// --- arena planning ---------------------------------------------------------

TEST(Arena, ChainReusesTwoSlots) {
  const Network net = make_network("lenet");
  const ArenaPlan p = plan_arena(net.graph);
  EXPECT_EQ(validate_arena_plan(net.graph, p), "");
  // A pure chain ping-pongs between producer and consumer: 2 slots for 8
  // activations is the whole point of liveness planning.
  EXPECT_EQ(p.num_slots, 2);
}

TEST(Arena, ValidatorCatchesAliasedLiveTensors) {
  const Network net = make_network("lenet");
  ArenaPlan p = plan_arena(net.graph);
  ASSERT_EQ(validate_arena_plan(net.graph, p), "");
  // Force node 1 (conv1) into node 0's slot: node 0 (the input) is still
  // live at step 1 — conv1 is reading it.
  p.slot[1] = p.slot[0];
  EXPECT_NE(validate_arena_plan(net.graph, p), "");
}

TEST(Arena, ValidatorCatchesOutOfRangeSlots) {
  const Network net = make_network("lenet");
  ArenaPlan p = plan_arena(net.graph);
  p.slot[3] = p.num_slots;  // one past the end
  EXPECT_NE(validate_arena_plan(net.graph, p), "");
  p.slot[3] = -1;
  EXPECT_NE(validate_arena_plan(net.graph, p), "");
}

TEST(Arena, FanOutHoldsSlotsUntilLastConsumer) {
  // input feeds two pools; its slot must not be recycled for the first
  // pool's output.
  Graph g;
  const i32 x = g.add_input(1, 8, 8);
  const i32 p1 = g.add_max_pool(x, "p1");
  g.add_max_pool(p1, "p2");  // chain so there is a single sink
  ArenaPlan p = plan_arena(g);
  EXPECT_EQ(validate_arena_plan(g, p), "");
  EXPECT_NE(p.slot[1], p.slot[0]);  // p1 can't overwrite its own input
}

// --- execution: byte-identity -----------------------------------------------

TEST(RunGraph, FusedMatchesUnfusedBitExact) {
  for (const char* name : {"lenet", "vgg-tiny"}) {
    const Network net = make_network(name);
    const tensor::Tensor in = make_network_input(net);
    GraphRunOptions fused, unfused;
    unfused.fuse = false;
    sim::Device d1(sim::kepler_k40m());
    sim::Device d2(sim::kepler_k40m());
    const GraphRun a = run_graph(d1, net.graph, in, fused);
    const GraphRun b = run_graph(d2, net.graph, in, unfused);
    ASSERT_TRUE(a.output_valid);
    ASSERT_TRUE(b.output_valid);
    EXPECT_TRUE(bit_equal(a.output, b.output)) << name;
    EXPECT_EQ(a.fused_pairs, 2u);
    EXPECT_EQ(b.fused_pairs, 0u);
    EXPECT_GT(a.fusion_gm_bytes_eliminated, 0.0);
    // Fusion skips the two standalone bias_relu launches.
    EXPECT_EQ(a.nodes.size() + 2, b.nodes.size());
  }
}

TEST(RunGraph, MatchesHandSequencedBitExact) {
  for (const bool fuse : {true, false}) {
    const Network net = make_network("lenet");
    const tensor::Tensor in = make_network_input(net);
    GraphRunOptions opt;
    opt.fuse = fuse;
    sim::Device dev(sim::kepler_k40m());
    const GraphRun run = run_graph(dev, net.graph, in, opt);
    ASSERT_TRUE(run.output_valid);
    EXPECT_TRUE(bit_equal(run.output, run_hand_sequenced(net, in)))
        << "fuse=" << fuse;
  }
}

TEST(RunGraph, FusedMatchesUnfusedUnderParallelLaunch) {
  const Network net = make_network("lenet");
  const tensor::Tensor in = make_network_input(net);
  GraphRunOptions serial, parallel;
  parallel.launch.num_threads = 4;
  sim::Device d1(sim::kepler_k40m());
  sim::Device d2(sim::kepler_k40m());
  const GraphRun a = run_graph(d1, net.graph, in, serial);
  const GraphRun b = run_graph(d2, net.graph, in, parallel);
  ASSERT_TRUE(a.output_valid && b.output_valid);
  EXPECT_TRUE(bit_equal(a.output, b.output));
}

TEST(RunGraph, FusedMatchesUnfusedUnderReplay) {
  const Network net = make_network("lenet");
  const tensor::Tensor in = make_network_input(net);
  GraphRunOptions fused, unfused;
  fused.launch.replay = true;
  unfused.fuse = false;
  unfused.launch.replay = true;
  sim::Device d1(sim::kepler_k40m());
  sim::Device d2(sim::kepler_k40m());
  const GraphRun a = run_graph(d1, net.graph, in, fused);
  const GraphRun b = run_graph(d2, net.graph, in, unfused);
  ASSERT_TRUE(a.output_valid && b.output_valid);
  EXPECT_TRUE(bit_equal(a.output, b.output));
}

TEST(RunGraph, WarmReplayAndAnalyticFastPaths) {
  const std::string dir = fresh_dir("warm_analytic");
  sim::PlanCache plans(dir);
  const Network net = make_network("lenet");
  const tensor::Tensor in = make_network_input(net);

  GraphRunOptions opt;
  opt.launch.plan_cache = &plans;
  opt.launch.replay = true;

  sim::Device d1(sim::kepler_k40m());
  const GraphRun cold = run_graph(d1, net.graph, in, opt);
  ASSERT_TRUE(cold.output_valid);
  EXPECT_FALSE(cold.warm);

  sim::Device d2(sim::kepler_k40m());
  const GraphRun warm = run_graph(d2, net.graph, in, opt);
  ASSERT_TRUE(warm.output_valid);
  EXPECT_TRUE(warm.warm);
  EXPECT_TRUE(bit_equal(cold.output, warm.output));
  EXPECT_EQ(cold.total_seconds, warm.total_seconds);

  // Analytic: timings served straight from the stored tapes, no outputs.
  opt.launch.analytic = true;
  sim::Device d3(sim::kepler_k40m());
  const GraphRun fast = run_graph(d3, net.graph, in, opt);
  EXPECT_TRUE(fast.analytic);
  EXPECT_FALSE(fast.output_valid);
  EXPECT_EQ(fast.total_seconds, cold.total_seconds);
  fs::remove_all(dir);
}

TEST(RunGraph, FusedLaunchesStayHazardClean) {
  // The fused epilogue adds a bias load to the conv write-back and the
  // arena aliases activation buffers across steps; kconv-check's race
  // detector and cross-block GM overlap tracker must both stay silent.
  // (Perf lints are excluded: the small lenet shapes trip pre-existing
  // advisory lints on the unfused kernels too.)
  const Network net = make_network("lenet");
  const tensor::Tensor in = make_network_input(net);
  GraphRunOptions opt;
  opt.launch.hazard_check = true;
  sim::Device dev(sim::kepler_k40m());
  const GraphRun run = run_graph(dev, net.graph, in, opt);
  ASSERT_TRUE(run.output_valid);
  for (const NodeRun& nr : run.nodes) {
    EXPECT_EQ(nr.launch.analysis.races_total, 0u) << nr.name;
    EXPECT_EQ(nr.launch.analysis.gm_overlaps_total, 0u) << nr.name;
  }
}

TEST(RunGraph, RejectsWrongInputShape) {
  const Network net = make_network("lenet");
  sim::Device dev(sim::kepler_k40m());
  EXPECT_THROW(run_graph(dev, net.graph, tensor::Tensor(1, 1, 27, 27), {}),
               Error);
}

TEST(RunGraph, ArenaPeakStaysBelowKeepEverything) {
  const Network net = make_network("lenet");
  const tensor::Tensor in = make_network_input(net);
  sim::Device dev(sim::kepler_k40m());
  const GraphRun run = run_graph(dev, net.graph, in, {});
  EXPECT_LT(run.arena_peak_bytes, run.naive_peak_bytes);
  EXPECT_EQ(run.arena_slots, 2);
}

TEST(RunGraph, CommBoundChunksNeedModeledComputeTime) {
  // The §9 rule: a device chunk is communication-bound when its transfer
  // time exceeds its compute time and the compute time is positive. A
  // Functional trace models no compute time, so no chunk counts; with
  // timing, 3 of lenet's 4 batch-shard chunks stage longer than they run.
  const Network net = make_network("lenet");
  const tensor::Tensor in = make_network_input(net);
  for (const sim::TraceLevel level :
       {sim::TraceLevel::Functional, sim::TraceLevel::Timing}) {
    GraphRunOptions opt;
    opt.launch.trace = level;
    opt.launch.fleet.devices = 2;
    opt.launch.fleet.strategy = sim::ShardStrategy::Batch;
    sim::Device dev(sim::kepler_k40m());
    const GraphRun run = run_graph(dev, net.graph, in, opt);
    ASSERT_TRUE(run.output_valid);
    EXPECT_EQ(run.fleet_device_chunks, 4u);
    u64 verdicts = 0;
    for (const NodeRun& nr : run.nodes) {
      if (nr.launch.fleet.interdevice_verdict == "communication-bound") {
        ++verdicts;
      }
    }
    if (level == sim::TraceLevel::Functional) {
      EXPECT_EQ(run.comm_bound_devices, 0u);
      EXPECT_EQ(verdicts, 0u);
    } else {
      EXPECT_EQ(run.comm_bound_devices, 3u);
    }
  }
}

// --- conv-level fused epilogue ----------------------------------------------

TEST(FusedEpilogue, SpecialConvMatchesSeparatePassBitExact) {
  Rng rng(21);
  tensor::Tensor img = tensor::Tensor::image(1, 20, 20);
  img.fill_random(rng, -1.0f, 1.0f);
  tensor::Tensor flt = tensor::Tensor::filters(6, 1, 5);
  flt.fill_random(rng, -0.5f, 0.5f);
  std::vector<float> bias(6);
  for (auto& b : bias) b = rng.uniform(-0.4f, 0.4f);

  sim::Device d1(sim::kepler_k40m());
  core::ConvOptions fused;
  fused.algo = core::Algo::Special;
  fused.fuse_bias_relu = bias;
  const auto a = core::conv2d(d1, img, flt, fused);
  ASSERT_TRUE(a.output_valid);

  sim::Device d2(sim::kepler_k40m());
  core::ConvOptions plain;
  plain.algo = core::Algo::Special;
  const auto c = core::conv2d(d2, img, flt, plain);
  ASSERT_TRUE(c.output_valid);
  const auto b = kernels::bias_relu(d2, c.output, bias);
  ASSERT_TRUE(b.output_valid);
  EXPECT_TRUE(bit_equal(a.output, b.output));
}

TEST(FusedEpilogue, GeneralConvMatchesSeparatePassBitExact) {
  Rng rng(22);
  tensor::Tensor img = tensor::Tensor::image(5, 16, 16);
  img.fill_random(rng, -1.0f, 1.0f);
  // F = 10 exercises the ragged filter tail (f_padded > F): the zero-padded
  // bias entries must never leak into real outputs.
  tensor::Tensor flt = tensor::Tensor::filters(10, 5, 3);
  flt.fill_random(rng, -0.5f, 0.5f);
  std::vector<float> bias(10);
  for (auto& b : bias) b = rng.uniform(-0.4f, 0.4f);

  sim::Device d1(sim::kepler_k40m());
  core::ConvOptions fused;
  fused.algo = core::Algo::General;
  fused.fuse_bias_relu = bias;
  const auto a = core::conv2d(d1, img, flt, fused);
  ASSERT_TRUE(a.output_valid);

  sim::Device d2(sim::kepler_k40m());
  core::ConvOptions plain;
  plain.algo = core::Algo::General;
  const auto c = core::conv2d(d2, img, flt, plain);
  ASSERT_TRUE(c.output_valid);
  const auto b = kernels::bias_relu(d2, c.output, bias);
  ASSERT_TRUE(b.output_valid);
  EXPECT_TRUE(bit_equal(a.output, b.output));
}

TEST(FusedEpilogue, RejectedForAlgosWithoutAnEpilogue) {
  Rng rng(23);
  tensor::Tensor img = tensor::Tensor::image(4, 12, 12);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(4, 4, 3);
  flt.fill_random(rng);
  std::vector<float> bias(4, 0.1f);
  sim::Device dev(sim::kepler_k40m());
  core::ConvOptions opt;
  opt.algo = core::Algo::Im2colGemm;
  opt.fuse_bias_relu = bias;
  EXPECT_THROW(core::conv2d(dev, img, flt, opt), Error);
}

TEST(FusedEpilogue, PlanKeysDifferFusedVsUnfused) {
  // A fused plan replayed as an unfused launch (or vice versa) would be
  // wrong: the cache key must separate them.
  const std::string dir = fresh_dir("plan_keys");
  sim::PlanCache plans(dir);
  Rng rng(24);
  tensor::Tensor img = tensor::Tensor::image(1, 16, 16);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(4, 1, 3);
  flt.fill_random(rng);
  std::vector<float> bias(4, 0.1f);

  core::ConvOptions opt;
  opt.algo = core::Algo::Special;
  opt.launch.plan_cache = &plans;
  opt.launch.replay = true;

  sim::Device d1(sim::kepler_k40m());
  (void)core::conv2d(d1, img, flt, opt);  // unfused: stores its plan

  opt.fuse_bias_relu = bias;
  sim::Device d2(sim::kepler_k40m());
  const auto fused = core::conv2d(d2, img, flt, opt);
  EXPECT_FALSE(fused.launch.plan_cache_hit);  // distinct key → cold
  ASSERT_TRUE(fused.output_valid);

  sim::Device d3(sim::kepler_k40m());
  const auto warm = core::conv2d(d3, img, flt, opt);
  EXPECT_TRUE(warm.launch.plan_cache_hit);
  EXPECT_TRUE(bit_equal(fused.output, warm.output));
  fs::remove_all(dir);
}

// --- networks ---------------------------------------------------------------

TEST(Networks, UnknownNameThrows) {
  EXPECT_THROW(make_network("resnet-152"), Error);
}

TEST(Networks, SameNameSameSeedIsBitIdentical) {
  const Network a = make_network("vgg-tiny");
  const Network b = make_network("vgg-tiny");
  ASSERT_EQ(a.graph.nodes().size(), b.graph.nodes().size());
  for (std::size_t i = 0; i < a.graph.nodes().size(); ++i) {
    const Node& na = a.graph.nodes()[i];
    const Node& nb = b.graph.nodes()[i];
    EXPECT_EQ(na.kind, nb.kind);
    EXPECT_EQ(na.bias, nb.bias);
    if (na.kind == OpKind::Conv) {
      EXPECT_TRUE(bit_equal(na.filters, nb.filters));
    }
  }
}

}  // namespace
}  // namespace kconv::serve
