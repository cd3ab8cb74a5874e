#include "src/serve/graph.hpp"

#include <algorithm>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/strutil.hpp"
#include "src/core/conv_api.hpp"
#include "src/kernels/gemm_kernels.hpp"
#include "src/kernels/layer_ops.hpp"

namespace kconv::serve {

const char* op_name(OpKind k) {
  switch (k) {
    case OpKind::Input: return "input";
    case OpKind::Conv: return "conv";
    case OpKind::BiasRelu: return "bias_relu";
    case OpKind::MaxPool: return "max_pool";
    case OpKind::Dense: return "dense";
  }
  return "?";
}

i32 Graph::push(Node n) {
  if (n.kind != OpKind::Input) {
    KCONV_CHECK(n.input >= 0 && n.input < static_cast<i32>(nodes_.size()),
                strf("node input id %d out of range", n.input));
  }
  if (n.name.empty()) {
    n.name = strf("%s%zu", op_name(n.kind), nodes_.size());
  }
  nodes_.push_back(std::move(n));
  return static_cast<i32>(nodes_.size()) - 1;
}

i32 Graph::add_input(i64 c, i64 h, i64 w) {
  KCONV_CHECK(nodes_.empty(), "a graph has exactly one input node, first");
  KCONV_CHECK(c >= 1 && h >= 1 && w >= 1, "empty input shape");
  Node n;
  n.kind = OpKind::Input;
  n.in_c = c;
  n.in_h = h;
  n.in_w = w;
  return push(std::move(n));
}

i32 Graph::add_conv(i32 input, tensor::Tensor filters, std::string name) {
  KCONV_CHECK(filters.h() == filters.w(), "non-square filters unsupported");
  Node n;
  n.kind = OpKind::Conv;
  n.input = input;
  n.filters = std::move(filters);
  n.name = std::move(name);
  return push(std::move(n));
}

i32 Graph::add_bias_relu(i32 input, std::vector<float> bias,
                         std::string name) {
  KCONV_CHECK(!bias.empty(), "empty bias vector");
  Node n;
  n.kind = OpKind::BiasRelu;
  n.input = input;
  n.bias = std::move(bias);
  n.name = std::move(name);
  return push(std::move(n));
}

i32 Graph::add_max_pool(i32 input, std::string name) {
  Node n;
  n.kind = OpKind::MaxPool;
  n.input = input;
  n.name = std::move(name);
  return push(std::move(n));
}

i32 Graph::add_dense(i32 input, tensor::Matrix weights, std::string name) {
  KCONV_CHECK(weights.rows >= 1 && weights.cols >= 1, "empty dense weights");
  Node n;
  n.kind = OpKind::Dense;
  n.input = input;
  n.weights = std::move(weights);
  n.name = std::move(name);
  return push(std::move(n));
}

i32 Graph::input_node() const {
  KCONV_CHECK(!nodes_.empty() && nodes_[0].kind == OpKind::Input,
              "graph has no input node");
  return 0;
}

u32 Graph::consumer_count(i32 id) const {
  u32 count = 0;
  for (const Node& n : nodes_) {
    if (n.kind != OpKind::Input && n.input == id) ++count;
  }
  return count;
}

i32 Graph::output_node() const {
  i32 sink = -1;
  for (i32 i = 0; i < static_cast<i32>(nodes_.size()); ++i) {
    if (consumer_count(i) == 0) {
      KCONV_CHECK(sink < 0, "graph has more than one sink node");
      sink = i;
    }
  }
  KCONV_CHECK(sink >= 0, "graph has no sink node");
  return sink;
}

std::vector<Shape> Graph::shapes() const {
  std::vector<Shape> out;
  out.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    const auto fail = [&](const std::string& why) {
      KCONV_CHECK(false, strf("node %zu (%s): %s", i, n.name.c_str(),
                              why.c_str()));
    };
    Shape in{};
    if (n.kind != OpKind::Input) in = out[static_cast<std::size_t>(n.input)];
    Shape s{};
    switch (n.kind) {
      case OpKind::Input:
        s = Shape{n.in_c, n.in_h, n.in_w};
        break;
      case OpKind::Conv: {
        if (n.filters.c() != in.c) {
          fail(strf("filters expect %lld channels, input has %lld",
                    static_cast<long long>(n.filters.c()),
                    static_cast<long long>(in.c)));
        }
        const i64 k = n.filters.h();
        s = Shape{n.filters.n(), in.h - k + 1, in.w - k + 1};
        if (s.h < 1 || s.w < 1) fail("image smaller than the filter");
        break;
      }
      case OpKind::BiasRelu:
        if (static_cast<i64>(n.bias.size()) != in.c) {
          fail(strf("bias has %zu entries for %lld channels", n.bias.size(),
                    static_cast<long long>(in.c)));
        }
        s = in;
        break;
      case OpKind::MaxPool:
        if (in.h < 2 || in.w < 2) fail("input too small to pool");
        s = Shape{in.c, in.h / 2, in.w / 2};
        break;
      case OpKind::Dense:
        if (n.weights.cols != in.elems()) {
          fail(strf("dense expects %lld features, input has %lld",
                    static_cast<long long>(n.weights.cols),
                    static_cast<long long>(in.elems())));
        }
        s = Shape{n.weights.rows, 1, 1};
        break;
    }
    out.push_back(s);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Arena.

namespace {

/// Step index after which node `i`'s output is dead: the id of its last
/// consumer (the sink stays live to the end).
std::vector<i32> last_uses(const Graph& g) {
  const auto& nodes = g.nodes();
  std::vector<i32> last(nodes.size());
  for (i32 i = 0; i < static_cast<i32>(nodes.size()); ++i) {
    last[static_cast<std::size_t>(i)] = i;
  }
  for (i32 i = 0; i < static_cast<i32>(nodes.size()); ++i) {
    const Node& n = nodes[static_cast<std::size_t>(i)];
    if (n.kind != OpKind::Input) {
      auto& l = last[static_cast<std::size_t>(n.input)];
      l = std::max(l, i);
    }
  }
  // The sink's output is the graph's result: pin it past every step.
  last[static_cast<std::size_t>(g.output_node())] =
      static_cast<i32>(nodes.size());
  return last;
}

}  // namespace

ArenaPlan plan_arena(const Graph& g) {
  const auto& nodes = g.nodes();
  const std::vector<i32> last = last_uses(g);
  ArenaPlan p;
  p.slot.assign(nodes.size(), -1);
  std::vector<bool> free_slot;  // index = slot id
  std::vector<bool> released(nodes.size(), false);
  for (i32 i = 0; i < static_cast<i32>(nodes.size()); ++i) {
    // Release slots whose owner died strictly before this step, so a node
    // never writes into the slot it is reading from.
    for (i32 p2 = 0; p2 < i; ++p2) {
      if (!released[static_cast<std::size_t>(p2)] &&
          last[static_cast<std::size_t>(p2)] < i) {
        free_slot[static_cast<std::size_t>(
            p.slot[static_cast<std::size_t>(p2)])] = true;
        released[static_cast<std::size_t>(p2)] = true;
      }
    }
    i32 chosen = -1;
    for (std::size_t s = 0; s < free_slot.size(); ++s) {
      if (free_slot[s]) {
        chosen = static_cast<i32>(s);
        break;
      }
    }
    if (chosen < 0) {
      chosen = static_cast<i32>(free_slot.size());
      free_slot.push_back(false);
    }
    free_slot[static_cast<std::size_t>(chosen)] = false;
    p.slot[static_cast<std::size_t>(i)] = chosen;
  }
  p.num_slots = static_cast<i32>(free_slot.size());
  return p;
}

std::string validate_arena_plan(const Graph& g, const ArenaPlan& p) {
  const auto& nodes = g.nodes();
  if (p.slot.size() != nodes.size()) return "plan covers wrong node count";
  const std::vector<i32> last = last_uses(g);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (p.slot[i] < 0 || p.slot[i] >= p.num_slots) {
      return strf("node %zu has invalid slot %d", i, p.slot[i]);
    }
  }
  for (std::size_t a = 0; a < nodes.size(); ++a) {
    for (std::size_t b = a + 1; b < nodes.size(); ++b) {
      if (p.slot[a] != p.slot[b]) continue;
      // b is created at step b; a is live through step last[a]. b reusing
      // the slot while a is still needed (b <= last[a]) aliases them.
      if (static_cast<i32>(b) <= last[a]) {
        return strf("nodes %zu and %zu alias slot %d while both live", a, b,
                    p.slot[a]);
      }
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Execution.

namespace {

/// One conv launch's share of the run totals: the only place run_graph grows
/// them. `out_elems` is the conv output's element count.
obs::RunTotals conv_totals(const sim::LaunchResult& l, bool fused,
                           i64 out_elems) {
  obs::RunTotals t;
  t.conv_launches = 1;
  t.plan_taxonomy.add(l.plan_cache_status);
  if (fused) {
    t.fused_pairs = 1;
    // The unfused sequence writes the conv output to GM and the bias_relu
    // pass reads it back: 8 bytes per element eliminated.
    t.fusion_gm_bytes_eliminated = 8.0 * static_cast<double>(out_elems);
  }
  t.fleet_h2d_bytes = l.fleet.h2d_bytes;
  t.fleet_d2h_bytes = l.fleet.d2h_bytes;
  t.fleet_d2d_bytes = l.fleet.d2d_bytes;
  t.fleet_transfer_seconds = l.fleet.transfer_seconds;
  t.fleet_device_chunks = l.fleet.device_reports.size();
  for (const sim::FleetDeviceReport& d : l.fleet.device_reports) {
    if (sim::comm_bound(d.transfer_seconds, d.compute_seconds)) {
      ++t.comm_bound_devices;
    }
  }
  return t;
}

}  // namespace

std::string shard_error(const sim::Arch& arch, const Graph& g,
                        const sim::FleetOptions& fleet) {
  if (fleet.devices <= 1) return "";
  const std::vector<Shape> shp = g.shapes();
  core::ConvOptions copt;
  copt.launch.fleet = fleet;
  for (const Node& n : g.nodes()) {
    if (n.kind != OpKind::Conv) continue;
    const Shape& in = shp[static_cast<std::size_t>(n.input)];
    const std::string why = core::conv2d_shard_error(
        arch, in.c, n.filters.n(), n.filters.h(), in.h, in.w, copt);
    if (!why.empty()) {
      return strf("conv layer '%s': %s", n.name.c_str(), why.c_str());
    }
  }
  return "";
}

GraphRun run_graph(sim::Device& dev, const Graph& g,
                   const tensor::Tensor& input, const GraphRunOptions& opt) {
  const std::string why = shard_error(dev.arch(), g, opt.launch.fleet);
  KCONV_CHECK(why.empty(), why);
  const auto& nodes = g.nodes();
  const std::vector<Shape> shp = g.shapes();
  const i32 in_id = g.input_node();
  const i32 out_id = g.output_node();
  KCONV_CHECK(input.n() == 1, "graphs run single-image activations");
  KCONV_CHECK((Shape{input.c(), input.h(), input.w()} ==
               shp[static_cast<std::size_t>(in_id)]),
              strf("input is %lldx%lldx%lld, graph expects %lldx%lldx%lld",
                   static_cast<long long>(input.c()),
                   static_cast<long long>(input.h()),
                   static_cast<long long>(input.w()),
                   static_cast<long long>(shp[0].c),
                   static_cast<long long>(shp[0].h),
                   static_cast<long long>(shp[0].w)));

  const ArenaPlan arena = plan_arena(g);
  KCONV_ASSERT(validate_arena_plan(g, arena).empty());
  const std::vector<i32> last = last_uses(g);

  // Fusion pairing: a conv whose single consumer is the bias+ReLU node
  // right after it absorbs that node. The adjacency requirement (j == i+1)
  // is what makes writing the fused result into j's arena slot at step i
  // safe: any previous occupant of that slot had its last consumer at or
  // before step i, so it is dead by the time the conv has executed.
  std::vector<i32> fuse_with(nodes.size(), -1);  // conv id -> bias node id
  std::vector<bool> absorbed(nodes.size(), false);
  if (opt.fuse) {
    for (i32 j = 1; j < static_cast<i32>(nodes.size()); ++j) {
      const Node& n = nodes[static_cast<std::size_t>(j)];
      if (n.kind != OpKind::BiasRelu || n.input != j - 1) continue;
      if (nodes[static_cast<std::size_t>(n.input)].kind != OpKind::Conv) {
        continue;
      }
      if (g.consumer_count(n.input) != 1) continue;
      fuse_with[static_cast<std::size_t>(n.input)] = j;
      absorbed[static_cast<std::size_t>(j)] = true;
    }
  }

  // Non-conv kernels have no replay classes: they always execute directly.
  const bool analytic_mode = opt.launch.analytic;
  sim::LaunchOptions aux = opt.launch;
  aux.analytic = false;
  aux.replay = false;
  // Fleet sharding applies to the conv launches (which declare shard-axis
  // hints); the epilogue kernels are a rounding error of the graph's work
  // and run single-device.
  aux.fleet = sim::FleetOptions{};

  GraphRun run;
  run.arena_slots = arena.num_slots;
  std::vector<tensor::Tensor> slots(static_cast<std::size_t>(arena.num_slots));
  std::vector<bool> valid(nodes.size(), false);

  // Peak-memory accounting over materialized outputs (fused convs never
  // materialize): what the arena holds vs. keeping every activation alive
  // the way the hand-sequenced examples do.
  {
    std::vector<u64> bytes(nodes.size(), 0);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const u64 b = static_cast<u64>(shp[i].elems()) * sizeof(float);
      // Naive = the hand-sequenced path: every activation (fused or not)
      // stays live to the end of the pass.
      run.naive_peak_bytes += b;
      if (fuse_with[i] >= 0) continue;  // fused conv never materializes
      bytes[i] = b;
      ++run.arena_tensors;
    }
    for (i32 step = 0; step < static_cast<i32>(nodes.size()); ++step) {
      u64 live = 0;
      for (i32 i = 0; i <= step; ++i) {
        if (last[static_cast<std::size_t>(i)] >= step) {
          live += bytes[static_cast<std::size_t>(i)];
        }
      }
      run.arena_peak_bytes = std::max(run.arena_peak_bytes, live);
    }
  }

  // kconv-scope (docs/MODEL.md §11): one span per executed node, re-parented
  // under the caller's scope; arena events record slot recycling as it
  // happens. All guarded — a null sink leaves the run byte-identical.
  const obs::TelemetryScope tel = opt.launch.telemetry;
  u64 node_span = 0;  // current node's span, captured by place() below
  std::vector<bool> slot_occupied(static_cast<std::size_t>(arena.num_slots),
                                  false);

  // Input tensor for node `id`'s producer; under analytic/sampled launches
  // upstream data may not exist, so a zero dummy of the right shape keeps
  // the launch sequence (and its timings) intact.
  tensor::Tensor dummy;
  const auto input_of = [&](i32 id) -> const tensor::Tensor& {
    const i32 p = nodes[static_cast<std::size_t>(id)].input;
    if (valid[static_cast<std::size_t>(p)]) {
      return slots[static_cast<std::size_t>(
          arena.slot[static_cast<std::size_t>(p)])];
    }
    const Shape s = shp[static_cast<std::size_t>(p)];
    dummy = tensor::Tensor(1, s.c, s.h, s.w);
    return dummy;
  };
  const auto place = [&](i32 id, tensor::Tensor t, bool ok) {
    const i32 slot = arena.slot[static_cast<std::size_t>(id)];
    const bool reused = slot_occupied[static_cast<std::size_t>(slot)];
    if (reused) ++run.arena_slot_reuses;
    if (tel.on()) {
      tel.sink->arena_event(
          tel.trace, node_span != 0 ? node_span : tel.parent,
          nodes[static_cast<std::size_t>(id)].name, slot, reused,
          static_cast<u64>(shp[static_cast<std::size_t>(id)].elems()) *
              sizeof(float));
    }
    slot_occupied[static_cast<std::size_t>(slot)] = true;
    slots[static_cast<std::size_t>(slot)] = std::move(t);
    valid[static_cast<std::size_t>(id)] = ok;
  };

  // Every executed node records its launch and simulated seconds here.
  const auto record = [&](const Node& n, bool fused, double seconds,
                          sim::LaunchResult&& launch) {
    run.total_seconds += seconds;
    run.nodes.push_back(NodeRun{n.kind, n.name, fused, std::move(launch)});
  };

  u32 conv_hits = 0, conv_analytic = 0;
  for (i32 i = 0; i < static_cast<i32>(nodes.size()); ++i) {
    const Node& n = nodes[static_cast<std::size_t>(i)];
    if (absorbed[static_cast<std::size_t>(i)]) continue;  // ran fused
    node_span = 0;
    if (tel.on() && n.kind != OpKind::Input) {
      node_span = tel.sink->begin_span(
          tel.trace, tel.parent, "graph", strf("node:%s", n.name.c_str()),
          strf("{\"kind\":\"%s\",\"fused\":%s}", op_name(n.kind),
               fuse_with[static_cast<std::size_t>(i)] >= 0 ? "true"
                                                           : "false"));
    }
    // Launch options for this node's kernels, scoped under its span.
    const auto scoped = [&](const sim::LaunchOptions& base) {
      sim::LaunchOptions lo = base;
      if (tel.on()) lo.telemetry = tel.child(node_span);
      return lo;
    };
    const bool in_ok =
        n.kind == OpKind::Input || valid[static_cast<std::size_t>(n.input)];
    switch (n.kind) {
      case OpKind::Input:
        place(i, input, true);
        break;
      case OpKind::Conv: {
        const i32 j = fuse_with[static_cast<std::size_t>(i)];
        core::ConvOptions copt;
        copt.launch = scoped(opt.launch);
        if (j >= 0) {
          copt.fuse_bias_relu = nodes[static_cast<std::size_t>(j)].bias;
        }
        auto res = core::conv2d(dev, input_of(i), n.filters, copt);
        run += conv_totals(res.launch, j >= 0,
                           shp[static_cast<std::size_t>(i)].elems());
        if (res.launch.plan_cache_hit) ++conv_hits;
        if (res.launch.analytic) ++conv_analytic;
        record(n, j >= 0, res.total_seconds, std::move(res.launch));
        place(j >= 0 ? j : i, std::move(res.output),
              res.output_valid && in_ok);
        break;
      }
      case OpKind::BiasRelu:
      case OpKind::MaxPool: {
        auto res =
            n.kind == OpKind::BiasRelu
                ? kernels::bias_relu(dev, input_of(i), n.bias, scoped(aux))
                : kernels::max_pool_2x2(dev, input_of(i), scoped(aux));
        record(n, false, res.launch.timing.seconds, std::move(res.launch));
        place(i, std::move(res.output), res.output_valid && in_ok);
        break;
      }
      case OpKind::Dense: {
        const tensor::Tensor& x = input_of(i);
        tensor::Matrix xin(n.weights.cols, 1);
        for (i64 f = 0; f < n.weights.cols; ++f) {
          xin.data[static_cast<std::size_t>(f)] =
              x.flat()[static_cast<std::size_t>(f)];
        }
        auto fc = kernels::gemm(dev, n.weights, xin,
                                kernels::gemm_fitted(n.weights.rows, 1),
                                scoped(aux));
        record(n, false, fc.launch.timing.seconds, std::move(fc.launch));
        tensor::Tensor logits(1, n.weights.rows, 1, 1);
        for (i64 r = 0; r < n.weights.rows; ++r) {
          logits.at(0, r, 0, 0) = fc.c.data[static_cast<std::size_t>(r)];
        }
        place(i, std::move(logits), fc.output_valid && in_ok);
        break;
      }
    }
    if (node_span != 0) tel.sink->end_span(node_span);
  }

  run.warm = run.conv_launches > 0 && conv_hits == run.conv_launches;
  run.analytic = analytic_mode && run.conv_launches > 0 &&
                 conv_analytic == run.conv_launches;
  run.output_valid = valid[static_cast<std::size_t>(out_id)];
  if (run.output_valid || analytic_mode) {
    run.output = std::move(
        slots[static_cast<std::size_t>(
            arena.slot[static_cast<std::size_t>(out_id)])]);
  }
  return run;
}

}  // namespace kconv::serve
