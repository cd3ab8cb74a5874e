// Layer-graph runner: composing the library's kernels into whole networks.
//
// A Graph is a small DAG of layer nodes (input, conv, bias+ReLU, 2x2
// max-pool, dense/GEMM) over single-image activations. run_graph() executes
// it on a simulated device with three properties the hand-sequenced
// examples do not have:
//
//  * FUSION — a conv whose only consumer is a bias+ReLU node executes with
//    the epilogue folded into the conv's write-back (special_conv /
//    general_conv `fuse_bias_relu`), so the intermediate activation never
//    round-trips simulated global memory. Outputs are bit-identical to the
//    two-launch sequence; the eliminated GM traffic is reported.
//
//  * TENSOR ARENA — intermediate activations live in a small set of reusable
//    slots assigned by liveness analysis (a node's slot is recycled after
//    its last consumer ran), instead of keeping every activation alive to
//    the end of the pass.
//
//  * FAST PATHS — the LaunchOptions are forwarded to every conv launch, so a
//    shared PlanCache turns warm traffic into §5d warm-replay or
//    pure-analytic launches. Non-conv kernels have no replay classes; they
//    always execute directly (and never see the analytic flag).
#pragma once

#include <string>
#include <vector>

#include "src/common/types.hpp"
#include "src/obs/scope.hpp"
#include "src/sim/launch.hpp"
#include "src/tensor/im2col.hpp"
#include "src/tensor/tensor.hpp"

namespace kconv::serve {

enum class OpKind : u8 { Input, Conv, BiasRelu, MaxPool, Dense };

const char* op_name(OpKind k);

/// One layer. Nodes are single-input; fan-out (several consumers of one
/// node) is allowed and handled by the arena's liveness analysis.
struct Node {
  OpKind kind = OpKind::Input;
  i32 input = -1;  ///< producer node id; -1 only for Input
  std::string name;
  i64 in_c = 0, in_h = 0, in_w = 0;  ///< Input: declared shape
  tensor::Tensor filters;            ///< Conv: (F, C, K, K)
  std::vector<float> bias;           ///< BiasRelu: C entries
  tensor::Matrix weights;            ///< Dense: (out_features, in_features)
};

/// Activation shape flowing along an edge (single image, C x H x W; a dense
/// layer's logits are (out, 1, 1)).
struct Shape {
  i64 c = 0, h = 0, w = 0;
  i64 elems() const { return c * h * w; }
  bool operator==(const Shape&) const = default;
};

class Graph {
 public:
  /// Every builder validates eagerly (shapes are known at build time) and
  /// returns the new node's id.
  i32 add_input(i64 c, i64 h, i64 w);
  i32 add_conv(i32 input, tensor::Tensor filters, std::string name = {});
  i32 add_bias_relu(i32 input, std::vector<float> bias,
                    std::string name = {});
  i32 add_max_pool(i32 input, std::string name = {});
  i32 add_dense(i32 input, tensor::Matrix weights, std::string name = {});

  const std::vector<Node>& nodes() const { return nodes_; }
  i32 input_node() const;
  /// The unique sink (node no other node consumes). Throws when the graph
  /// is empty or has more than one sink.
  i32 output_node() const;
  u32 consumer_count(i32 id) const;

  /// Output shape of every node. Node ids are topologically ordered by
  /// construction (a node's input must already exist), so this is one pass.
  std::vector<Shape> shapes() const;

 private:
  i32 push(Node n);
  std::vector<Node> nodes_;
};

// ---------------------------------------------------------------------------
// Tensor arena: liveness-based slot assignment for intermediates.

struct ArenaPlan {
  std::vector<i32> slot;  ///< per node: which arena slot holds its output
  i32 num_slots = 0;
};

/// Assigns slots greedily over the (topological) node order: a node takes
/// the lowest free slot, and a producer's slot is freed right after its
/// last consumer. The graph output's slot is never recycled.
ArenaPlan plan_arena(const Graph& g);

/// "" when no two simultaneously-live node outputs share a slot (and every
/// node has a valid slot id); otherwise the first violation found. The
/// arena-aliasing regression tests drive this against both generated and
/// deliberately corrupted plans.
std::string validate_arena_plan(const Graph& g, const ArenaPlan& p);

// ---------------------------------------------------------------------------
// Execution.

struct GraphRunOptions {
  /// Fold conv -> bias+ReLU pairs into the conv's write-back epilogue.
  bool fuse = true;
  /// Forwarded to every launch; `analytic` applies to conv nodes only (the
  /// other kernels have no replay classes and reject the flag).
  sim::LaunchOptions launch;
};

struct NodeRun {
  OpKind kind = OpKind::Input;
  std::string name;
  bool fused = false;  ///< conv that absorbed its bias+ReLU consumer
  sim::LaunchResult launch;
};

/// One graph pass: its output, per-launch records, and the run totals
/// (docs/MODEL.md §11) that the serving driver rolls up per request.
struct GraphRun : obs::RunTotals {
  /// Output of the sink node ((1, out, 1, 1) for a dense head). Invalid
  /// under analytic/sampled launches, which produce timings but no data.
  tensor::Tensor output;
  bool output_valid = false;
  double total_seconds = 0.0;
  /// Every plan-cached conv launch hit (resp. ran the analytic fast path).
  bool warm = false;
  bool analytic = false;
  std::vector<NodeRun> nodes;  ///< one per executed launch

  /// Arena accounting (bytes are activation payloads, host-side view);
  /// arena_peak_bytes and arena_slot_reuses are run totals.
  i32 arena_slots = 0;
  i32 arena_tensors = 0;  ///< intermediates that would otherwise stay live
  u64 naive_peak_bytes = 0;
};

/// Why run_graph would refuse to shard `g` across `fleet`, or "" when it
/// would not: the first conv layer whose kernel declares no axis for the
/// strategy (core::conv2d_shard_error), by name. run_graph throws it before
/// the first launch; kconv_cli --serve exits 2 with it before any request.
std::string shard_error(const sim::Arch& arch, const Graph& g,
                        const sim::FleetOptions& fleet);

/// Runs the graph on `input` ((1, C, H, W) matching the Input node).
/// Byte-identity contract: for the same graph and input, the output is
/// bit-for-bit identical with fusion on or off, and across serial,
/// parallel, warm-replay and (trivially, by having no output) analytic
/// launch modes.
GraphRun run_graph(sim::Device& dev, const Graph& g,
                   const tensor::Tensor& input,
                   const GraphRunOptions& opt = {});

}  // namespace kconv::serve
