// End-to-end CNN inference — both of the paper's kernels in one pipeline.
//
// A LeNet-style network on a 28x28 grayscale input:
//   conv1: 1 -> 8 channels, 5x5   <- the SPECIAL-case kernel (C = 1)
//   bias + ReLU, 2x2 max-pool
//   conv2: 8 -> 16 channels, 5x5  <- the GENERAL-case kernel
//   bias + ReLU, 2x2 max-pool
//   fc:    flatten -> 10 logits via the blocked GEMM kernel
//
// Weights are random (this demonstrates the compute pipeline, not a trained
// model); every stage is validated against a host-side reference so the
// printed logits are provably what the simulated GPU computed.
//
// The network is executed twice: once hand-sequenced (each kernel called
// explicitly, every intermediate verified), and once through the layer-graph
// runner (docs/MODEL.md §8) with the fused conv+bias+ReLU epilogue and the
// liveness-planned tensor arena. The two paths must produce bit-identical
// logits — fusion changes where the bias-add happens, not what it computes.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "src/core/conv_api.hpp"
#include "src/kernels/gemm_kernels.hpp"
#include "src/kernels/layer_ops.hpp"
#include "src/serve/graph.hpp"
#include "src/tensor/compare.hpp"
#include "src/tensor/conv_ref.hpp"
#include "src/tensor/gemm_ref.hpp"

using namespace kconv;

namespace {

tensor::Tensor host_bias_relu(const tensor::Tensor& t,
                              const std::vector<float>& bias) {
  tensor::Tensor out = t;
  for (i64 c = 0; c < t.c(); ++c)
    for (i64 y = 0; y < t.h(); ++y)
      for (i64 x = 0; x < t.w(); ++x)
        out.at(0, c, y, x) =
            std::max(0.0f, t.at(0, c, y, x) + bias[static_cast<std::size_t>(c)]);
  return out;
}

tensor::Tensor host_pool(const tensor::Tensor& t) {
  tensor::Tensor out(1, t.c(), t.h() / 2, t.w() / 2);
  for (i64 c = 0; c < out.c(); ++c)
    for (i64 y = 0; y < out.h(); ++y)
      for (i64 x = 0; x < out.w(); ++x)
        out.at(0, c, y, x) = std::max(
            std::max(t.at(0, c, 2 * y, 2 * x), t.at(0, c, 2 * y, 2 * x + 1)),
            std::max(t.at(0, c, 2 * y + 1, 2 * x),
                     t.at(0, c, 2 * y + 1, 2 * x + 1)));
  return out;
}

}  // namespace

int main() {
  Rng rng(1234);
  sim::Device dev(sim::kepler_k40m());
  double total_ms = 0.0;
  bool all_ok = true;

  // Input: synthetic 28x28 "digit".
  tensor::Tensor x = tensor::Tensor::image(1, 28, 28);
  for (i64 y = 0; y < 28; ++y)
    for (i64 xx = 0; xx < 28; ++xx)
      x.at(0, 0, y, xx) =
          (std::abs(y - 14) + std::abs(xx - 14) < 10) ? 0.9f : 0.05f;

  auto check = [&](const char* stage, const tensor::Tensor& got,
                   const tensor::Tensor& want) {
    const bool ok = tensor::allclose(got, want, 5e-4, 5e-4);
    if (!ok) all_ok = false;
    std::printf("  %-22s %s\n", stage, ok ? "verified" : "MISMATCH");
  };

  // --- conv1 (special case) -------------------------------------------------
  tensor::Tensor w1 = tensor::Tensor::filters(8, 1, 5);
  w1.fill_random(rng, -0.3f, 0.3f);
  std::vector<float> b1(8);
  for (auto& b : b1) b = rng.uniform(-0.1f, 0.1f);

  auto c1 = core::conv2d(dev, x, w1);
  total_ms += c1.total_seconds * 1e3;
  std::printf("conv1  (%s, 24x24x8):   %.1f GF\n",
              core::algo_name(c1.algo_used), c1.effective_gflops);
  check("conv1", c1.output, tensor::conv2d_reference(x, w1));

  auto r1 = kernels::bias_relu(dev, c1.output, b1);
  total_ms += r1.launch.timing.seconds * 1e3;
  const tensor::Tensor r1_ref = host_bias_relu(c1.output, b1);
  check("bias+relu 1", r1.output, r1_ref);

  auto p1 = kernels::max_pool_2x2(dev, r1.output);
  total_ms += p1.launch.timing.seconds * 1e3;
  check("pool 1 (12x12x8)", p1.output, host_pool(r1_ref));

  // --- conv2 (general case) -------------------------------------------------
  tensor::Tensor w2 = tensor::Tensor::filters(16, 8, 5);
  w2.fill_random(rng, -0.2f, 0.2f);
  std::vector<float> b2(16);
  for (auto& b : b2) b = rng.uniform(-0.1f, 0.1f);

  auto c2 = core::conv2d(dev, p1.output, w2);
  total_ms += c2.total_seconds * 1e3;
  std::printf("conv2  (%s, 8x8x16):    %.1f GF\n",
              core::algo_name(c2.algo_used), c2.effective_gflops);
  check("conv2", c2.output, tensor::conv2d_reference(p1.output, w2));

  auto r2 = kernels::bias_relu(dev, c2.output, b2);
  total_ms += r2.launch.timing.seconds * 1e3;
  const tensor::Tensor r2_ref = host_bias_relu(c2.output, b2);
  check("bias+relu 2", r2.output, r2_ref);

  auto p2 = kernels::max_pool_2x2(dev, r2.output);
  total_ms += p2.launch.timing.seconds * 1e3;
  const tensor::Tensor p2_ref = host_pool(r2_ref);
  check("pool 2 (4x4x16)", p2.output, p2_ref);

  // --- fully connected via the blocked GEMM kernel ---------------------------
  const i64 feat = 16 * 4 * 4;
  tensor::Matrix wfc(10, feat);
  for (auto& v : wfc.data) v = rng.uniform(-0.1f, 0.1f);
  tensor::Matrix xin(feat, 1);
  for (i64 i = 0; i < feat; ++i) {
    xin.data[static_cast<std::size_t>(i)] =
        p2.output.flat()[static_cast<std::size_t>(i)];
  }
  auto fc = kernels::gemm(dev, wfc, xin, kernels::gemm_fitted(wfc.rows, 1));
  total_ms += fc.launch.timing.seconds * 1e3;
  const tensor::Matrix fc_ref = tensor::gemm_reference(wfc, xin);
  bool fc_ok = true;
  for (std::size_t i = 0; i < 10; ++i) {
    if (std::abs(fc.c.data[i] - fc_ref.data[i]) > 1e-4f) fc_ok = false;
  }
  if (!fc_ok) all_ok = false;
  std::printf("  %-22s %s\n", "fc (10 logits)", fc_ok ? "verified" : "MISMATCH");

  // --- the same network through the layer-graph runner -----------------------
  // One graph, fused epilogues, arena-reused intermediates. The logits must
  // be bit-identical to the hand-sequenced pipeline above.
  serve::Graph g;
  i32 v = g.add_input(1, 28, 28);
  v = g.add_conv(v, w1, "conv1");
  v = g.add_bias_relu(v, b1, "bias1");
  v = g.add_max_pool(v, "pool1");
  v = g.add_conv(v, w2, "conv2");
  v = g.add_bias_relu(v, b2, "bias2");
  v = g.add_max_pool(v, "pool2");
  g.add_dense(v, wfc, "fc");

  serve::GraphRunOptions gopt;  // fuse defaults on
  const serve::GraphRun graph = serve::run_graph(dev, g, x, gopt);
  bool graph_ok = graph.output_valid;
  for (std::size_t i = 0; i < 10; ++i) {
    const float got = graph.output.flat()[i];
    if (std::memcmp(&got, &fc.c.data[i], sizeof(float)) != 0) graph_ok = false;
  }
  if (!graph_ok) all_ok = false;
  std::printf("  %-22s %s\n", "graph runner (fused)",
              graph_ok ? "bit-identical" : "MISMATCH");
  std::printf("graph: %llu launches (%llu fused pairs), %.0f B of GM "
              "round-trips eliminated\n",
              static_cast<unsigned long long>(graph.nodes.size()),
              static_cast<unsigned long long>(graph.fused_pairs),
              graph.fusion_gm_bytes_eliminated);
  std::printf("arena: %d slot(s) for %llu tensor(s), peak %llu B "
              "(vs %llu B keeping every activation)\n",
              graph.arena_slots,
              static_cast<unsigned long long>(graph.arena_tensors),
              static_cast<unsigned long long>(graph.arena_peak_bytes),
              static_cast<unsigned long long>(graph.naive_peak_bytes));

  std::printf("\nlogits:");
  int argmax = 0;
  for (int i = 0; i < 10; ++i) {
    std::printf(" %6.3f", graph.output.flat()[static_cast<std::size_t>(i)]);
    if (graph.output.flat()[static_cast<std::size_t>(i)] >
        graph.output.flat()[static_cast<std::size_t>(argmax)]) {
      argmax = i;
    }
  }
  std::printf("\npredicted class: %d   total model time: %.4f ms "
              "(graph: %.4f ms)\n",
              argmax, total_ms, graph.total_seconds * 1e3);
  return all_ok ? 0 : 1;
}
