#include "src/serve/networks.hpp"

#include <utility>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/common/strutil.hpp"

namespace kconv::serve {

namespace {

std::vector<float> random_bias(Rng& rng, i64 n) {
  std::vector<float> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-0.1f, 0.1f);
  return b;
}

tensor::Matrix random_dense(Rng& rng, i64 rows, i64 cols) {
  tensor::Matrix m(rows, cols);
  for (auto& v : m.data) v = rng.uniform(-0.1f, 0.1f);
  return m;
}

/// conv(F@KxK) -> bias+ReLU appended to `g` after `at`.
i32 conv_block(Graph& g, Rng& rng, i32 at, i64 f, i64 c, i64 k,
               const char* tag) {
  tensor::Tensor w = tensor::Tensor::filters(f, c, k);
  w.fill_random(rng, -0.3f, 0.3f);
  const i32 conv = g.add_conv(at, std::move(w), strf("conv_%s", tag));
  return g.add_bias_relu(conv, random_bias(rng, f), strf("bias_%s", tag));
}

Network make_lenet(u64 seed) {
  Rng rng(seed);
  Network net;
  net.name = "lenet";
  net.input = Shape{1, 28, 28};
  Graph& g = net.graph;
  i32 x = g.add_input(1, 28, 28);
  x = conv_block(g, rng, x, 8, 1, 5, "1");   // special case (C = 1)
  x = g.add_max_pool(x, "pool_1");
  x = conv_block(g, rng, x, 16, 8, 5, "2");  // general case
  x = g.add_max_pool(x, "pool_2");
  g.add_dense(x, random_dense(rng, 10, 16 * 4 * 4), "fc");
  return net;
}

Network make_lenet_wide(u64 seed) {
  Rng rng(seed);
  Network net;
  net.name = "lenet-wide";
  net.input = Shape{1, 36, 36};
  Graph& g = net.graph;
  i32 x = g.add_input(1, 36, 36);
  x = conv_block(g, rng, x, 48, 1, 5, "1");   // 36 -> 32, special case
  x = g.add_max_pool(x, "pool_1");            // 32 -> 16
  x = conv_block(g, rng, x, 96, 48, 5, "2");  // 16 -> 12, general case
  x = g.add_max_pool(x, "pool_2");            // 12 -> 6
  // An extra pool keeps the FC layer small. dense/pool/bias have no replay
  // hooks and always execute, so their host cost is the floor under every
  // warm serving mode (docs/MODEL.md §8). Pool blocks are only as wide as
  // their 16-, 6- and 3-pixel rows (one warp each), which holds the floor
  // to about 12 ms of a warm ~170 ms run_graph on a shared 4-CPU host;
  // the rest is the two conv launches.
  x = g.add_max_pool(x, "pool_3");            // 6 -> 3
  g.add_dense(x, random_dense(rng, 10, 96 * 3 * 3), "fc");
  return net;
}

Network make_vgg_tiny(u64 seed) {
  Rng rng(seed);
  Network net;
  net.name = "vgg-tiny";
  net.input = Shape{1, 32, 32};
  Graph& g = net.graph;
  i32 x = g.add_input(1, 32, 32);
  x = conv_block(g, rng, x, 8, 1, 3, "1");   // 32 -> 30, special case
  x = g.add_max_pool(x, "pool_1");           // 30 -> 15
  x = conv_block(g, rng, x, 16, 8, 3, "2");  // 15 -> 13, general case
  x = g.add_max_pool(x, "pool_2");           // 13 -> 6
  g.add_dense(x, random_dense(rng, 10, 16 * 6 * 6), "fc");
  return net;
}

}  // namespace

std::vector<std::string> network_names() {
  return {"lenet", "lenet-wide", "vgg-tiny"};
}

Network make_network(std::string_view name, u64 seed) {
  if (name == "lenet") return make_lenet(seed);
  if (name == "lenet-wide") return make_lenet_wide(seed);
  if (name == "vgg-tiny") return make_vgg_tiny(seed);
  const std::string n(name);
  KCONV_CHECK(false,
              strf("unknown network '%s' (known: lenet, lenet-wide, "
                   "vgg-tiny)",
                   n.c_str()));
  return {};
}

tensor::Tensor make_network_input(const Network& net, u64 salt) {
  Rng rng(0xC0FFEEull ^ (salt * 0x9E3779B97F4A7C15ull));
  tensor::Tensor t(1, net.input.c, net.input.h, net.input.w);
  for (auto& v : t.flat()) v = rng.uniform(0.0f, 1.0f);
  return t;
}

}  // namespace kconv::serve
