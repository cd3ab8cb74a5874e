#include "src/kernels/layer_ops.hpp"

#include <algorithm>

#include "src/kernels/device_tensor.hpp"
#include "src/sim/sim.hpp"

namespace kconv::kernels {

namespace {

class MaxPoolKernel {
 public:
  PlanesView in;   // (C, H, W)
  PlanesView out;  // (C, H/2, W/2)

  sim::ThreadProgram operator()(sim::ThreadCtx& t) const {
    const i64 x = static_cast<i64>(t.block_idx.x) * t.block_dim.x +
                  t.thread_idx.x;
    const i64 y = t.block_idx.y % out.h;
    const i64 c = t.block_idx.y / out.h;
    const bool live = x < out.w;
    float best = -3.4e38f;
    for (int i = 0; i < 4; ++i) {
      const i64 yy = y * 2 + i / 2, xx = x * 2 + i % 2;
      const float v = t.ld_global_if(
          live, in.buf, live ? in.idx(c, yy, xx) : 0);
      best = std::max(best, v);
      t.alu(1);
    }
    t.st_global_if(live, out.buf, live ? out.idx(c, y, x) : 0,
                            best);
    co_return;
  }
};

class BiasReluKernel {
 public:
  PlanesView in;
  PlanesView out;
  sim::BufferView<float> bias;  // C

  sim::ThreadProgram operator()(sim::ThreadCtx& t) const {
    const i64 x = static_cast<i64>(t.block_idx.x) * t.block_dim.x +
                  t.thread_idx.x;
    const i64 y = t.block_idx.y % in.h;
    const i64 c = t.block_idx.y / in.h;
    const bool live = x < in.w;
    const float b = t.ld_global(bias, c);  // warp-uniform: 1 sector
    const float v =
        t.ld_global_if(live, in.buf, live ? in.idx(c, y, x) : 0);
    t.alu(2);
    t.st_global_if(live, out.buf, live ? out.idx(c, y, x) : 0,
                            std::max(0.0f, v + b));
    co_return;
  }
};

/// Widest block either op launches: rows wider than this take
/// ceil(width / kRowBlockLanes) blocks.
constexpr i64 kRowBlockLanes = 128;

/// Lanes per block over rows `row_width` pixels wide: the row rounded up to
/// whole warps, capped at kRowBlockLanes. Only warps with no live lane are
/// dropped, so every launched warp issues exactly what it would in a
/// full-width block, and the grid — ceil(row_width / kRowBlockLanes) blocks
/// per row — is unchanged.
sim::Dim3 row_block(const sim::Arch& arch, i64 row_width) {
  return sim::Dim3{static_cast<u32>(std::min(
                       kRowBlockLanes, round_up(row_width, arch.warp_size))),
                   1, 1};
}

/// Reinterprets an (N, C, H, W) batch as the layout-identical
/// (1, N*C, H, W) image (NCHW planes are contiguous).
tensor::Tensor fold_batch(const tensor::Tensor& t) {
  tensor::Tensor out(1, t.n() * t.c(), t.h(), t.w());
  std::copy(t.flat().begin(), t.flat().end(), out.flat().begin());
  return out;
}

/// Inverse of fold_batch for a kernel's (1, N*C, Ho, Wo) output.
tensor::Tensor unfold_batch(const tensor::Tensor& t, i64 n, i64 c) {
  tensor::Tensor out(n, c, t.h(), t.w());
  std::copy(t.flat().begin(), t.flat().end(), out.flat().begin());
  return out;
}

}  // namespace

KernelRun max_pool_2x2(sim::Device& dev, const tensor::Tensor& input,
                       const sim::LaunchOptions& opt) {
  KCONV_CHECK(input.h() >= 2 && input.w() >= 2, "input too small to pool");
  const i64 NB = input.n(), C = NB * input.c();
  const i64 Ho = input.h() / 2, Wo = input.w() / 2;

  const tensor::Tensor* in = &input;
  tensor::Tensor folded;
  if (NB > 1) {
    folded = fold_batch(input);
    in = &folded;
  }

  DevicePlanes d_in(dev, C, input.h(), input.w());
  d_in.upload(*in);
  DevicePlanes d_out(dev, C, Ho, Wo);

  MaxPoolKernel k;
  k.in = d_in.view();
  k.out = d_out.view();

  sim::LaunchConfig lc;
  lc.block = row_block(dev.arch(), Wo);
  lc.grid = sim::Dim3{static_cast<u32>(ceil_div(Wo, kRowBlockLanes)),
                      static_cast<u32>(C * Ho), 1};
  lc.regs_per_thread = 16;

  KernelRun run;
  run.add("max_pool_2x2", sim::launch(dev, k, lc, opt));
  if (run.seal()) {
    run.output = d_out.download();
    if (NB > 1) run.output = unfold_batch(run.output, NB, input.c());
    run.output_valid = true;
  }
  return run;
}

KernelRun bias_relu(sim::Device& dev, const tensor::Tensor& input,
                    std::span<const float> bias,
                    const sim::LaunchOptions& opt) {
  KCONV_CHECK(static_cast<i64>(bias.size()) == input.c(),
              strf("bias has %zu entries for %lld channels", bias.size(),
                   static_cast<long long>(input.c())));
  const i64 NB = input.n(), C = NB * input.c();
  const i64 H = input.h(), W = input.w();

  const tensor::Tensor* in = &input;
  tensor::Tensor folded;
  std::vector<float> tiled_bias;
  std::span<const float> plane_bias = bias;
  if (NB > 1) {
    folded = fold_batch(input);
    in = &folded;
    // One bias value per plane; the batch repeats the C-channel vector.
    tiled_bias.reserve(static_cast<std::size_t>(C));
    for (i64 b = 0; b < NB; ++b)
      tiled_bias.insert(tiled_bias.end(), bias.begin(), bias.end());
    plane_bias = tiled_bias;
  }

  DevicePlanes d_in(dev, C, H, W);
  d_in.upload(*in);
  DevicePlanes d_out(dev, C, H, W);
  auto d_bias = dev.alloc<float>(plane_bias);

  BiasReluKernel k;
  k.in = d_in.view();
  k.out = d_out.view();
  k.bias = d_bias.view();

  sim::LaunchConfig lc;
  lc.block = row_block(dev.arch(), W);
  lc.grid = sim::Dim3{static_cast<u32>(ceil_div(W, kRowBlockLanes)),
                      static_cast<u32>(C * H), 1};
  lc.regs_per_thread = 12;

  KernelRun run;
  run.add("bias_relu", sim::launch(dev, k, lc, opt));
  if (run.seal()) {
    run.output = d_out.download();
    if (NB > 1) run.output = unfold_batch(run.output, NB, input.c());
    run.output_valid = true;
  }
  return run;
}

}  // namespace kconv::kernels
