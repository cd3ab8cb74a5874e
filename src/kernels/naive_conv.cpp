#include "src/kernels/naive_conv.hpp"

#include "src/kernels/device_tensor.hpp"
#include "src/sim/sim.hpp"
#include "src/tensor/conv_ref.hpp"

namespace kconv::kernels {

namespace {

class NaiveKernel {
 public:
  PlanesView in;
  PlanesView out;
  sim::BufferView<float> filt;  // F*C*K*K
  i64 K = 0, C = 0, F = 0, Ho = 0, Wo = 0;
  i64 tiles_x = 0;

  sim::ThreadProgram operator()(sim::ThreadCtx& t) const {
    // grid.y enumerates (spatial tile row, filter) pairs.
    const i64 f = t.block_idx.y / ((Ho + t.block_dim.y - 1) / t.block_dim.y);
    const i64 ty_blk = t.block_idx.y % ((Ho + t.block_dim.y - 1) / t.block_dim.y);
    const i64 y = ty_blk * t.block_dim.y + t.thread_idx.y;
    const i64 x = (t.block_idx.x % tiles_x) * t.block_dim.x + t.thread_idx.x;
    if (y >= Ho || x >= Wo) co_return;

    float acc = 0.0f;
    for (i64 c = 0; c < C; ++c) {
      for (i64 dy = 0; dy < K; ++dy) {
        for (i64 dx = 0; dx < K; ++dx) {
          const float px =
              t.ld_global(in.buf, in.idx(c, y + dy, x + dx));
          const float wv =
              t.ld_global(filt, ((f * C + c) * K + dy) * K + dx);
          acc = t.fma(px, wv, acc);
        }
      }
    }
    t.st_global(out.buf, out.idx(f, y, x), acc);
  }
};

}  // namespace

KernelRun naive_conv(sim::Device& dev, const tensor::Tensor& input,
                     const tensor::Tensor& filters,
                     const NaiveConvConfig& cfg,
                     const sim::LaunchOptions& opt) {
  KCONV_CHECK(input.n() == 1, "naive conv operates on a single image");
  KCONV_CHECK(filters.c() == input.c(), "channel mismatch");
  KCONV_CHECK(filters.h() == filters.w(), "non-square filters unsupported");
  KCONV_CHECK(cfg.tile_w >= 1 && cfg.tile_h >= 1, "empty tile");
  const i64 K = filters.h();
  const i64 Ho = tensor::conv_out_extent(input.h(), K, 0);
  const i64 Wo = tensor::conv_out_extent(input.w(), K, 0);

  NaiveKernel k;
  k.K = K;
  k.C = input.c();
  k.F = filters.n();
  k.Ho = Ho;
  k.Wo = Wo;
  k.tiles_x = ceil_div(Wo, cfg.tile_w);

  DevicePlanes d_in(dev, k.C, input.h(), input.w());
  d_in.upload(input);
  DevicePlanes d_out(dev, k.F, Ho, Wo);
  const auto flat = flatten_filters(filters);
  auto d_filt = dev.alloc<float>(std::span<const float>(flat));
  k.in = d_in.view();
  k.out = d_out.view();
  k.filt = d_filt.view();

  sim::LaunchConfig lc;
  lc.grid = sim::Dim3{static_cast<u32>(k.tiles_x),
                      static_cast<u32>(ceil_div(Ho, cfg.tile_h) * k.F), 1};
  lc.block = sim::Dim3{static_cast<u32>(cfg.tile_w),
                       static_cast<u32>(cfg.tile_h), 1};
  lc.regs_per_thread = 24;

  KernelRun run;
  run.add("naive_conv", sim::launch(dev, k, lc, opt));
  if (run.seal()) {
    run.output = d_out.download();
    run.output_valid = true;
  }
  return run;
}

}  // namespace kconv::kernels
