#include "src/kernels/im2col_conv.hpp"

#include <algorithm>

#include "src/kernels/device_tensor.hpp"
#include "src/sim/sim.hpp"
#include "src/tensor/conv_ref.hpp"

namespace kconv::kernels {

namespace {

/// Writes the patch matrix: row kb = (c*K+dy)*K+dx, column p = y*Wo+x.
class Im2colKernel {
 public:
  PlanesView in;
  sim::BufferView<float> col;  // Kdim x Np, row-major
  i64 K = 0, C = 0, Ho = 0, Wo = 0;

  sim::ThreadProgram operator()(sim::ThreadCtx& t) const {
    const i64 KK = K * K;
    const i64 Np = Ho * Wo;
    const i64 kb = t.block_idx.y;  // one patch-row per block row
    const i64 p = static_cast<i64>(t.block_idx.x) * t.block_dim.x +
                  t.thread_idx.x;
    if (p >= Np) co_return;
    const i64 c = kb / KK, dy = (kb % KK) / K, dx = kb % K;
    const i64 y = p / Wo, x = p % Wo;
    t.alu(4);
    const float v = t.ld_global(in.buf, in.idx(c, y + dy, x + dx));
    t.st_global(col, kb * Np + p, v);
  }
};

/// Writes the transposed patch matrix: row p = y*Wo+x, column
/// kb = (c*K+dy)*K+dx.
class Im2colTKernel {
 public:
  PlanesView in;
  sim::BufferView<float> cols_t;  // Np x Kdim, row-major
  i64 K = 0, C = 0, Ho = 0, Wo = 0;

  sim::ThreadProgram operator()(sim::ThreadCtx& t) const {
    const i64 KK = K * K;
    const i64 Kdim = C * KK;
    const i64 Np = Ho * Wo;
    const i64 kb = t.block_idx.y;
    const i64 p = static_cast<i64>(t.block_idx.x) * t.block_dim.x +
                  t.thread_idx.x;
    const bool live = p < Np;
    const i64 c = kb / KK, dy = (kb % KK) / K, dx = kb % K;
    const i64 y = live ? p / Wo : 0, x = live ? p % Wo : 0;
    t.alu(4);
    const float v = t.ld_global_if(
        live, in.buf, live ? in.idx(c, y + dy, x + dx) : 0);
    t.st_global_if(live, cols_t, live ? p * Kdim + kb : 0, v);
    co_return;
  }
};

}  // namespace

Im2colTRun im2col_transposed(sim::Device& dev, const tensor::Tensor& input,
                             i64 k, const sim::LaunchOptions& opt) {
  KCONV_CHECK(input.n() == 1, "im2col operates on a single image");
  const i64 C = input.c();
  const i64 Ho = tensor::conv_out_extent(input.h(), k, 0);
  const i64 Wo = tensor::conv_out_extent(input.w(), k, 0);
  const i64 Kdim = C * k * k;
  const i64 Np = Ho * Wo;

  DevicePlanes d_in(dev, C, input.h(), input.w());
  d_in.upload(input);
  auto d_out = dev.alloc<float>(Np * Kdim);

  Im2colTKernel kern;
  kern.in = d_in.view();
  kern.cols_t = d_out.view();
  kern.K = k;
  kern.C = C;
  kern.Ho = Ho;
  kern.Wo = Wo;

  sim::LaunchConfig lc;
  lc.block = sim::Dim3{256, 1, 1};
  lc.grid = sim::Dim3{static_cast<u32>(ceil_div(Np, 256)),
                      static_cast<u32>(Kdim), 1};
  lc.regs_per_thread = 16;

  Im2colTRun run;
  run.launch = sim::launch(dev, kern, lc, opt);
  if (!run.launch.sampled) {
    run.cols_t = tensor::Matrix(Np, Kdim);
    run.cols_t.data = d_out.download();
    run.output_valid = true;
  }
  return run;
}

KernelRun im2col_gemm_conv(sim::Device& dev, const tensor::Tensor& input,
                           const tensor::Tensor& filters,
                           const GemmConfig& gemm_cfg,
                           const sim::LaunchOptions& opt) {
  KCONV_CHECK(input.n() == 1, "im2col conv operates on a single image");
  KCONV_CHECK(filters.c() == input.c(), "channel mismatch");
  KCONV_CHECK(filters.h() == filters.w(), "non-square filters unsupported");
  const i64 K = filters.h();
  const i64 C = input.c();
  const i64 F = filters.n();
  const i64 Ho = tensor::conv_out_extent(input.h(), K, 0);
  const i64 Wo = tensor::conv_out_extent(input.w(), K, 0);
  const i64 Kdim = C * K * K;
  const i64 Np = Ho * Wo;

  DevicePlanes d_in(dev, C, input.h(), input.w());
  d_in.upload(input);
  auto d_col = dev.alloc<float>(Kdim * Np);

  Im2colKernel ik;
  ik.in = d_in.view();
  ik.col = d_col.view();
  ik.K = K;
  ik.C = C;
  ik.Ho = Ho;
  ik.Wo = Wo;

  sim::LaunchConfig ilc;
  ilc.block = sim::Dim3{256, 1, 1};
  ilc.grid = sim::Dim3{static_cast<u32>(ceil_div(Np, 256)),
                       static_cast<u32>(Kdim), 1};
  ilc.regs_per_thread = 16;

  KernelRun run;
  run.workspace_bytes = static_cast<u64>(Kdim * Np) * sizeof(float);
  run.add("im2col", sim::launch(dev, ik, ilc, opt));

  // GEMM: (F x Kdim) * (Kdim x Np). The filter matrix rides along as a
  // host matrix; the patch matrix already lives on the device, so we hand
  // the gemm runner a host copy of it. A sampled im2col leaves it partly
  // unwritten: the contents don't matter for the timing model, only the
  // operand's shape does.
  tensor::Matrix fm = tensor::filters_as_matrix(filters);
  tensor::Matrix col_host(Kdim, Np);
  if (run.stages.back().launch.complete()) col_host.data = d_col.download();

  GemmRun g = gemm(dev, fm, col_host, gemm_cfg, opt);
  run.add("gemm", std::move(g.launch));
  if (run.seal()) {
    run.output = tensor::Tensor(1, F, Ho, Wo);
    tensor::col2im_output(g.c, 0, run.output);
    run.output_valid = true;
  }
  return run;
}

}  // namespace kconv::kernels
