#include "src/kernels/winograd_conv.hpp"

#include <algorithm>

#include "src/kernels/device_tensor.hpp"
#include "src/sim/sim.hpp"
#include "src/tensor/conv_ref.hpp"
#include "src/tensor/winograd_ref.hpp"

namespace kconv::kernels {

namespace {

/// Stage 1: one thread per (channel, tile) computes V = B^T d B and
/// scatters the 16 taps into tap-major planes V[tap][c][tile].
class InputTransformKernel {
 public:
  PlanesView in;                // (C, Hi, Wi)
  sim::BufferView<float> v;     // 16 * C * T
  i64 C = 0, T = 0, tx_count = 0;

  sim::ThreadProgram operator()(sim::ThreadCtx& t) const {
    const i64 tile = static_cast<i64>(t.block_idx.x) * t.block_dim.x +
                     t.thread_idx.x;
    const i64 c = t.block_idx.y;
    const bool live = tile < T;
    const i64 ty = live ? tile / tx_count : 0;
    const i64 tx = live ? tile % tx_count : 0;

    // Load the 4x4 tile; out-of-image taps are exact zeros (their
    // contribution to retained outputs cancels algebraically).
    float d[16];
    for (int i = 0; i < 16; ++i) {
      const i64 y = ty * 2 + i / 4;
      const i64 x = tx * 2 + i % 4;
      const bool ok = live && y < in.h && x < in.w;
      d[i] = t.ld_global_if(ok, in.buf, ok ? in.idx(c, y, x) : 0);
    }

    // B^T d B: 32 adds (the matrices are 0/±1) — charged as ALU work.
    float vv[16];
    tensor::winograd_input_transform(d, vv);
    t.alu(32);

    for (int tap = 0; tap < 16; ++tap) {
      t.st_global_if(live, v, (tap * C + c) * T + tile, vv[tap]);
    }
    co_return;
  }
};

/// Stage 3: one thread per (filter, tile) gathers the 16 taps of M,
/// computes Y = A^T M A and writes the 2x2 output patch.
class OutputTransformKernel {
 public:
  sim::BufferView<float> m;  // 16 * F * T
  PlanesView out;            // (F, Ho, Wo)
  i64 F = 0, T = 0, tx_count = 0;

  sim::ThreadProgram operator()(sim::ThreadCtx& t) const {
    const i64 tile = static_cast<i64>(t.block_idx.x) * t.block_dim.x +
                     t.thread_idx.x;
    const i64 f = t.block_idx.y;
    const bool live = tile < T;
    const i64 ty = live ? tile / tx_count : 0;
    const i64 tx = live ? tile % tx_count : 0;

    float mm[16];
    for (int tap = 0; tap < 16; ++tap) {
      mm[tap] = t.ld_global_if(live, m,
                                        live ? (tap * F + f) * T + tile : 0);
    }
    float y[4];
    tensor::winograd_output_transform(mm, y);
    t.alu(24);

    for (int i = 0; i < 4; ++i) {
      const i64 oy = ty * 2 + i / 2;
      const i64 ox = tx * 2 + i % 2;
      const bool ok = live && oy < out.h && ox < out.w;
      t.st_global_if(ok, out.buf, ok ? out.idx(f, oy, ox) : 0,
                              y[i]);
    }
    co_return;
  }
};

}  // namespace

GemmConfig winograd_gemm_config(i64 f) {
  if (f >= 96) return gemm_cublas_like();
  GemmConfig cfg;
  cfg.bm = std::max<i64>(16, round_up(f, 16));
  cfg.bn = 64;
  cfg.bk = 8;
  cfg.tm = 4;
  cfg.tn = 4;
  return cfg;
}

KernelRun winograd_conv(sim::Device& dev, const tensor::Tensor& input,
                        const tensor::Tensor& filters,
                        const GemmConfig& gemm_cfg_in,
                        const sim::LaunchOptions& opt) {
  const GemmConfig gemm_cfg =
      gemm_cfg_in.bm == 0 ? winograd_gemm_config(filters.n()) : gemm_cfg_in;
  KCONV_CHECK(input.n() == 1, "winograd conv operates on a single image");
  KCONV_CHECK(filters.h() == 3 && filters.w() == 3,
              "Winograd F(2x2,3x3) requires 3x3 filters");
  KCONV_CHECK(filters.c() == input.c(), "channel mismatch");
  const i64 C = input.c(), F = filters.n();
  const i64 Ho = tensor::conv_out_extent(input.h(), 3, 0);
  const i64 Wo = tensor::conv_out_extent(input.w(), 3, 0);
  const i64 ty_count = ceil_div(Ho, 2), tx_count = ceil_div(Wo, 2);
  const i64 T = ty_count * tx_count;

  KernelRun run;
  run.workspace_bytes =
      static_cast<u64>(16 * C * T + 16 * F * T) * sizeof(float);

  // --- Stage 1: input transform ------------------------------------------
  DevicePlanes d_in(dev, C, input.h(), input.w());
  d_in.upload(input);
  auto d_v = dev.alloc<float>(16 * C * T);

  InputTransformKernel itk;
  itk.in = d_in.view();
  itk.v = d_v.view();
  itk.C = C;
  itk.T = T;
  itk.tx_count = tx_count;

  sim::LaunchConfig ilc;
  ilc.block = sim::Dim3{128, 1, 1};
  ilc.grid = sim::Dim3{static_cast<u32>(ceil_div(T, 128)),
                       static_cast<u32>(C), 1};
  ilc.regs_per_thread = 40;  // d + v tiles live in registers
  run.add("input_tf", sim::launch(dev, itk, ilc, opt));
  const bool functional = run.stages.back().launch.complete();

  // --- Stage 2: 16 per-tap GEMMs  M[tap] = U[tap] x V[tap] -----------------
  // Filter transform on the host (tiny: F*C*16 values, uploaded once on a
  // real device; the GEMM launches charge its GM reads).
  std::vector<float> u_host(static_cast<std::size_t>(16 * F * C));
  for (i64 f = 0; f < F; ++f) {
    for (i64 c = 0; c < C; ++c) {
      float g[9];
      for (int i = 0; i < 9; ++i) g[i] = filters.at(f, c, i / 3, i % 3);
      float u[16];
      tensor::winograd_filter_transform(g, u);
      for (int tap = 0; tap < 16; ++tap) {
        u_host[static_cast<std::size_t>((tap * F + f) * C + c)] = u[tap];
      }
    }
  }

  std::vector<float> v_host;
  if (functional) v_host = d_v.download();

  // M[tap] lands tap-major in m_host (zeros where a GEMM was sampled).
  std::vector<float> m_host(static_cast<std::size_t>(16 * F * T));
  for (int tap = 0; tap < 16; ++tap) {
    tensor::Matrix u_m(F, C);
    std::copy_n(u_host.begin() + tap * F * C, F * C, u_m.data.begin());
    tensor::Matrix v_m(C, T);
    if (functional) {
      std::copy_n(v_host.begin() + tap * C * T, C * T, v_m.data.begin());
    }
    GemmRun g = gemm(dev, u_m, v_m, gemm_cfg, opt);
    run.add("gemm", std::move(g.launch));
    if (g.output_valid) {
      std::ranges::copy(g.c.data, m_host.begin() + tap * F * T);
    }
  }

  // --- Stage 3: output transform -------------------------------------------
  auto d_m = dev.alloc<float>(16 * F * T);
  if (functional) d_m.upload(m_host);
  DevicePlanes d_out(dev, F, Ho, Wo);

  OutputTransformKernel otk;
  otk.m = d_m.view();
  otk.out = d_out.view();
  otk.F = F;
  otk.T = T;
  otk.tx_count = tx_count;

  sim::LaunchConfig olc;
  olc.block = sim::Dim3{128, 1, 1};
  olc.grid = sim::Dim3{static_cast<u32>(ceil_div(T, 128)),
                       static_cast<u32>(F), 1};
  olc.regs_per_thread = 40;
  run.add("output_tf", sim::launch(dev, otk, olc, opt));

  if (run.seal()) {
    run.output = d_out.download();
    run.output_valid = true;
  }
  return run;
}

}  // namespace kconv::kernels
