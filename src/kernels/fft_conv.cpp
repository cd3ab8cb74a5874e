#include "src/kernels/fft_conv.hpp"

#include <algorithm>
#include <cmath>

#include "src/kernels/device_tensor.hpp"
#include "src/sim/sim.hpp"
#include "src/tensor/conv_ref.hpp"
#include "src/tensor/fft_ref.hpp"

namespace kconv::kernels {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Complex planes live in a flat float buffer: plane b, row r, column x at
/// float index ((b*rows + r)*cols + x) * 2 (interleaved re, im). Every
/// complex access is an 8-byte vec2f — matched to Kepler's bank width.
i64 cidx(i64 b, i64 rows, i64 cols, i64 r, i64 x) {
  return ((b * rows + r) * cols + x) * 2;
}

/// Bit reversal of `i` within `bits` bits.
u32 bit_reverse(u32 i, u32 bits) {
  u32 r = 0;
  for (u32 b = 0; b < bits; ++b) {
    r = (r << 1) | ((i >> b) & 1);
  }
  return r;
}

/// Stage 1a: zero-pad image channels into complex planes.
class PadImageKernel {
 public:
  PlanesView in;                 // (C, Hi, Wi)
  sim::BufferView<float> planes; // C * P * Q complex
  i64 P = 0, Q = 0;

  sim::ThreadProgram operator()(sim::ThreadCtx& t) const {
    const i64 x = static_cast<i64>(t.block_idx.x) * t.block_dim.x +
                  t.thread_idx.x;
    const i64 r = t.block_idx.y % P;
    const i64 c = t.block_idx.y / P;
    const bool live = x < Q;
    const bool inside = live && r < in.h && x < in.w;
    const float v =
        t.ld_global_if(inside, in.buf, inside ? in.idx(c, r, x) : 0);
    vec2f z;
    z[0] = v;
    z[1] = 0.0f;
    t.st_global_if(live, planes, live ? cidx(c, P, Q, r, x) : 0, z);
    co_return;
  }
};

/// Stage 1b: zero-pad FLIPPED filters into complex planes (full linear
/// convolution with the flipped kernel == cross-correlation).
class PadFilterKernel {
 public:
  sim::BufferView<float> filt;    // F*C*K*K filter-major
  sim::BufferView<float> planes;  // (F*C) * P * Q complex
  i64 K = 0, C = 0, P = 0, Q = 0;

  sim::ThreadProgram operator()(sim::ThreadCtx& t) const {
    const i64 x = static_cast<i64>(t.block_idx.x) * t.block_dim.x +
                  t.thread_idx.x;
    const i64 r = t.block_idx.y % P;
    const i64 fc = t.block_idx.y / P;
    const bool live = x < Q;
    const bool inside = live && r < K && x < K;
    t.alu(2);
    const float v = t.ld_global_if(
        inside, filt,
        inside ? fc * K * K + (K - 1 - r) * K + (K - 1 - x) : 0);
    vec2f z;
    z[0] = v;
    z[1] = 0.0f;
    t.st_global_if(live, planes, live ? cidx(fc, P, Q, r, x) : 0,
                            z);
    co_return;
  }
};

/// Batched in-place radix-2 FFT along rows of length L (a power of two).
/// One thread block per row: bit-reversed load into shared memory, log2(L)
/// butterfly stages with constant-memory twiddles, coalesced store back.
class FftRowsKernel {
 public:
  sim::BufferView<float> planes;  // B * L complex, row-major
  sim::ConstView<float> twiddles; // interleaved re,im; tw[len/2 + j]
  i64 L = 0;
  u32 log2_l = 0;
  bool inverse = false;
  u32 sh_off = 0;

  sim::ThreadProgram operator()(sim::ThreadCtx& t) const {
    const i64 row = t.block_idx.x;
    const i64 tid = t.thread_idx.x;
    const i64 threads = t.block_dim.x;
    auto sh = t.shared<float>(sh_off, 2 * L);

    // Load with bit-reversal scatter into SM.
    const i64 load_iters = ceil_div(L, threads);
    for (i64 it = 0; it < load_iters; ++it) {
      const i64 i = tid + it * threads;
      const bool ok = i < L;
      vec2f z = t.template ld_global_if<vec2f>(
          ok, planes, ok ? (row * L + i) * 2 : 0);
      const i64 rev =
          ok ? static_cast<i64>(
                   bit_reverse(static_cast<u32>(i), log2_l))
             : 0;
      t.alu(2);
      t.st_shared_if(ok, sh, rev * 2, z);
    }
    co_await t.sync();

    // Butterfly stages.
    const i64 bf_iters = std::max<i64>(1, (L / 2) / threads);
    for (i64 len = 2; len <= L; len <<= 1) {
      for (i64 it = 0; it < bf_iters; ++it) {
        const i64 b = tid + it * threads;
        const bool ok = b < L / 2;
        const i64 j = ok ? b % (len / 2) : 0;
        const i64 base = ok ? (b / (len / 2)) * len : 0;
        t.alu(4);

        vec2f w = t.template ld_const<vec2f>(twiddles,
                                                      (len / 2 + j) * 2);
        if (inverse) w[1] = -w[1];
        vec2f u = t.template ld_shared<vec2f>(
            sh, ok ? (base + j) * 2 : 0);
        vec2f v = t.template ld_shared<vec2f>(
            sh, ok ? (base + j + len / 2) * 2 : 0);
        // vw = v * w (complex), then u +/- vw.
        float vw_re = t.fma(v[0], w[0], -v[1] * w[1]);
        float vw_im = t.fma(v[0], w[1], v[1] * w[0]);
        t.alu(2);
        vec2f hi, lo;
        hi[0] = u[0] + vw_re;
        hi[1] = u[1] + vw_im;
        lo[0] = u[0] - vw_re;
        lo[1] = u[1] - vw_im;
        t.alu(4);
        t.st_shared_if(ok, sh, ok ? (base + j) * 2 : 0, hi);
        t.st_shared_if(ok, sh,
                                ok ? (base + j + len / 2) * 2 : 0, lo);
      }
      co_await t.sync();
    }

    // Coalesced store back.
    for (i64 it = 0; it < load_iters; ++it) {
      const i64 i = tid + it * threads;
      const bool ok = i < L;
      vec2f z = t.template ld_shared<vec2f>(sh, ok ? i * 2 : 0);
      t.st_global_if(ok, planes, ok ? (row * L + i) * 2 : 0, z);
    }
  }
};

/// Tiled complex transpose: (B, rows, cols) -> (B, cols, rows). 16x16
/// complex tiles staged in SM with one complex of row padding — the same
/// bank-conflict-avoidance trick as the general kernel's filter store.
class TransposeKernel {
 public:
  sim::BufferView<float> src;  // B * rows * cols complex
  sim::BufferView<float> dst;  // B * cols * rows complex
  i64 rows = 0, cols = 0;
  u32 sh_off = 0;

  static constexpr i64 kTile = 16;

  sim::ThreadProgram operator()(sim::ThreadCtx& t) const {
    const i64 tiles_x = ceil_div(cols, kTile);
    const i64 tile_x = t.block_idx.x % tiles_x;
    const i64 tile_y = t.block_idx.x / tiles_x;
    const i64 b = t.block_idx.y;
    const i64 tx = t.thread_idx.x;  // 16
    const i64 ty = t.thread_idx.y;  // 16
    auto sh = t.shared<float>(sh_off, kTile * (kTile + 1) * 2);

    const i64 sr = tile_y * kTile + ty;
    const i64 sc = tile_x * kTile + tx;
    const bool in_ok = sr < rows && sc < cols;
    vec2f z = t.template ld_global_if<vec2f>(
        in_ok, src, in_ok ? cidx(b, rows, cols, sr, sc) : 0);
    t.st_shared_if(in_ok, sh, (ty * (kTile + 1) + tx) * 2, z);
    co_await t.sync();

    const i64 dr = tile_x * kTile + ty;  // transposed coordinates
    const i64 dc = tile_y * kTile + tx;
    const bool out_ok = dr < cols && dc < rows;
    vec2f w = t.template ld_shared<vec2f>(
        sh, out_ok ? (tx * (kTile + 1) + ty) * 2 : 0);
    t.st_global_if(out_ok, dst,
                            out_ok ? cidx(b, cols, rows, dr, dc) : 0, w);
  }
};

/// Pointwise complex multiply-accumulate over channels:
/// Y[f][p] = sum_c X[c][p] * G[f*C + c][p].
class MacKernel {
 public:
  sim::BufferView<float> x;  // C planes
  sim::BufferView<float> g;  // F*C planes
  sim::BufferView<float> y;  // F planes
  i64 C = 0, plane = 0;      // plane = P*Q complex elements

  sim::ThreadProgram operator()(sim::ThreadCtx& t) const {
    const i64 p = static_cast<i64>(t.block_idx.x) * t.block_dim.x +
                  t.thread_idx.x;
    const i64 f = t.block_idx.y;
    const bool live = p < plane;
    float acc_re = 0.0f, acc_im = 0.0f;
    for (i64 c = 0; c < C; ++c) {
      vec2f xv = t.template ld_global_if<vec2f>(
          live, x, live ? (c * plane + p) * 2 : 0);
      vec2f gv = t.template ld_global_if<vec2f>(
          live, g, live ? ((f * C + c) * plane + p) * 2 : 0);
      acc_re = t.fma(xv[0], gv[0], acc_re);
      acc_re = t.fma(-xv[1], gv[1], acc_re);
      acc_im = t.fma(xv[0], gv[1], acc_im);
      acc_im = t.fma(xv[1], gv[0], acc_im);
    }
    vec2f out;
    out[0] = acc_re;
    out[1] = acc_im;
    t.st_global_if(live, y, live ? (f * plane + p) * 2 : 0, out);
    co_return;
  }
};

/// Extract the valid region (offset K-1) and apply the 1/(P*Q) scale.
class ExtractKernel {
 public:
  sim::BufferView<float> acc;  // F planes of P*Q complex
  PlanesView out;              // (F, Ho, Wo)
  i64 K = 0, P = 0, Q = 0;
  float scale = 1.0f;

  sim::ThreadProgram operator()(sim::ThreadCtx& t) const {
    const i64 x = static_cast<i64>(t.block_idx.x) * t.block_dim.x +
                  t.thread_idx.x;
    const i64 yy = t.block_idx.y % out.h;
    const i64 f = t.block_idx.y / out.h;
    const bool live = x < out.w;
    vec2f z = t.template ld_global_if<vec2f>(
        live, acc, live ? cidx(f, P, Q, yy + K - 1, x + K - 1) : 0);
    t.alu(1);
    t.st_global_if(live, out.buf, live ? out.idx(f, yy, x) : 0,
                            z[0] * scale);
    co_return;
  }
};

/// Host-side twiddle table for length L: tw[len/2 + j] = exp(-2*pi*i*j/len).
std::vector<float> make_twiddles(i64 l) {
  std::vector<float> tw(static_cast<std::size_t>(2 * l), 0.0f);
  for (i64 len = 2; len <= l; len <<= 1) {
    for (i64 j = 0; j < len / 2; ++j) {
      const double ang = -2.0 * kPi * static_cast<double>(j) /
                         static_cast<double>(len);
      tw[static_cast<std::size_t>((len / 2 + j) * 2)] =
          static_cast<float>(std::cos(ang));
      tw[static_cast<std::size_t>((len / 2 + j) * 2 + 1)] =
          static_cast<float>(std::sin(ang));
    }
  }
  return tw;
}

u32 ilog2(i64 v) {
  u32 b = 0;
  while ((i64{1} << b) < v) ++b;
  return b;
}

/// Launch helper: full 1D-FFT pass over `batch_rows` rows of length L.
sim::LaunchResult run_fft_rows(sim::Device& dev,
                               sim::BufferView<float> planes, i64 batch_rows,
                               i64 l, bool inverse,
                               const sim::ConstView<float>& tw,
                               const sim::LaunchOptions& opt) {
  FftRowsKernel k;
  k.planes = planes;
  k.twiddles = tw;
  k.L = l;
  k.log2_l = ilog2(l);
  k.inverse = inverse;
  sim::SharedLayout smem;
  k.sh_off = smem.alloc<float>(2 * l);
  sim::LaunchConfig lc;
  lc.block = sim::Dim3{
      static_cast<u32>(std::clamp<i64>(l / 2, 32, 256)), 1, 1};
  lc.grid = sim::Dim3{static_cast<u32>(batch_rows), 1, 1};
  lc.shared_bytes = smem.size();
  lc.regs_per_thread = 24;
  return sim::launch(dev, k, lc, opt);
}

/// Launch helper: transpose `batch` planes of (rows x cols).
sim::LaunchResult run_transpose(sim::Device& dev,
                                sim::BufferView<float> src,
                                sim::BufferView<float> dst, i64 batch,
                                i64 rows, i64 cols,
                                const sim::LaunchOptions& opt) {
  TransposeKernel k;
  k.src = src;
  k.dst = dst;
  k.rows = rows;
  k.cols = cols;
  sim::SharedLayout smem;
  k.sh_off = smem.alloc<float>(TransposeKernel::kTile *
                               (TransposeKernel::kTile + 1) * 2);
  sim::LaunchConfig lc;
  lc.block = sim::Dim3{16, 16, 1};
  lc.grid = sim::Dim3{static_cast<u32>(ceil_div(cols, TransposeKernel::kTile) *
                                       ceil_div(rows, TransposeKernel::kTile)),
                      static_cast<u32>(batch), 1};
  lc.shared_bytes = smem.size();
  lc.regs_per_thread = 16;
  return sim::launch(dev, k, lc, opt);
}

/// Forward (or inverse) 2D FFT over `batch` planes of (P x Q), leaving the
/// data TRANSPOSED as (Q x P) — pointwise stages don't care, and it saves
/// two transposes per direction. Adds its three launches to `stage`.
void run_fft2d_to_transposed(sim::Device& dev, KernelRun& run,
                             const char* stage, sim::BufferView<float> planes,
                             sim::BufferView<float> scratch, i64 batch, i64 p,
                             i64 q, bool inverse,
                             const sim::ConstView<float>& tw_q,
                             const sim::ConstView<float>& tw_p,
                             const sim::LaunchOptions& opt) {
  // Rows of length Q, batch * P of them.
  run.add(stage, run_fft_rows(dev, planes, batch * p, q, inverse, tw_q, opt));
  // Transpose each plane (P x Q) -> (Q x P) into scratch, then copy-free:
  // continue operating on scratch.
  run.add(stage, run_transpose(dev, planes, scratch, batch, p, q, opt));
  // Rows of length P on the transposed planes.
  run.add(stage,
          run_fft_rows(dev, scratch, batch * q, p, inverse, tw_p, opt));
}

}  // namespace

KernelRun fft_conv(sim::Device& dev, const tensor::Tensor& input,
                   const tensor::Tensor& filters,
                   const sim::LaunchOptions& opt) {
  KCONV_CHECK(input.n() == 1, "fft conv operates on a single image");
  KCONV_CHECK(filters.c() == input.c(), "channel mismatch");
  KCONV_CHECK(filters.h() == filters.w(), "non-square filters unsupported");
  const i64 C = input.c(), F = filters.n(), K = filters.h();
  const i64 Ho = tensor::conv_out_extent(input.h(), K, 0);
  const i64 Wo = tensor::conv_out_extent(input.w(), K, 0);
  const i64 P = tensor::next_pow2(std::max(input.h(), K));
  const i64 Q = tensor::next_pow2(std::max(input.w(), K));
  const i64 plane = P * Q;

  KernelRun run;
  run.workspace_bytes =
      static_cast<u64>(2 * (C + F * C + F) * plane) * sizeof(float) * 2;

  // Twiddle tables in constant memory (one per FFT length).
  const auto twq_host = make_twiddles(Q);
  const auto twp_host = make_twiddles(P);
  auto twq_buf = dev.alloc_const<float>(twq_host);
  auto twp_buf = dev.alloc_const<float>(twp_host);
  const sim::ConstView<float> tw_q(twq_buf.get(), 0,
                                   static_cast<i64>(twq_host.size()));
  const sim::ConstView<float> tw_p(twp_buf.get(), 0,
                                   static_cast<i64>(twp_host.size()));

  // Workspaces (double-buffered for the transposes).
  auto x_a = dev.alloc<float>(2 * C * plane);
  auto x_b = dev.alloc<float>(2 * C * plane);
  auto g_a = dev.alloc<float>(2 * F * C * plane);
  auto g_b = dev.alloc<float>(2 * F * C * plane);
  auto y_a = dev.alloc<float>(2 * F * plane);
  auto y_b = dev.alloc<float>(2 * F * plane);

  // --- Stage 1: padding -----------------------------------------------------
  DevicePlanes d_in(dev, C, input.h(), input.w());
  d_in.upload(input);
  {
    PadImageKernel k;
    k.in = d_in.view();
    k.planes = x_a.view();
    k.P = P;
    k.Q = Q;
    sim::LaunchConfig lc;
    lc.block = sim::Dim3{128, 1, 1};
    lc.grid = sim::Dim3{static_cast<u32>(ceil_div(Q, 128)),
                        static_cast<u32>(C * P), 1};
    lc.regs_per_thread = 12;
    run.add("pad", sim::launch(dev, k, lc, opt));
  }
  const auto flat = flatten_filters(filters);
  auto d_filt = dev.alloc<float>(std::span<const float>(flat));
  {
    PadFilterKernel k;
    k.filt = d_filt.view();
    k.planes = g_a.view();
    k.K = K;
    k.C = C;
    k.P = P;
    k.Q = Q;
    sim::LaunchConfig lc;
    lc.block = sim::Dim3{128, 1, 1};
    lc.grid = sim::Dim3{static_cast<u32>(ceil_div(Q, 128)),
                        static_cast<u32>(F * C * P), 1};
    lc.regs_per_thread = 12;
    run.add("pad", sim::launch(dev, k, lc, opt));
  }

  // --- Stage 2: forward transforms (results land transposed in *_b) --------
  run_fft2d_to_transposed(dev, run, "image_fft", x_a.view(), x_b.view(), C,
                          P, Q, false, tw_q, tw_p, opt);
  run_fft2d_to_transposed(dev, run, "filter_fft", g_a.view(), g_b.view(),
                          F * C, P, Q, false, tw_q, tw_p, opt);

  // --- Stage 3: pointwise MAC over channels (transposed layout) ------------
  {
    MacKernel k;
    k.x = x_b.view();
    k.g = g_b.view();
    k.y = y_a.view();
    k.C = C;
    k.plane = plane;
    sim::LaunchConfig lc;
    lc.block = sim::Dim3{128, 1, 1};
    lc.grid = sim::Dim3{static_cast<u32>(ceil_div(plane, 128)),
                        static_cast<u32>(F), 1};
    lc.regs_per_thread = 20;
    run.add("mac", sim::launch(dev, k, lc, opt));
  }

  // --- Stage 4: inverse transform (from transposed (Q x P) back) -----------
  run_fft2d_to_transposed(dev, run, "inverse", y_a.view(), y_b.view(), F, Q,
                          P, true, tw_p, tw_q, opt);

  DevicePlanes d_out(dev, F, Ho, Wo);
  {
    ExtractKernel k;
    k.acc = y_b.view();
    k.out = d_out.view();
    k.K = K;
    k.P = P;
    k.Q = Q;
    k.scale = 1.0f / static_cast<float>(plane);
    sim::LaunchConfig lc;
    lc.block = sim::Dim3{128, 1, 1};
    lc.grid = sim::Dim3{static_cast<u32>(ceil_div(Wo, 128)),
                        static_cast<u32>(F * Ho), 1};
    lc.regs_per_thread = 12;
    run.add("inverse", sim::launch(dev, k, lc, opt));
  }

  if (run.seal()) {
    run.output = d_out.download();
    run.output_valid = true;
  }
  return run;
}

}  // namespace kconv::kernels
