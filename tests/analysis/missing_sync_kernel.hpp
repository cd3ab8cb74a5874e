// Seeded defect for the kconv-check hazard detector (docs/MODEL.md §6):
// the paper's special-case kernel (Algorithm 1) with the barrier after the
// initial row staging DELETED. Warps that race ahead read staged rows near
// the warp boundary before the neighbouring warp has stored them — a
// cross-warp RAW race on shared memory that direct execution masks (the
// simulator retires warps in order) but the detector must flag.
//
// The kernel is a float/N=2 trim of detail::SpecialKernelT, kept close to
// the original so the defect is exactly "one sync missing", nothing else.
// replay_class is retained so the replay launch path can be exercised: a
// raced class representative must taint its class and force every
// congruent block back to full execution.
#pragma once

#include <algorithm>

#include "src/kernels/device_tensor.hpp"
#include "src/sim/sim.hpp"

namespace kconv::analysis_tests {

class MissingSyncSpecialKernel {
 public:
  static constexpr int N = 2;
  using VecN = Vec<float, N>;

  kernels::PlanesViewT<float> in;   // (1, Hi, Wi)
  kernels::PlanesViewT<float> out;  // (F, Ho, Wo)
  sim::ConstView<float> filt;       // F*K*K, filter-major
  i64 K = 0, F = 0, Ho = 0, Wo = 0;
  i64 W = 0, H = 0;
  i64 sh_stride = 0;
  i64 n_tail = 0;
  u32 sh_off = 0;

  u64 replay_class(sim::Dim3 b) const {
    const i64 nthreads = W / N;
    const auto active = [](i64 base, i64 bound, i64 cap) {
      if (bound <= base) return i64{0};
      return std::min(cap, ceil_div(bound - base, i64{N}));
    };
    const i64 main_n = active(b.x * W, in.w, nthreads);
    const i64 tail_n = active(b.x * W + W, in.w, n_tail);
    const i64 write_n = active(b.x * W, Wo, nthreads);
    const i64 rows = std::min<i64>(H, Ho - static_cast<i64>(b.y) * H);
    return static_cast<u64>(main_n) | (static_cast<u64>(tail_n) << 16) |
           (static_cast<u64>(write_n) << 32) | (static_cast<u64>(rows) << 48);
  }

  sim::ThreadProgram operator()(sim::ThreadCtx& t) const {
    const i64 tid = t.thread_idx.x;
    const i64 bx = t.block_idx.x;
    const i64 by = t.block_idx.y;
    const i64 Wi = in.w;
    const i64 row0 = by * H;
    const i64 col0 = bx * W + tid * N;
    const i64 rows = std::min<i64>(H, Ho - row0);
    auto sh = t.shared<float>(sh_off, K * sh_stride);

    const bool main_ok = col0 < Wi;
    const i64 tail_col = bx * W + W + tid * N;
    const bool tail_ok = tid < n_tail && tail_col < Wi;

    const i64 wcols = round_up(K + N - 1, i64{N});
    float win[8][24] = {};

    // Algorithm 1, line 1: stage the first K input rows in shared memory.
    for (i64 r = 0; r < K; ++r) {
      const i64 ir = row0 + r;
      VecN v = t.template ld_global_if<VecN>(
          main_ok, in.buf, main_ok ? in.idx(0, ir, col0) : 0);
      t.st_shared_if(main_ok, sh, r * sh_stride + tid * N, v);
      VecN v2 = t.template ld_global_if<VecN>(
          tail_ok, in.buf, tail_ok ? in.idx(0, ir, tail_col) : 0);
      t.st_shared_if(tail_ok, sh, r * sh_stride + W + tid * N, v2);
    }
    // DEFECT: Algorithm 1's line-2 barrier belongs here. Without it the
    // window fill below reads its right-halo pixels (written by the next
    // warp's staging stores) in the same barrier epoch as those stores.

    for (i64 r = 0; r + 1 < K; ++r) {
      for (i64 i = 0; i < wcols; i += N) {
        VecN v = t.template ld_shared<VecN>(
            sh, r * sh_stride + tid * N + i);
        for (int j = 0; j < N; ++j) win[r][i + j] = v[j];
      }
    }

    for (i64 rr = 0; rr < rows; ++rr) {
      const i64 orow = row0 + rr;

      const i64 slot = (rr + K - 1) % K;
      for (i64 i = 0; i < wcols; i += N) {
        VecN v = t.template ld_shared<VecN>(
            sh, slot * sh_stride + tid * N + i);
        for (int j = 0; j < N; ++j) win[K - 1][i + j] = v[j];
      }

      const bool write_ok = col0 < Wo;
      for (i64 f = 0; f < F; ++f) {
        Vec<float, N> acc{};
        for (i64 dy = 0; dy < K; ++dy) {
          for (i64 dx = 0; dx < K; ++dx) {
            const float wv = t.ld_const(filt, (f * K + dy) * K + dx);
            Vec<float, N> xs;
            for (int j = 0; j < N; ++j) xs[j] = win[dy][dx + j];
            acc = t.fma(xs, wv, acc);
          }
        }
        t.st_global_if(write_ok, out.buf,
                                write_ok ? out.idx(f, orow, col0) : 0, acc);
      }

      const bool pf = rr + 1 < rows;
      const i64 ir = row0 + rr + K;
      VecN pf_main = t.template ld_global_if<VecN>(
          pf && main_ok, in.buf, pf && main_ok ? in.idx(0, ir, col0) : 0);
      VecN pf_tail = t.template ld_global_if<VecN>(
          pf && tail_ok, in.buf, pf && tail_ok ? in.idx(0, ir, tail_col) : 0);
      co_await t.sync();

      t.st_shared_if(pf && main_ok, sh,
                              (rr % K) * sh_stride + tid * N, pf_main);
      t.st_shared_if(pf && tail_ok, sh,
                              (rr % K) * sh_stride + W + tid * N, pf_tail);
      co_await t.sync();

      for (i64 r = 0; r + 1 < K; ++r) {
        for (i64 i = 0; i < wcols; ++i) win[r][i] = win[r + 1][i];
      }
    }
  }
};

/// Launches the defective kernel over `input` (1, 1, Hi, Wi) with F K x K
/// filters, mirroring run_special's plan. W must give >= 2 warps
/// (W / N > warp size) for the cross-warp race to exist.
inline sim::LaunchResult run_missing_sync(sim::Device& dev,
                                          const tensor::Tensor& input,
                                          const tensor::Tensor& filters,
                                          i64 block_w, i64 block_h,
                                          const sim::LaunchOptions& opt) {
  const i64 K = filters.h();
  const i64 F = filters.n();
  const i64 Hi = input.h(), Wi = input.w();
  const i64 Ho = Hi - K + 1, Wo = Wi - K + 1;
  constexpr int N = MissingSyncSpecialKernel::N;

  kernels::DevicePlanes d_in(dev, 1, Hi, Wi);
  d_in.upload(input);
  kernels::DevicePlanes d_out(dev, F, Ho, Wo);
  const auto flat = kernels::flatten_filters(filters);
  auto d_filt = dev.alloc_const<float>(flat);

  MissingSyncSpecialKernel k;
  k.in = d_in.view();
  k.out = d_out.view();
  k.filt =
      sim::ConstView<float>(d_filt.get(), 0, static_cast<i64>(flat.size()));
  k.K = K;
  k.F = F;
  k.Ho = Ho;
  k.Wo = Wo;
  k.W = block_w;
  k.H = block_h;
  k.n_tail = ceil_div(K - 1, i64{N});

  sim::SharedLayout smem;
  k.sh_stride = round_up(block_w + K + N, i64{16});
  k.sh_off = smem.alloc<float>(K * k.sh_stride);

  sim::LaunchConfig lc;
  lc.grid = sim::Dim3{static_cast<u32>(ceil_div(Wo, block_w)),
                      static_cast<u32>(ceil_div(Ho, block_h)), 1};
  lc.block = sim::Dim3{static_cast<u32>(block_w / N), 1, 1};
  lc.shared_bytes = smem.size();
  return sim::launch(dev, k, lc, opt);
}

}  // namespace kconv::analysis_tests
