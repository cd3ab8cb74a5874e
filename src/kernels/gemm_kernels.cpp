#include "src/kernels/gemm_kernels.hpp"

#include <algorithm>
#include <bit>

#include "src/sim/sim.hpp"

namespace kconv::kernels {

namespace {

constexpr i64 kMaxMicro = 8;      // tm, tn ceiling (acc register file)
constexpr i64 kMaxStage = 16;     // staged elements per thread per tile

template <int N>
class GemmKernel {
 public:
  sim::BufferView<float> a, b, c;
  i64 M = 0, Nc = 0, Kd = 0;             // problem extents
  i64 BM = 0, BN = 0, BK = 0, TM = 0, TN = 0;
  i64 TXg = 0, TYg = 0;                   // thread grid = (BN/TN, BM/TM)
  i64 stride_a = 0, stride_b = 0;         // SM row strides in floats
  u32 a_off = 0, b_off = 0;
  bool prefetch = true;

  sim::ThreadProgram operator()(sim::ThreadCtx& t) const {
    using VecN = Vec<float, N>;
    const i64 tx = t.thread_idx.x;
    const i64 ty = t.thread_idx.y;
    const i64 tid = tx + TXg * ty;
    const i64 nthreads = TXg * TYg;
    const i64 m0 = t.block_idx.y * BM;
    const i64 n0 = t.block_idx.x * BN;

    auto sh_a = t.shared<float>(a_off, BK * stride_a);
    auto sh_b = t.shared<float>(b_off, BK * stride_b);

    float acc[kMaxMicro][kMaxMicro] = {};
    float fa[kMaxMicro], fb[kMaxMicro];
    float pf_a[kMaxStage] = {}, pf_b[kMaxStage] = {};

    const i64 a_elems = BM * BK;  // per-tile staging work
    const i64 b_elems = BK * BN;
    const i64 a_iters = ceil_div(a_elems, nthreads);
    const i64 b_iters = ceil_div(b_elems, nthreads);
    const i64 steps = ceil_div(Kd, BK);

    // Stage the first K-slab. A is transposed into SM (padded rows); B is
    // copied straight through. Out-of-range elements stage zeros so the
    // accumulate loop needs no predicates.
    for (i64 it = 0; it < a_iters; ++it) {
      const i64 e = tid + it * nthreads;
      const i64 m = (e / BK) % BM, kk = e % BK;
      const bool ld_ok = e < a_elems && m0 + m < M && kk < Kd;
      const float v = co_await t.ld_global_if(ld_ok, a, (m0 + m) * Kd + kk);
      co_await t.st_shared_if(e < a_elems, sh_a, kk * stride_a + m, v);
    }
    for (i64 it = 0; it < b_iters; ++it) {
      const i64 e = tid + it * nthreads;
      const i64 r = (e / BN) % BK, col = e % BN;
      const bool ld_ok = e < b_elems && r < Kd && n0 + col < Nc;
      const float v = co_await t.ld_global_if(ld_ok, b, r * Nc + n0 + col);
      co_await t.st_shared_if(e < b_elems, sh_b, r * stride_b + col, v);
    }
    co_await t.sync();

    for (i64 s = 0; s < steps; ++s) {
      const i64 kb = s * BK;
      const bool has_next = s + 1 < steps;

      // Double-buffer the next slab through registers.
      if (prefetch && has_next) {
        for (i64 it = 0; it < a_iters; ++it) {
          const i64 e = tid + it * nthreads;
          const i64 m = (e / BK) % BM, kk = kb + BK + e % BK;
          const bool ok = e < a_elems && m0 + m < M && kk < Kd;
          pf_a[it] = co_await t.ld_global_if(ok, a, (m0 + m) * Kd + kk);
        }
        for (i64 it = 0; it < b_iters; ++it) {
          const i64 e = tid + it * nthreads;
          const i64 r = kb + BK + (e / BN) % BK, col = e % BN;
          const bool ok = e < b_elems && r < Kd && n0 + col < Nc;
          pf_b[it] = co_await t.ld_global_if(ok, b, r * Nc + n0 + col);
        }
      }

      // The rank-BK update: per k, TM/N + TN/N fragment loads feed TM*TN
      // FMAs. Fragment rows/cols are strided by the thread grid so that
      // contiguous threads touch contiguous N-wide units (conflict-free,
      // and full bank bandwidth exactly when N matches the bank width).
      for (i64 k = 0; k < BK; ++k) {
        for (i64 u = 0; u * N < TM; ++u) {
          VecN v = co_await t.template ld_shared<VecN>(
              sh_a, k * stride_a + (ty + u * TYg) * N);
          for (int jj = 0; jj < N; ++jj) fa[u * N + jj] = v[jj];
        }
        for (i64 u = 0; u * N < TN; ++u) {
          VecN v = co_await t.template ld_shared<VecN>(
              sh_b, k * stride_b + (tx + u * TXg) * N);
          for (int jj = 0; jj < N; ++jj) fb[u * N + jj] = v[jj];
        }
        t.template fma_tile<N>(acc, fb, fa, TM, TN);
      }
      co_await t.sync();

      if (has_next) {
        if (prefetch) {
          for (i64 it = 0; it < a_iters; ++it) {
            const i64 e = tid + it * nthreads;
            const i64 m = (e / BK) % BM, kk = e % BK;
            co_await t.st_shared_if(e < a_elems, sh_a, kk * stride_a + m,
                                    pf_a[it]);
          }
          for (i64 it = 0; it < b_iters; ++it) {
            const i64 e = tid + it * nthreads;
            const i64 r = (e / BN) % BK, col = e % BN;
            co_await t.st_shared_if(e < b_elems, sh_b, r * stride_b + col,
                                    pf_b[it]);
          }
        } else {
          for (i64 it = 0; it < a_iters; ++it) {
            const i64 e = tid + it * nthreads;
            const i64 m = (e / BK) % BM, kk = kb + BK + e % BK;
            const bool ok = e < a_elems && m0 + m < M && kk < Kd;
            const float v = co_await t.ld_global_if(ok, a, (m0 + m) * Kd + kk);
            co_await t.st_shared_if(e < a_elems, sh_a,
                                    (e % BK) * stride_a + m, v);
          }
          for (i64 it = 0; it < b_iters; ++it) {
            const i64 e = tid + it * nthreads;
            const i64 r = (e / BN) % BK, col = e % BN;
            const bool ok = e < b_elems && kb + BK + r < Kd && n0 + col < Nc;
            const float v =
                co_await t.ld_global_if(ok, b, (kb + BK + r) * Nc + n0 + col);
            co_await t.st_shared_if(e < b_elems, sh_b, r * stride_b + col, v);
          }
        }
      }
      co_await t.sync();
    }

    // Write the micro-tile back (strided fragment layout).
    for (i64 i = 0; i < TM; ++i) {
      const i64 row = m0 + (ty + (i / N) * TYg) * N + (i % N);
      for (i64 j = 0; j < TN; ++j) {
        const i64 col = n0 + (tx + (j / N) * TXg) * N + (j % N);
        const bool ok = row < M && col < Nc;
        co_await t.st_global_if(ok, c, ok ? row * Nc + col : 0, acc[i][j]);
      }
    }
  }
};

template <int N>
GemmRun run_gemm(sim::Device& dev, const tensor::Matrix& a,
                 const tensor::Matrix& b, const GemmConfig& cfg,
                 const sim::LaunchOptions& opt) {
  GemmKernel<N> k;
  k.M = a.rows;
  k.Nc = b.cols;
  k.Kd = a.cols;
  k.BM = cfg.bm;
  k.BN = cfg.bn;
  k.BK = cfg.bk;
  k.TM = cfg.tm;
  k.TN = cfg.tn;
  k.TXg = cfg.bn / cfg.tn;
  k.TYg = cfg.bm / cfg.tm;
  k.prefetch = cfg.prefetch;

  const i64 nthreads = k.TXg * k.TYg;
  KCONV_CHECK(ceil_div(k.BM * k.BK, nthreads) <= kMaxStage &&
                  ceil_div(k.BK * k.BN, nthreads) <= kMaxStage,
              "tile staging work exceeds per-thread register capacity");

  auto d_a = dev.alloc<float>(std::span<const float>(a.data));
  auto d_b = dev.alloc<float>(std::span<const float>(b.data));
  auto d_c = dev.alloc<float>(k.M * k.Nc);
  k.a = d_a.view();
  k.b = d_b.view();
  k.c = d_c.view();

  sim::SharedLayout smem;
  const i64 pad = cfg.pad_a ? dev.arch().smem_bank_bytes / sizeof(float) : 0;
  k.stride_a = cfg.bm + pad;
  k.stride_b = cfg.bn;
  k.a_off = smem.alloc<float>(cfg.bk * k.stride_a);
  k.b_off = smem.alloc<float>(cfg.bk * k.stride_b);

  sim::LaunchConfig lc;
  lc.grid = sim::Dim3{static_cast<u32>(ceil_div(k.Nc, cfg.bn)),
                      static_cast<u32>(ceil_div(k.M, cfg.bm)), 1};
  lc.block = sim::Dim3{static_cast<u32>(k.TXg), static_cast<u32>(k.TYg), 1};
  lc.shared_bytes = smem.size();
  lc.regs_per_thread = static_cast<u32>(std::min<i64>(
      cfg.tm * cfg.tn + cfg.tm + cfg.tn + 2 * kMaxStage + 20, dev.arch().max_regs_per_thread));

  GemmRun run;
  run.launch = sim::launch(dev, k, lc, opt);
  if (!run.launch.sampled) {
    run.c = tensor::Matrix(k.M, k.Nc);
    run.c.data = d_c.download();
    run.output_valid = true;
  }
  return run;
}

}  // namespace

GemmConfig gemm_cublas_like() {
  GemmConfig c;
  c.bm = 96;
  c.bn = 96;
  c.bk = 8;
  c.tm = 6;
  c.tn = 6;
  c.vec_width = 0;  // matched
  return c;
}

GemmConfig gemm_magma_fermi() {
  GemmConfig c;
  c.bm = 64;
  c.bn = 64;
  c.bk = 16;
  c.tm = 4;
  c.tn = 4;
  c.vec_width = 1;  // float fragments: mismatched on 8-byte banks
  return c;
}

GemmConfig gemm_magma_mod() {
  GemmConfig c = gemm_magma_fermi();
  c.vec_width = 0;  // the paper's fix: float2 fragments
  return c;
}

GemmConfig gemm_fitted(i64 m, i64 n) {
  KCONV_CHECK(m >= 1 && n >= 1, "empty GEMM output");
  GemmConfig c = gemm_magma_mod();
  const auto fit = [](i64 extent, i64 tile) {
    return std::min(tile, std::max<i64>(2, std::bit_ceil(
                                               static_cast<u64>(extent))));
  };
  const i64 bm = fit(m, c.bm);
  const i64 bn = fit(n, c.bn);
  if (bm == c.bm && bn == c.bn) return c;
  c.bm = bm;
  c.bn = bn;
  c.tm = 2;
  c.tn = 2;
  // Per-tile staging is bm*bk / threads = 4*bk/bn elements of A and
  // 4*bk/bm of B per thread, each capped at kMaxStage.
  c.bk = std::min(c.bk, kMaxStage * std::min(bm, bn) / 4);
  return c;
}

GemmRun gemm(sim::Device& dev, const tensor::Matrix& a,
             const tensor::Matrix& b, const GemmConfig& cfg,
             const sim::LaunchOptions& opt) {
  KCONV_CHECK(a.cols == b.rows,
              strf("GEMM shape mismatch: %lldx%lld * %lldx%lld",
                   static_cast<long long>(a.rows),
                   static_cast<long long>(a.cols),
                   static_cast<long long>(b.rows),
                   static_cast<long long>(b.cols)));
  i64 n = cfg.vec_width;
  if (n == 0) n = dev.arch().smem_bank_bytes / sizeof(float);
  KCONV_CHECK(n == 1 || n == 2 || n == 4, "unsupported vector width");
  KCONV_CHECK(cfg.tm >= 1 && cfg.tm <= kMaxMicro && cfg.tn >= 1 &&
                  cfg.tn <= kMaxMicro,
              "micro-tile exceeds register capacity");
  KCONV_CHECK(cfg.bm % cfg.tm == 0 && cfg.bn % cfg.tn == 0,
              "tile extents must be multiples of the micro-tile");
  KCONV_CHECK(cfg.tm % n == 0 && cfg.tn % n == 0,
              "micro-tile must be a multiple of the vector width");

  switch (n) {
    case 1: return run_gemm<1>(dev, a, b, cfg, opt);
    case 2: return run_gemm<2>(dev, a, b, cfg, opt);
    default: return run_gemm<4>(dev, a, b, cfg, opt);
  }
}

}  // namespace kconv::kernels
