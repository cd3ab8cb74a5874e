#include "src/kernels/gemm_kernels.hpp"

#include <algorithm>
#include <bit>

#include "src/kernels/detail/tiled_gemm.hpp"

namespace kconv::kernels {

namespace {

/// Row-major A, B and C in global memory.
struct MatrixOperands : GemmTiling {
  sim::BufferView<float> a, b, c;

  float load_a(sim::ThreadCtx& t, const Elem& e) const {
    return t.ld_global_if(e.ok, a, e.row * Kdim + e.col);
  }
  float load_b(sim::ThreadCtx& t, const Elem& e) const {
    return t.ld_global_if(e.ok, b, e.row * Ncols + e.col);
  }
  void store_c(sim::ThreadCtx& t, bool ok, i64 row, i64 col, float v) const {
    t.st_global_if(ok, c, ok ? row * Ncols + col : 0, v);
  }
};

template <int N>
GemmRun run_gemm(sim::Device& dev, const tensor::Matrix& a,
                 const tensor::Matrix& b, const MatrixOperands& tiling,
                 const sim::LaunchOptions& opt) {
  detail::TiledGemm<N, MatrixOperands> k(tiling);
  auto d_a = dev.alloc<float>(std::span<const float>(a.data));
  auto d_b = dev.alloc<float>(std::span<const float>(b.data));
  auto d_c = dev.alloc<float>(k.M * k.Ncols);
  k.a = d_a.view();
  k.b = d_b.view();
  k.c = d_c.view();

  GemmRun run;
  run.launch = sim::launch(dev, k, k.launch_config(dev.arch(), 20), opt);
  if (!run.launch.sampled) {
    run.c = tensor::Matrix(k.M, k.Ncols);
    run.c.data = d_c.download();
    run.output_valid = true;
  }
  return run;
}

}  // namespace

std::string GemmTiling::tile(const sim::Arch& arch, i64 m, i64 ncols,
                             i64 kdim, const GemmConfig& cfg, i64 n) {
  const i64 bm = cfg.bm, bn = cfg.bn, bk = cfg.bk, tm = cfg.tm, tn = cfg.tn;
  if (tm < 1 || tm > kGemmMaxMicro || tn < 1 || tn > kGemmMaxMicro) {
    return "micro-tile exceeds register capacity";
  }
  if (bm < 1 || bn < 1 || bk < 1) return "tile extents must be positive";
  if (bm % tm != 0 || bn % tn != 0) {
    return "tile extents must be multiples of the micro-tile";
  }
  if (tm % n != 0 || tn % n != 0) {
    return "micro-tile must be a multiple of the vector width";
  }
  M = m;
  Ncols = ncols;
  Kdim = kdim;
  BM = bm;
  BN = bn;
  BK = bk;
  TM = tm;
  TN = tn;
  prefetch = cfg.prefetch;
  TXg = bn / tn;
  TYg = bm / tm;
  nthreads = TXg * TYg;
  steps = ceil_div(kdim, bk);
  a_elems = bm * bk;
  b_elems = bk * bn;
  a_iters = ceil_div(a_elems, nthreads);
  b_iters = ceil_div(b_elems, nthreads);
  if (a_iters > kGemmMaxStage || b_iters > kGemmMaxStage) {
    return "tile staging work exceeds per-thread register capacity";
  }
  sim::SharedLayout smem;
  stride_a = bm + (cfg.pad_a ? arch.smem_bank_bytes / sizeof(float) : 0);
  stride_b = bn;
  a_off = smem.alloc<float>(bk * stride_a);
  b_off = smem.alloc<float>(bk * stride_b);
  smem_bytes = smem.size();
  return "";
}

sim::LaunchConfig GemmTiling::launch_config(const sim::Arch& arch,
                                            i64 extra_regs) const {
  sim::LaunchConfig lc;
  lc.grid = sim::Dim3{static_cast<u32>(ceil_div(Ncols, BN)),
                      static_cast<u32>(ceil_div(M, BM)), 1};
  lc.block = sim::Dim3{static_cast<u32>(TXg), static_cast<u32>(TYg), 1};
  lc.shared_bytes = smem_bytes;
  lc.regs_per_thread = static_cast<u32>(
      std::min<i64>(TM * TN + TM + TN + 2 * kGemmMaxStage + extra_regs,
                    arch.max_regs_per_thread));
  return lc;
}

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
  // 4*bk/bm of B per thread, each capped at kGemmMaxStage.
  c.bk = std::min(c.bk, kGemmMaxStage * std::min(bm, bn) / 4);
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
  MatrixOperands tiling;
  const std::string error =
      tiling.tile(dev.arch(), a.rows, b.cols, a.cols, cfg, n);
  KCONV_CHECK(error.empty(), error);

  switch (n) {
    case 1: return run_gemm<1>(dev, a, b, tiling, opt);
    case 2: return run_gemm<2>(dev, a, b, tiling, opt);
    default: return run_gemm<4>(dev, a, b, tiling, opt);
  }
}

}  // namespace kconv::kernels
