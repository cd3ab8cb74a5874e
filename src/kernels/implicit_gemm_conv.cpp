#include "src/kernels/implicit_gemm_conv.hpp"

#include <algorithm>

#include "src/kernels/device_tensor.hpp"
#include "src/sim/sim.hpp"

namespace kconv::kernels {

namespace {

constexpr i64 kMaxMicro = 8;
constexpr i64 kMaxStage = 16;

/// The tiled GEMM over its plan; n == N.
template <int N>
class ImplicitGemmKernel : public ImplicitGemmPlan {
 public:
  explicit ImplicitGemmKernel(const ImplicitGemmPlan& p)
      : ImplicitGemmPlan(p) {}

  PlanesView in;                 // (C, Hi, Wi)
  PlanesView out;                // (F, Ho, Wo)
  sim::BufferView<float> filt;   // F*C*K*K filter-major

  /// Block equivalence class for trace replay (docs/MODEL.md §5b). The
  /// only block-dependent predicates are the partial-tile guards
  /// `m0 + m < F` and `p0 + col < Np`: full tiles have them always true,
  /// and each partial flavor matches exactly one b.y (resp. b.x), so its
  /// masks are constants of the class. The im2col div/mod addressing is
  /// non-affine in p0, but replay re-analyzes addresses per block anyway.
  u64 replay_class(sim::Dim3 b) const {
    const bool partial_n = (static_cast<i64>(b.x) + 1) * BN > Np;
    const bool partial_m = (static_cast<i64>(b.y) + 1) * BM > F;
    return (partial_n ? 1u : 0u) | (partial_m ? 2u : 0u);
  }

  sim::ThreadProgram operator()(sim::ThreadCtx& t) const {
    using VecN = Vec<float, N>;
    const i64 tx = t.thread_idx.x;
    const i64 ty = t.thread_idx.y;
    const i64 tid = tx + TXg * ty;
    const i64 m0 = t.block_idx.y * BM;  // filter block
    const i64 p0 = t.block_idx.x * BN;  // output-pixel block
    const i64 KK = K * K;

    auto sh_a = t.shared<float>(a_off, BK * stride_a);
    auto sh_b = t.shared<float>(b_off, BK * stride_b);

    float acc[kMaxMicro][kMaxMicro] = {};
    float fa[kMaxMicro], fb[kMaxMicro];
    float pf_a[kMaxStage] = {}, pf_b[kMaxStage] = {};

    // Stages row `kb` of the implicit B matrix for pixel column p: the
    // im2col decode the explicit pipeline pays memory for, paid here in
    // index arithmetic instead.
    // (c, dy, dx) = unflatten(kb); (y, x) = unflatten(p).

    // kconv-prof scopes re-label accesses only; issue order is untouched.
    for (i64 it = 0; it < a_iters; ++it) {
      const i64 e = tid + it * nthreads;
      const i64 m = (e / BK) % BM, kk = e % BK;
      const bool ok = e < a_elems && m0 + m < F && kk < Kdim;
      float v = 0.0f;
      {
        sim::ProfilePhase phase(t, profile::Phase::GmLoad);
        v = co_await t.ld_global_if(ok, filt, (m0 + m) * Kdim + kk);
      }
      {
        sim::ProfilePhase phase(t, profile::Phase::SmemStage);
        co_await t.st_shared_if(e < a_elems, sh_a, kk * stride_a + m, v);
      }
    }
    for (i64 it = 0; it < b_iters; ++it) {
      const i64 e = tid + it * nthreads;
      const i64 r = (e / BN) % BK, col = e % BN;
      const bool ok = e < b_elems && r < Kdim && p0 + col < Np;
      const i64 c = r / KK, dy = (r % KK) / K, dx = r % K;
      const i64 y = (p0 + col) / Wo, x = (p0 + col) % Wo;
      float v = 0.0f;
      {
        sim::ProfilePhase phase(t, profile::Phase::GmLoad);
        t.alu(12);  // im2col decode: div/mod emulation + bounds checks
        v = co_await t.ld_global_if(
            ok, in.buf, ok ? in.idx(c, y + dy, x + dx) : 0);
      }
      {
        sim::ProfilePhase phase(t, profile::Phase::SmemStage);
        co_await t.st_shared_if(e < b_elems, sh_b, r * stride_b + col, v);
      }
    }
    co_await t.sync();

    for (i64 s = 0; s < steps; ++s) {
      const i64 kb = s * BK;
      const bool has_next = s + 1 < steps;

      if (prefetch && has_next) {
        sim::ProfilePhase phase(t, profile::Phase::Prefetch);
        for (i64 it = 0; it < a_iters; ++it) {
          const i64 e = tid + it * nthreads;
          const i64 m = (e / BK) % BM, kk = kb + BK + e % BK;
          const bool ok = e < a_elems && m0 + m < F && kk < Kdim;
          pf_a[it] = co_await t.ld_global_if(ok, filt, (m0 + m) * Kdim + kk);
        }
        for (i64 it = 0; it < b_iters; ++it) {
          const i64 e = tid + it * nthreads;
          const i64 r = kb + BK + (e / BN) % BK, col = e % BN;
          const bool ok = e < b_elems && r < Kdim && p0 + col < Np;
          const i64 c = r / KK, dy = (r % KK) / K, dx = r % K;
          const i64 y = (p0 + col) / Wo, x = (p0 + col) % Wo;
          t.alu(12);
          pf_b[it] = co_await t.ld_global_if(
              ok, in.buf, ok ? in.idx(c, y + dy, x + dx) : 0);
        }
      }

      {
        sim::ProfilePhase phase(t, profile::Phase::Compute);
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
      }
      co_await t.sync();

      if (has_next) {
        if (prefetch) {
          sim::ProfilePhase phase(t, profile::Phase::SmemStage);
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
            const bool ok = e < a_elems && m0 + m < F && kk < Kdim;
            float v = 0.0f;
            {
              sim::ProfilePhase phase(t, profile::Phase::GmLoad);
              v = co_await t.ld_global_if(ok, filt, (m0 + m) * Kdim + kk);
            }
            {
              sim::ProfilePhase phase(t, profile::Phase::SmemStage);
              co_await t.st_shared_if(e < a_elems, sh_a,
                                      (e % BK) * stride_a + m, v);
            }
          }
          for (i64 it = 0; it < b_iters; ++it) {
            const i64 e = tid + it * nthreads;
            const i64 r = (e / BN) % BK, col = e % BN;
            const i64 kk = kb + BK + r;
            const bool ok = e < b_elems && kk < Kdim && p0 + col < Np;
            const i64 c = kk / KK, dy = (kk % KK) / K, dx = kk % K;
            const i64 y = (p0 + col) / Wo, x = (p0 + col) % Wo;
            float v = 0.0f;
            {
              sim::ProfilePhase phase(t, profile::Phase::GmLoad);
              t.alu(12);
              v = co_await t.ld_global_if(
                  ok, in.buf, ok ? in.idx(c, y + dy, x + dx) : 0);
            }
            {
              sim::ProfilePhase phase(t, profile::Phase::SmemStage);
              co_await t.st_shared_if(e < b_elems, sh_b, r * stride_b + col,
                                      v);
            }
          }
        }
      }
      co_await t.sync();
    }

    // Scatter the micro-tile to the output planes. Rows are filters, so
    // this is the uncoalesced-by-nature phase shared with the paper's
    // general kernel.
    sim::ProfilePhase phase(t, profile::Phase::Writeback);
    for (i64 i = 0; i < TM; ++i) {
      const i64 f = m0 + (ty + (i / N) * TYg) * N + (i % N);
      for (i64 j = 0; j < TN; ++j) {
        const i64 p = p0 + (tx + (j / N) * TXg) * N + (j % N);
        const bool ok = f < F && p < Np;
        t.alu(2);
        co_await t.st_global_if(ok, out.buf,
                                ok ? out.idx(f, p / Wo, p % Wo) : 0,
                                acc[i][j]);
      }
    }
  }
};

}  // namespace

ImplicitGemmPlan plan_implicit_gemm(const sim::Arch& arch, i64 k, i64 c,
                                    i64 f, i64 hi, i64 wi,
                                    const ImplicitGemmConfig& cfg) {
  ImplicitGemmPlan p;
  const auto fail = [&p](std::string why) {
    p.error = std::move(why);
    return p;
  };
  if (!p.init(arch, k, c, f, hi, wi, false, cfg.vec_width, 4, 4)) return p;
  const i64 n = p.n;
  if (cfg.tm < 1 || cfg.tm > kMaxMicro || cfg.tn < 1 || cfg.tn > kMaxMicro) {
    return fail("micro-tile exceeds register capacity");
  }
  if (cfg.bm < 1 || cfg.bn < 1 || cfg.bk < 1) {
    return fail("tile extents must be positive");
  }
  if (cfg.bm % cfg.tm != 0 || cfg.bn % cfg.tn != 0) {
    return fail("tile extents must be multiples of the micro-tile");
  }
  if (cfg.tm % n != 0 || cfg.tn % n != 0) {
    return fail("micro-tile must be a multiple of the vector width");
  }
  p.BM = cfg.bm;
  p.BN = cfg.bn;
  p.BK = cfg.bk;
  p.TM = cfg.tm;
  p.TN = cfg.tn;
  p.prefetch = cfg.prefetch;
  p.TXg = cfg.bn / cfg.tn;
  p.TYg = cfg.bm / cfg.tm;
  p.nthreads = p.TXg * p.TYg;
  p.Kdim = c * k * k;
  p.Np = p.Ho * p.Wo;
  p.a_elems = cfg.bm * cfg.bk;
  p.b_elems = cfg.bk * cfg.bn;
  p.a_iters = ceil_div(p.a_elems, p.nthreads);
  p.b_iters = ceil_div(p.b_elems, p.nthreads);
  p.steps = ceil_div(p.Kdim, cfg.bk);
  if (p.a_iters > kMaxStage || p.b_iters > kMaxStage) {
    return fail("tile staging work exceeds per-thread register capacity");
  }
  p.place(sizeof(float), /*const_filters=*/false);

  sim::SharedLayout smem;
  p.stride_a = cfg.bm + arch.smem_bank_bytes / sizeof(float);
  p.stride_b = cfg.bn;
  p.a_off = smem.alloc<float>(cfg.bk * p.stride_a);
  p.b_off = smem.alloc<float>(cfg.bk * p.stride_b);
  p.lc.grid = sim::Dim3{static_cast<u32>(ceil_div(p.Np, cfg.bn)),
                        static_cast<u32>(ceil_div(f, cfg.bm)), 1};
  p.lc.block =
      sim::Dim3{static_cast<u32>(p.TXg), static_cast<u32>(p.TYg), 1};
  p.lc.shared_bytes = smem.size();
  p.lc.regs_per_thread = static_cast<u32>(std::min<i64>(
      cfg.tm * cfg.tn + cfg.tm + cfg.tn + 2 * kMaxStage + 24,
      arch.max_regs_per_thread));

  p.key = strf(
      "implicit_gemm|v1|n=%d|k=%lld|c=%lld|f=%lld|hi=%lld|wi=%lld|bm=%lld|"
      "bn=%lld|bk=%lld|tm=%lld|tn=%lld|pf=%d",
      static_cast<int>(n), static_cast<long long>(k),
      static_cast<long long>(c), static_cast<long long>(f),
      static_cast<long long>(hi), static_cast<long long>(wi),
      static_cast<long long>(cfg.bm), static_cast<long long>(cfg.bn),
      static_cast<long long>(cfg.bk), static_cast<long long>(cfg.tm),
      static_cast<long long>(cfg.tn), cfg.prefetch ? 1 : 0);

  // The baseline's own tiling bound (not the paper's §3/§4 conv bound): the
  // A (filter) panel is re-read once per pixel-block column and the
  // implicit B panel once per filter-block row; predicated-off lanes load
  // nothing, so the bound is exact. Its gap to the §3/§4 bound is exactly
  // the K*K re-read Fig. 7 measures. The fleet hints stay unprovided: the
  // baseline declares no shard axes.
  const double fs = static_cast<double>(sizeof(float));
  p.hints.kind = profile::RooflineHints::Kind::ImplicitGemm;
  p.hints.k = static_cast<u32>(k);
  p.hints.gm_load_bound_bytes =
      fs * (static_cast<double>(f * p.Kdim) * static_cast<double>(p.lc.grid.x) +
            static_cast<double>(p.Kdim * p.Np) *
                static_cast<double>(p.lc.grid.y));
  p.out_bytes = fs * static_cast<double>(f) * static_cast<double>(p.Np);
  p.error = sim::launch_feasibility_error(arch, p.lc);
  return p;
}

std::string implicit_gemm_check(const sim::Arch& arch, i64 k, i64 c, i64 f,
                                i64 hi, i64 wi,
                                const ImplicitGemmConfig& cfg) {
  return plan_implicit_gemm(arch, k, c, f, hi, wi, cfg).error;
}

namespace {

/// The baseline's xray describer over its plan.
xray::KernelModel implicit_gemm_model(const ImplicitGemmPlan& p) {
  xray::KernelModel m;
  m.kernel = "implicit_gemm";
  m.cfg = p.lc;
  m.min_gm_bytes = p.min_gm_bytes();

  enum Site : u32 {
    kGmAStage, kSmAStage, kGmBStage, kSmBStage,
    kSmACompute, kSmBCompute,
    kGmANext, kGmBNext, kSmAPublish, kSmBPublish,
    kGmWriteback,
  };
  m.sites = {
      {"gm-a-stage", sim::Op::LoadGlobal, "§5 baseline [8] filter panel",
       false},
      {"sm-a-stage", sim::Op::StoreShared, "§5 baseline [8] padded A panel",
       false},
      {"gm-b-stage", sim::Op::LoadGlobal, "§5 baseline [8] im2col decode",
       false},
      {"sm-b-stage", sim::Op::StoreShared, "§5 baseline [8] B panel", false},
      {"sm-a-compute", sim::Op::LoadShared, "§5 baseline [8]", false},
      {"sm-b-compute", sim::Op::LoadShared, "§5 baseline [8]", false},
      {"gm-a-next", sim::Op::LoadGlobal, "§5 baseline [8] filter panel",
       false},
      {"gm-b-next", sim::Op::LoadGlobal, "§5 baseline [8] im2col decode",
       false},
      {"sm-a-publish", sim::Op::StoreShared, "§5 baseline [8] padded A panel",
       false},
      {"sm-b-publish", sim::Op::StoreShared, "§5 baseline [8] B panel",
       false},
      {"gm-writeback", sim::Op::StoreGlobal, "§5 baseline [8] scatter",
       false},
  };

  m.emit = [p](sim::Dim3 b, xray::ModelSink& sink) {
    constexpr u32 kNone = ~0u;
    const u32 vb = static_cast<u32>(p.n * sizeof(float));
    const u32 sb = static_cast<u32>(sizeof(float));
    const i64 m0 = static_cast<i64>(b.y) * p.BM;
    const i64 p0 = static_cast<i64>(b.x) * p.BN;
    const i64 KK = p.K * p.K;
    const auto sm_a = [&p](i64 idx) {
      return p.a_off + static_cast<u64>(idx) * sizeof(float);
    };
    const auto sm_b = [&p](i64 idx) {
      return p.b_off + static_cast<u64>(idx) * sizeof(float);
    };
    std::vector<xray::LaneAccess> lanes(static_cast<size_t>(p.nthreads));
    const auto each = [&](auto&& fill) {
      for (i64 t = 0; t < p.nthreads; ++t) {
        lanes[static_cast<size_t>(t)] = fill(t);
      }
    };

    // The A-panel staging loop for K-slab base `kbase`: GM-load and/or
    // SM-store halves (prefetch splits them across a barrier). The SM
    // store's predicate is the block-invariant `e < a_elems` — out-of-range
    // filter rows stage zeros.
    const auto a_stage = [&](i64 kbase, u32 gm_site, u32 sm_site) {
      for (i64 it = 0; it < p.a_iters; ++it) {
        if (gm_site != kNone) {
          each([&](i64 t) -> xray::LaneAccess {
            const i64 e = t + it * p.nthreads;
            const i64 mm = (e / p.BK) % p.BM;
            const i64 kk = kbase + e % p.BK;
            const bool ok = e < p.a_elems && m0 + mm < p.F && kk < p.Kdim;
            return {ok ? p.filt_addr((m0 + mm) * p.Kdim + kk) : 0, sb, ok, ok};
          });
          sink.site(gm_site, lanes);
        }
        if (sm_site != kNone) {
          each([&](i64 t) -> xray::LaneAccess {
            const i64 e = t + it * p.nthreads;
            const i64 mm = (e / p.BK) % p.BM;
            const bool ok = e < p.a_elems;
            return {sm_a((e % p.BK) * p.stride_a + mm), sb, ok, ok};
          });
          sink.site(sm_site, lanes);
        }
      }
    };
    // The B-panel staging loop: each GM iteration spends 12 uniform ALU
    // lane-ops on the im2col div/mod decode before the load issues.
    const auto b_stage = [&](i64 kbase, u32 gm_site, u32 sm_site) {
      for (i64 it = 0; it < p.b_iters; ++it) {
        if (gm_site != kNone) {
          sink.alu(12);
          each([&](i64 t) -> xray::LaneAccess {
            const i64 e = t + it * p.nthreads;
            const i64 r = kbase + (e / p.BN) % p.BK;
            const i64 col = e % p.BN;
            const bool ok = e < p.b_elems && r < p.Kdim && p0 + col < p.Np;
            const i64 ci = r / KK, dy = (r % KK) / p.K, dx = r % p.K;
            const i64 y = (p0 + col) / p.Wo, x = (p0 + col) % p.Wo;
            return {ok ? p.in_addr(ci, y + dy, x + dx) : 0, sb, ok, ok};
          });
          sink.site(gm_site, lanes);
        }
        if (sm_site != kNone) {
          each([&](i64 t) -> xray::LaneAccess {
            const i64 e = t + it * p.nthreads;
            const i64 r = (e / p.BN) % p.BK;
            const bool ok = e < p.b_elems;
            return {sm_b(r * p.stride_b + e % p.BN), sb, ok, ok};
          });
          sink.site(sm_site, lanes);
        }
      }
    };

    // The initial fill.
    a_stage(0, kGmAStage, kSmAStage);
    b_stage(0, kGmBStage, kSmBStage);
    sink.sync();

    for (i64 s = 0; s < p.steps; ++s) {
      const i64 kb = s * p.BK;
      const bool has_next = s + 1 < p.steps;

      if (p.prefetch && has_next) {
        a_stage(kb + p.BK, kGmANext, kNone);
        b_stage(kb + p.BK, kGmBNext, kNone);
      }

      // The micro-tiled GEMM inner loop: A fragments broadcast across the
      // warp's X extent, B fragments stride conflict-free.
      for (i64 kk = 0; kk < p.BK; ++kk) {
        for (i64 u = 0; u * p.n < p.TM; ++u) {
          each([&](i64 t) -> xray::LaneAccess {
            const i64 ty = t / p.TXg;
            return {sm_a(kk * p.stride_a + (ty + u * p.TYg) * p.n), vb, true,
                    true};
          });
          sink.site(kSmACompute, lanes);
        }
        for (i64 u = 0; u * p.n < p.TN; ++u) {
          each([&](i64 t) -> xray::LaneAccess {
            const i64 tx = t % p.TXg;
            return {sm_b(kk * p.stride_b + (tx + u * p.TXg) * p.n), vb, true,
                    true};
          });
          sink.site(kSmBCompute, lanes);
        }
        sink.fma(static_cast<u64>(p.TM * p.TN));
      }
      sink.sync();

      if (has_next) {
        if (p.prefetch) {
          a_stage(0, kNone, kSmAPublish);
          b_stage(0, kNone, kSmBPublish);
        } else {
          a_stage(kb + p.BK, kGmANext, kSmAPublish);
          b_stage(kb + p.BK, kGmBNext, kSmBPublish);
        }
      }
      sink.sync();
    }

    // Scatter the micro-tile: rows are filters, so contiguous X threads hit
    // different output planes.
    for (i64 i = 0; i < p.TM; ++i) {
      for (i64 j = 0; j < p.TN; ++j) {
        sink.alu(2);
        each([&](i64 t) -> xray::LaneAccess {
          const i64 tx = t % p.TXg, ty = t / p.TXg;
          const i64 ff = m0 + (ty + (i / p.n) * p.TYg) * p.n + i % p.n;
          const i64 pp = p0 + (tx + (j / p.n) * p.TXg) * p.n + j % p.n;
          const bool ok = ff < p.F && pp < p.Np;
          return {ok ? p.out_addr(ff, pp / p.Wo, pp % p.Wo) : 0, sb, ok, true};
        });
        sink.site(kGmWriteback, lanes);
      }
    }
  };
  return m;
}

}  // namespace

xray::KernelModel implicit_gemm_xray(const sim::Arch& arch, i64 k, i64 c,
                                     i64 f, i64 hi, i64 wi,
                                     const ImplicitGemmConfig& cfg) {
  const ImplicitGemmPlan plan = plan_implicit_gemm(arch, k, c, f, hi, wi, cfg);
  KCONV_CHECK(plan.error.empty(), plan.error);
  return implicit_gemm_model(plan);
}

ImplicitGemmConfig implicit_gemm_auto_config(i64 f, i64 c, i64 k) {
  // cuDNN v5 ships a small menu of pre-compiled SASS GEMM tiles; the
  // 128-row, K-slab-32 shape is the workhorse. Problems smaller than the
  // tile are zero-padded into it — the source of its special-case (C=1,
  // modest F) collapse that Fig. 7 measures.
  ImplicitGemmConfig cfg;
  cfg.bk = 32;
  cfg.bm = 128;
  cfg.tm = 8;
  cfg.bn = 64;
  cfg.tn = 4;
  (void)f;
  (void)c;
  (void)k;
  return cfg;
}

KernelRun implicit_gemm_conv(sim::Device& dev, const tensor::Tensor& input,
                             const tensor::Tensor& filters,
                             const ImplicitGemmConfig& cfg,
                             const sim::LaunchOptions& opt) {
  KCONV_CHECK(input.n() == 1, "implicit GEMM operates on a single image");
  KCONV_CHECK(filters.c() == input.c(), "channel mismatch");
  KCONV_CHECK(filters.h() == filters.w(), "non-square filters unsupported");

  const ImplicitGemmPlan plan =
      plan_implicit_gemm(dev.arch(), filters.h(), input.c(), filters.n(),
                         input.h(), input.w(), cfg);
  KCONV_CHECK(plan.error.empty(), plan.error);
  const auto run = [&]<int N>() {
    DevicePlanes d_in(dev, plan.C, plan.Hi, plan.Wi);
    d_in.upload(input);
    DevicePlanes d_out(dev, plan.F, plan.Ho, plan.Wo);
    const auto flat = flatten_filters(filters);
    auto d_filt = dev.alloc<float>(std::span<const float>(flat));
    ImplicitGemmKernel<N> k(plan);
    k.in = d_in.view();
    k.out = d_out.view();
    k.filt = d_filt.view();
    return launch_plan(dev, k, opt, d_out,
                       [&plan] { return implicit_gemm_model(plan); });
  };
  switch (plan.n) {
    case 1: return run.template operator()<1>();
    case 2: return run.template operator()<2>();
    default: return run.template operator()<4>();
  }
}

}  // namespace kconv::kernels
