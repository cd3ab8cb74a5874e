#include "src/kernels/implicit_gemm_conv.hpp"

#include <algorithm>

#include "src/kernels/device_tensor.hpp"
#include "src/kernels/detail/tiled_gemm.hpp"

namespace kconv::kernels {

namespace {

/// The implicit GEMM's operands: the filter bank as A, the image read
/// through the im2col decode as B, and the output planes as C.
struct Im2colOperands : ImplicitGemmPlan {
  PlanesView in;                // (C, Hi, Wi)
  PlanesView out;               // (F, Ho, Wo)
  sim::BufferView<float> filt;  // F*C*K*K filter-major

  float load_a(sim::ThreadCtx& t, const Elem& e) const {
    return t.ld_global_if(e.ok, filt, e.row * Kdim + e.col);
  }
  float load_b(sim::ThreadCtx& t, const Elem& e) const {
    t.alu(12);  // im2col decode: div/mod emulation + bounds checks
    const Pixel px = im2col(e.row, e.col);
    return t.ld_global_if(e.ok, in.buf, e.ok ? in.idx(px.c, px.y, px.x) : 0);
  }
  /// Rows are filters, so this is the uncoalesced-by-nature scatter shared
  /// with the paper's general kernel.
  void store_c(sim::ThreadCtx& t, bool ok, i64 row, i64 col, float v) const {
    t.alu(2);
    t.st_global_if(ok, out.buf, ok ? out.idx(row, col / Wo, col % Wo) : 0, v);
  }
};

/// The tiled GEMM over its plan; n == N.
template <int N>
class ImplicitGemmKernel : public detail::TiledGemm<N, Im2colOperands> {
 public:
  using detail::TiledGemm<N, Im2colOperands>::TiledGemm;

  /// Block equivalence class for trace replay (docs/MODEL.md §5b). The
  /// only block-dependent predicates are the partial-tile guards
  /// `m0 + m < F` and `p0 + col < Ho*Wo`: full tiles have them always
  /// true, and each partial flavor matches exactly one b.y (resp. b.x), so
  /// its masks are constants of the class. The im2col div/mod addressing
  /// is non-affine in p0, but replay re-analyzes addresses per block anyway.
  u64 replay_class(sim::Dim3 b) const {
    const i64 bx = b.x, by = b.y;
    const bool partial_n = (bx + 1) * this->BN > this->Ncols;
    const bool partial_m = (by + 1) * this->BM > this->F;
    return (partial_n ? 1u : 0u) | (partial_m ? 2u : 0u);
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
  const GemmConfig tiles{.bm = cfg.bm, .bn = cfg.bn, .bk = cfg.bk,
                         .tm = cfg.tm, .tn = cfg.tn, .prefetch = cfg.prefetch};
  const std::string tiling = p.tile(arch, f, p.Ho * p.Wo, c * k * k, tiles,
                                    p.n);
  if (!tiling.empty()) return fail(tiling);
  p.place(sizeof(float), /*const_filters=*/false);
  p.lc = p.launch_config(arch, 24);

  p.key = strf(
      "implicit_gemm|v1|n=%d|k=%lld|c=%lld|f=%lld|hi=%lld|wi=%lld|bm=%lld|"
      "bn=%lld|bk=%lld|tm=%lld|tn=%lld|pf=%d",
      static_cast<int>(p.n), static_cast<long long>(k),
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
            static_cast<double>(p.Kdim * p.Ncols) *
                static_cast<double>(p.lc.grid.y));
  p.out_bytes = fs * static_cast<double>(f) * static_cast<double>(p.Ncols);
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

    // The panel staging loops for K-slab base `kbase` over the kernel's
    // own decodes: GM-load and/or SM-store halves (prefetch splits them
    // across a barrier). The SM stores' predicate is the block-invariant
    // `e < elems`: out-of-range elements stage zeros.
    const auto a_stage = [&](i64 kbase, u32 gm_site, u32 sm_site) {
      for (i64 it = 0; it < p.a_iters; ++it) {
        if (gm_site != kNone) {
          each([&](i64 t) -> xray::LaneAccess {
            const GemmTiling::Elem e = p.a_elem(t + it * p.nthreads, m0, kbase);
            return {e.ok ? p.filt_addr(e.row * p.Kdim + e.col) : 0, sb, e.ok,
                    e.ok};
          });
          sink.site(gm_site, lanes);
        }
        if (sm_site != kNone) {
          each([&](i64 t) -> xray::LaneAccess {
            const GemmTiling::Elem e = p.a_elem(t + it * p.nthreads, m0, 0);
            return {sm_a(e.sm), sb, e.any, e.any};
          });
          sink.site(sm_site, lanes);
        }
      }
    };
    // Each B GM iteration spends 12 uniform ALU lane-ops on the im2col
    // div/mod decode before the load issues.
    const auto b_stage = [&](i64 kbase, u32 gm_site, u32 sm_site) {
      for (i64 it = 0; it < p.b_iters; ++it) {
        if (gm_site != kNone) {
          sink.alu(12);
          each([&](i64 t) -> xray::LaneAccess {
            const GemmTiling::Elem e = p.b_elem(t + it * p.nthreads, p0, kbase);
            const ImplicitGemmPlan::Pixel px = p.im2col(e.row, e.col);
            return {e.ok ? p.in_addr(px.c, px.y, px.x) : 0, sb, e.ok, e.ok};
          });
          sink.site(gm_site, lanes);
        }
        if (sm_site != kNone) {
          each([&](i64 t) -> xray::LaneAccess {
            const GemmTiling::Elem e = p.b_elem(t + it * p.nthreads, p0, 0);
            return {sm_b(e.sm), sb, e.any, e.any};
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
          const bool ok = ff < p.F && pp < p.Ncols;
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
    const ImplicitGemmKernel<N> k(
        Im2colOperands{plan, d_in.view(), d_out.view(), d_filt.view()});
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
