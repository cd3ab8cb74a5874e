#include "src/kernels/general_conv.hpp"

#include <algorithm>
#include <optional>

#include "src/kernels/device_tensor.hpp"
#include "src/sim/sim.hpp"

namespace kconv::kernels {

namespace {

/// Capacity of the per-thread staging registers (validated at config time).
constexpr i64 kMaxImgUnits = 16;
constexpr i64 kMaxFltScalars = 64;

/// Algorithm 2 over its plan (`fused`: the write-back applies
/// max(0, acc + bias[f])); n == N.
template <int N>
class GeneralKernel : public GeneralPlan {
 public:
  explicit GeneralKernel(const GeneralPlan& p) : GeneralPlan(p) {}

  PlanesView in;   // (C, Hi, Wi)
  PlanesView out;  // (F, Ho, Wo)
  sim::BufferView<float> filt;  // F*C*K*K, filter-major (f, c, ky, kx)
  sim::BufferView<float> bias;  // F scalars; read only when fused

  /// Block equivalence class for trace replay (docs/MODEL.md §5b). Control
  /// flow and every predicate depend only on whether the spatial tile sits
  /// on the right edge and/or the bottom edge of the output: interior tiles
  /// have provably always-true bounds checks (Hi = Ho+K-1, and a non-last
  /// tile ends at least K-1 pixels before the image edge), while each edge
  /// flavor corresponds to exactly one sx (or sy) value, making its
  /// predication mask a constant of the class. The filter-group coordinate
  /// b.x shifts addresses only.
  u64 replay_class(sim::Dim3 b) const {
    const i64 sx = b.y % nbx;
    const i64 sy = b.y / nbx;
    const i64 nby = ceil_div(Ho, H);
    return static_cast<u64>((sx == nbx - 1 ? 1 : 0) |
                            (sy == nby - 1 ? 2 : 0));
  }

  /// Per-block buffer anchors for coroutine-free functional replay
  /// (docs/MODEL.md §5b). Every address the kernel issues is affine in the
  /// block coordinates with these anchors: image accesses are relative to
  /// the tile's top-left input pixel, output accesses to the tile's first
  /// output pixel of the block's first filter, and filter accesses to the
  /// filter group's first scalar.
  void replay_origins(sim::Dim3 b, sim::ReplayOrigins& o) const {
    const i64 sx = static_cast<i64>(b.y) % nbx;
    const i64 sy = static_cast<i64>(b.y) / nbx;
    const i64 fblk = b.x;
    o.add(in.buf, in.idx(0, sy * H, sx * W));
    o.add(out.buf, out.idx(fblk * FTB, sy * H, sx * W));
    o.add(filt, fblk * FTB * C * K * K);
    if (fused) o.add(bias, fblk * FTB);
  }

  /// One lane's GM->SM staging of both operands over the plan's decodes.
  /// `stage(c)` loads channels [c, c + CSH) and stores them to SM: the
  /// initial fill (Alg. 2 lines 4-5) and, without prefetch, the reload
  /// (ablation A1). `fetch(c)` only loads them into registers (lines 8-9)
  /// and `publish()` stores those registers (lines 17-18). The loops run
  /// the plan's padded trip counts: every lane runs the same number of
  /// iterations (inactive ones are predicated off) so warps never drift.
  /// kconv-prof scopes re-label accesses only; issue order is untouched.
  struct Stager {
    using VecN = Vec<float, N>;
    const GeneralKernel& k;
    sim::ThreadCtx& t;
    i64 tid, fblk, sx, sy;
    sim::SharedView<float> sh_img, sh_flt;
    VecN pf_img[kMaxImgUnits] = {};
    float pf_flt[kMaxFltScalars] = {};

    ImgUnit img(i64 it) const {
      return k.img_unit(tid + it * k.nthreads, sx, sy);
    }
    FltElem flt(i64 it) const {
      return k.flt_elem(tid + it * k.nthreads, fblk);
    }
    VecN load(const ImgUnit& u, i64 cbase) {
      return t.template ld_global_if<VecN>(
          u.ok, k.in.buf, u.ok ? k.in.idx(cbase + u.ci, u.iy, u.ix) : 0);
    }
    float load(const FltElem& e, i64 cbase) {
      return t.ld_global_if(e.ok, k.filt, e.gm + cbase * k.K * k.K);
    }

    void stage(i64 cbase) {
      for (i64 it = 0; it < k.img_iters; ++it) {
        const ImgUnit u = img(it);
        VecN v{};
        {
          sim::ProfilePhase phase(t, profile::Phase::GmLoad);
          v = load(u, cbase);
        }
        sim::ProfilePhase phase(t, profile::Phase::SmemStage);
        t.st_shared_if(u.ok, sh_img, u.sm, v);
      }
      for (i64 it = 0; it < k.flt_iters; ++it) {
        const FltElem e = flt(it);
        float v = 0.0f;
        {
          sim::ProfilePhase phase(t, profile::Phase::GmLoad);
          v = load(e, cbase);
        }
        sim::ProfilePhase phase(t, profile::Phase::SmemStage);
        t.st_shared_if(e.ok, sh_flt, e.sm, v);
      }
    }
    void fetch(i64 cbase) {
      sim::ProfilePhase phase(t, profile::Phase::Prefetch);
      for (i64 it = 0; it < k.img_iters; ++it) {
        pf_img[it] = load(img(it), cbase);
      }
      for (i64 it = 0; it < k.flt_iters; ++it) {
        pf_flt[it] = load(flt(it), cbase);
      }
    }
    void publish() {
      sim::ProfilePhase phase(t, profile::Phase::SmemStage);
      for (i64 it = 0; it < k.img_iters; ++it) {
        const ImgUnit u = img(it);
        t.st_shared_if(u.ok, sh_img, u.sm, pf_img[it]);
      }
      for (i64 it = 0; it < k.flt_iters; ++it) {
        const FltElem e = flt(it);
        t.st_shared_if(e.ok, sh_flt, e.sm, pf_flt[it]);
      }
    }
  };

  sim::ThreadProgram operator()(sim::ThreadCtx& t) const {
    using VecN = Vec<float, N>;
    const i64 tx = t.thread_idx.x;
    const i64 ty = t.thread_idx.y;
    const i64 fblk = t.block_idx.x;            // filter group
    const i64 sx = t.block_idx.y % nbx;        // spatial block column
    const i64 sy = t.block_idx.y / nbx;        // spatial block row
    const i64 KK = K * K;

    auto sh_img = t.shared<float>(img_off, CSH * rows_halo * stride_img);
    auto sh_flt = t.shared<float>(flt_off, CSH * KK * stride_flt);
    Stager st{*this, t, tx + TX * ty, fblk, sx, sy, sh_img, sh_flt};

    // This thread's outputs: WT contiguous pixels of one tile row.
    const i64 orow_local = (ty * WT) / W;
    const i64 ocol_local = (ty * WT) % W;

    // Algorithm 2, line 1: the register working set.
    float acc[kGeneralMaxFT][kGeneralMaxWT] = {};
    float rimg[kGeneralMaxWT + kGeneralMaxK - 1 + 4] = {};
    float rflt[kGeneralMaxFT] = {};

    // Lines 4-5: stage channels [0, CSH) straight into shared memory. This
    // initial fill is the one unavoidable load->store dependent phase.
    st.stage(0);
    co_await t.sync();  // line 6

    // Line 7: accumulate over all channels, CSH at a time.
    for (i64 c0 = 0; c0 < C; c0 += CSH) {
      const bool has_next = c0 + CSH < C;

      // Lines 10-15: K rows x K rounds per staged channel. One rImg row of
      // WT+K-1 pixels feeds K rounds — the SM-traffic reduction of §4.2.
      // The SM reads feeding registers here belong to the compute phase:
      // their per-fma ratio is exactly what the §4.2 bound constrains.
      {
        sim::ProfilePhase phase(t, profile::Phase::Compute);
        for (i64 i = 0; i < CSH; ++i) {
          for (i64 j = 0; j < K; ++j) {
            const i64 row_base =
                (i * rows_halo + orow_local + j) * stride_img + ocol_local;
            for (i64 u = 0; u * N < WT + K - 1; ++u) {
              VecN v = t.template ld_shared<VecN>(sh_img, row_base + u * N);
              for (int jj = 0; jj < N; ++jj) rimg[u * N + jj] = v[jj];
            }
            for (i64 kx = 0; kx < K; ++kx) {
              const i64 flt_base = (i * KK + j * K + kx) * stride_flt;
              for (i64 u = 0; u < FT / N; ++u) {
                VecN v = t.template ld_shared<VecN>(
                    sh_flt, flt_base + (tx + u * TX) * N);
                for (int jj = 0; jj < N; ++jj) rflt[u * N + jj] = v[jj];
              }
              t.template fma_tile<N>(acc, rimg + kx, rflt, FT, WT);
            }
          }
        }
      }
      // Lines 8-9: prefetch the next CSH channels into registers. The paper
      // issues these before the compute loop to overlap their latency; the
      // simulator's pipe-max timing captures that overlap regardless of
      // issue order, so they run after the (uniform) compute to keep warp
      // lanes aligned — same modeled cost, no spurious divergence.
      if (prefetch && has_next) st.fetch(c0 + CSH);

      co_await t.sync();  // line 16

      // Lines 17-18: publish the next channels to SM (from registers when
      // prefetching, straight from GM otherwise — ablation A1).
      if (has_next) {
        if (prefetch) {
          st.publish();
        } else {
          st.stage(c0 + CSH);
        }
      }
      co_await t.sync();  // line 19
    }

    // Line 20: write the accumulators back. Contiguous threads in X write
    // different output planes — uncoalesced by design; the paper measured
    // this phase as negligible and so left it unbuffered.
    const i64 orow = sy * H + orow_local;
    sim::ProfilePhase phase(t, profile::Phase::Writeback);
    for (i64 s = 0; s < FT; ++s) {
      const i64 gf = fblk * FTB + (tx + (s / N) * TX) * N + (s % N);
      // gf < (fblk+1)*FTB <= F always, so the fused bias load needs no
      // predicate; `fused` is launch-uniform, so lanes never diverge here.
      float bv = 0.0f;
      if (fused) bv = t.ld_global(bias, gf);
      for (i64 wu = 0; wu * N < WT; ++wu) {
        const i64 ocol = sx * W + ocol_local + wu * N;
        const bool ok = orow < Ho && ocol < Wo;
        VecN v;
        for (int jj = 0; jj < N; ++jj) v[jj] = acc[s][wu * N + jj];
        if (fused) v = t.bias_relu(v, bv);
        t.st_global_if(ok, out.buf, ok ? out.idx(gf, orow, ocol) : 0, v);
      }
    }
  }
};

}  // namespace

GeneralPlan plan_general(const sim::Arch& arch, i64 K, i64 C, i64 F, i64 Hi,
                         i64 Wi, const GeneralConvConfig& cfg, bool fused) {
  GeneralPlan p;
  const auto fail = [&p](std::string why) {
    p.error = std::move(why);
    return p;
  };
  if (K < 1 || K > kGeneralMaxK) {
    return fail(strf("filter size %lld outside supported range [1, %lld]",
                     static_cast<long long>(K),
                     static_cast<long long>(kGeneralMaxK)));
  }
  if (!p.init(arch, K, C, F, Hi, Wi, fused, cfg.vec_width, 4, 4)) return p;
  const i64 n = p.n;
  if (cfg.ftb < 1 || F % cfg.ftb != 0) {
    return fail(strf("F=%lld must be a multiple of FTB=%lld",
                     static_cast<long long>(F),
                     static_cast<long long>(cfg.ftb)));
  }
  if (cfg.csh < 1 || C % cfg.csh != 0) {
    return fail(strf("C=%lld must be a multiple of CSH=%lld",
                     static_cast<long long>(C),
                     static_cast<long long>(cfg.csh)));
  }
  if (cfg.ft < 1 || cfg.ftb % cfg.ft != 0) {
    return fail("FTB must be a multiple of FT");
  }
  if (cfg.wt < 1 || cfg.wt > kGeneralMaxWT || cfg.ft > kGeneralMaxFT) {
    return fail("WT/FT exceed the kernel's register capacity");
  }
  if (cfg.block_w % cfg.wt != 0) {
    return fail("block_w must be a multiple of WT (threads tile whole rows)");
  }
  if ((cfg.block_w * cfg.block_h) % cfg.wt != 0) {
    return fail("block area must be a multiple of WT");
  }
  if (cfg.wt % n != 0 || cfg.ft % n != 0 || cfg.ftb % n != 0 ||
      cfg.block_w % n != 0) {
    return fail(
        "WT, FT, FTB and block_w must be multiples of the vector width");
  }
  if (cfg.block_w % 4 != 0) return fail("block_w must be a multiple of 4");

  p.W = cfg.block_w;
  p.H = cfg.block_h;
  p.FTB = cfg.ftb;
  p.WT = cfg.wt;
  p.FT = cfg.ft;
  p.CSH = cfg.csh;
  p.prefetch = cfg.prefetch;
  p.TX = cfg.ftb / cfg.ft;
  p.TY = cfg.block_w * cfg.block_h / cfg.wt;
  p.nthreads = p.TX * p.TY;
  p.nbx = ceil_div(p.Wo, cfg.block_w);
  p.rows_halo = cfg.block_h + K - 1;
  p.cols_halo = cfg.block_w + K - 1;
  p.units_per_row = ceil_div(p.cols_halo, n);
  p.total_img_units = cfg.csh * p.rows_halo * p.units_per_row;
  p.total_flt = cfg.csh * K * K * cfg.ftb;
  p.img_iters = ceil_div(p.total_img_units, p.nthreads);
  p.flt_iters = ceil_div(p.total_flt, p.nthreads);
  if (p.img_iters > kMaxImgUnits || p.flt_iters > kMaxFltScalars) {
    return fail(strf("staging work per thread too large (%lld image units, "
                     "%lld filter values); use more threads or smaller CSH",
                     static_cast<long long>(p.img_iters),
                     static_cast<long long>(p.flt_iters)));
  }
  // Filters, then the bias only when fused, so unfused launches keep their
  // exact historic address layout (and thus timing/plan bytes).
  p.place(sizeof(float), /*const_filters=*/false);

  sim::SharedLayout smem;
  p.stride_img = round_up(p.cols_halo + n, 4);
  // One bank word of padding keeps the transposing filter stores
  // conflict-free (the paper's Fig. 6 gray box). The stride stays a
  // multiple of n so every n-wide filter vector read stays aligned.
  const i64 pad = cfg.pad_filters ? arch.smem_bank_bytes / sizeof(float) : 0;
  p.stride_flt = round_up(cfg.ftb + pad, n);
  p.img_off = smem.alloc<float>(cfg.csh * p.rows_halo * p.stride_img);
  p.flt_off = smem.alloc<float>(cfg.csh * K * K * p.stride_flt);
  const i64 nby = ceil_div(p.Ho, cfg.block_h);
  p.lc.grid = sim::Dim3{static_cast<u32>(F / cfg.ftb),
                        static_cast<u32>(p.nbx * nby), 1};
  p.lc.block = sim::Dim3{static_cast<u32>(p.TX), static_cast<u32>(p.TY), 1};
  p.lc.shared_bytes = smem.size();
  p.lc.regs_per_thread = static_cast<u32>(std::min<i64>(
      cfg.ft * cfg.wt + (cfg.wt + K - 1) + cfg.ft + p.img_iters * n +
          p.flt_iters + 24,
      arch.max_regs_per_thread));

  // Every parameter that shapes the access pattern is folded into the plan
  // key; the "v1" tag invalidates stored plans if the kernel body changes.
  p.key = strf(
      "general_conv|v1|n=%d|k=%lld|c=%lld|f=%lld|hi=%lld|wi=%lld|bw=%lld|"
      "bh=%lld|ftb=%lld|wt=%lld|ft=%lld|csh=%lld|pad=%d|pf=%d",
      static_cast<int>(n), static_cast<long long>(K),
      static_cast<long long>(C), static_cast<long long>(F),
      static_cast<long long>(Hi), static_cast<long long>(Wi),
      static_cast<long long>(cfg.block_w),
      static_cast<long long>(cfg.block_h), static_cast<long long>(cfg.ftb),
      static_cast<long long>(cfg.wt), static_cast<long long>(cfg.ft),
      static_cast<long long>(cfg.csh), cfg.pad_filters ? 1 : 0,
      cfg.prefetch ? 1 : 0);
  // Appended (not always present) so unfused keys match pre-fusion stores.
  if (fused) p.key += "|fused=br";

  // Shard geometry for the fleet layer (docs/MODEL.md §9): grid.x walks
  // filter groups (channel axis), grid.y folds nbx column tiles under each
  // output-row group (spatial axis, minor = nbx).
  const u64 fs = sizeof(float);
  p.fleet.provided = true;
  p.fleet.channel_axis = 0;
  p.fleet.spatial_axis = 1;
  p.fleet.spatial_minor = static_cast<u32>(p.nbx);
  p.fleet.input_bytes = fs * static_cast<u64>(C * Hi * Wi);
  p.fleet.filter_bytes = fs * static_cast<u64>(C * K * K * F);
  p.fleet.output_bytes = fs * static_cast<u64>(F * p.Ho * p.Wo);
  p.fleet.halo_bytes_per_cut = fs * static_cast<u64>(C * (K - 1) * Wi);

  // Paper §4 bounds: each filter group re-reads the image once (the ~1/K
  // GM reduction leaves grid.x passes, halo excluded from the bound), each
  // spatial block reads its filter group once — and, fused, its FTB bias
  // scalars — and each output is written once; the compute phase needs
  // (WT+K-1)/(K*FT*WT) image + 1/WT filter SM loads per FMA.
  const double fd = static_cast<double>(fs);
  p.hints.kind = profile::RooflineHints::Kind::General;
  p.hints.k = static_cast<u32>(K);
  p.hints.wt = static_cast<u32>(cfg.wt);
  p.hints.ft = static_cast<u32>(cfg.ft);
  p.hints.gm_load_bound_bytes =
      fd * static_cast<double>(C * Hi * Wi) * static_cast<double>(p.lc.grid.x) +
      fd * static_cast<double>(C * K * K * F) *
          static_cast<double>(nby * p.nbx);
  if (fused) {
    p.hints.gm_load_bound_bytes +=
        fd * static_cast<double>(F) * static_cast<double>(nby * p.nbx);
  }
  p.hints.smem_load_elems_per_fma_bound =
      static_cast<double>(cfg.wt + K - 1) /
          static_cast<double>(K * cfg.ft * cfg.wt) +
      1.0 / static_cast<double>(cfg.wt);
  p.out_bytes = fd * static_cast<double>(F) * static_cast<double>(p.Ho) *
                static_cast<double>(p.Wo);
  p.error = sim::launch_feasibility_error(arch, p.lc);
  return p;
}

std::string general_conv_check(const sim::Arch& arch, i64 k, i64 c, i64 f,
                               i64 hi, i64 wi, const GeneralConvConfig& cfg) {
  return plan_general(arch, k, c, f, hi, wi, cfg).error;
}

GeneralConvConfig table1_config(i64 k) {
  GeneralConvConfig c;
  switch (k) {
    case 3:
      c.block_w = 32; c.block_h = 4; c.ftb = 64; c.wt = 16; c.ft = 4;
      c.csh = 2;
      break;
    case 5:
      c.block_w = 32; c.block_h = 8; c.ftb = 32; c.wt = 8; c.ft = 8;
      c.csh = 1;
      break;
    case 7:
      c.block_w = 64; c.block_h = 4; c.ftb = 32; c.wt = 8; c.ft = 8;
      c.csh = 1;
      break;
    default:
      KCONV_CHECK(false, strf("no Table 1 configuration for K=%lld",
                              static_cast<long long>(k)));
  }
  return c;
}

namespace {

/// Algorithm 2's xray describer over its plan.
xray::KernelModel general_model(const GeneralPlan& p) {
  xray::KernelModel m;
  m.kernel = "general_conv";
  m.cfg = p.lc;
  m.min_gm_bytes = p.min_gm_bytes();

  enum Site : u32 {
    kGmImgStage, kSmImgStage, kGmFltStage, kSmFltStage,
    kSmImgRow, kSmFltCompute,
    kGmImgNext, kGmFltNext, kSmImgPublish, kSmFltPublish,
    kGmWriteback,
    kGmBias,  // only declared when fused
  };
  m.sites = {
      {"gm-img-stage", sim::Op::LoadGlobal, "§4.1 Alg. 2 line 4", false},
      {"sm-img-stage", sim::Op::StoreShared, "§4.1 Alg. 2 line 5", false},
      {"gm-flt-stage", sim::Op::LoadGlobal, "§4.2 Alg. 2 line 4", false},
      {"sm-flt-stage", sim::Op::StoreShared, "§4.2 Fig. 6", false},
      {"sm-img-row", sim::Op::LoadShared, "§4.2 Alg. 2 line 11", false},
      {"sm-flt-compute", sim::Op::LoadShared, "§4.2 Alg. 2 line 12", false},
      {"gm-img-next", sim::Op::LoadGlobal, "§4.1 Alg. 2 lines 8/17", false},
      {"gm-flt-next", sim::Op::LoadGlobal, "§4.2 Alg. 2 lines 9/17", false},
      {"sm-img-publish", sim::Op::StoreShared, "§4.1 Alg. 2 line 17", false},
      {"sm-flt-publish", sim::Op::StoreShared, "§4.2 Fig. 6", false},
      {"gm-writeback", sim::Op::StoreGlobal, "§4 Alg. 2 line 20", false},
  };
  if (p.fused) {
    m.sites.push_back({"gm-bias", sim::Op::LoadGlobal,
                       "§4 Alg. 2 line 20 (fused epilogue)", false});
  }

  m.emit = [p](sim::Dim3 b, xray::ModelSink& sink) {
    constexpr u32 kNone = ~0u;
    const u32 vb = static_cast<u32>(p.n * sizeof(float));
    const u32 sb = static_cast<u32>(sizeof(float));
    const i64 fblk = b.x;
    const i64 sx = static_cast<i64>(b.y) % p.nbx;
    const i64 sy = static_cast<i64>(b.y) / p.nbx;
    const i64 KK = p.K * p.K;
    const auto sm_img = [&p](i64 idx) {
      return p.img_off + static_cast<u64>(idx) * sizeof(float);
    };
    const auto sm_flt = [&p](i64 idx) {
      return p.flt_off + static_cast<u64>(idx) * sizeof(float);
    };
    std::vector<xray::LaneAccess> lanes(static_cast<size_t>(p.nthreads));
    const auto each = [&](auto&& fill) {
      for (i64 t = 0; t < p.nthreads; ++t) {
        lanes[static_cast<size_t>(t)] = fill(t % p.TX, t / p.TX);
      }
    };

    // Lines 4-5 / 8-9 / 17-18: the cooperative staging loops over the
    // kernel's own decodes, emitted for channel base `cbase` with either or
    // both of their GM-load and SM-store halves (prefetch splits them across
    // a barrier). The filter loop's in-range predicate is block-invariant.
    const auto img_stage = [&](i64 cbase, u32 gm_site, u32 sm_site) {
      for (i64 it = 0; it < p.img_iters; ++it) {
        const auto unit = [&](i64 tx, i64 ty) {
          return p.img_unit((tx + p.TX * ty) + it * p.nthreads, sx, sy);
        };
        if (gm_site != kNone) {
          each([&](i64 tx, i64 ty) -> xray::LaneAccess {
            const GeneralPlan::ImgUnit u = unit(tx, ty);
            return {u.ok ? p.in_addr(cbase + u.ci, u.iy, u.ix) : 0, vb, u.ok,
                    u.any};
          });
          sink.site(gm_site, lanes);
        }
        if (sm_site != kNone) {
          each([&](i64 tx, i64 ty) -> xray::LaneAccess {
            const GeneralPlan::ImgUnit u = unit(tx, ty);
            return {sm_img(u.sm), vb, u.ok, u.any};
          });
          sink.site(sm_site, lanes);
        }
      }
    };
    const auto flt_stage = [&](i64 cbase, u32 gm_site, u32 sm_site) {
      for (i64 it = 0; it < p.flt_iters; ++it) {
        const auto elem = [&](i64 tx, i64 ty) {
          return p.flt_elem((tx + p.TX * ty) + it * p.nthreads, fblk);
        };
        if (gm_site != kNone) {
          each([&](i64 tx, i64 ty) -> xray::LaneAccess {
            const GeneralPlan::FltElem e = elem(tx, ty);
            return {e.ok ? p.filt_addr(e.gm + cbase * KK) : 0, sb, e.ok, e.ok};
          });
          sink.site(gm_site, lanes);
        }
        if (sm_site != kNone) {
          each([&](i64 tx, i64 ty) -> xray::LaneAccess {
            const GeneralPlan::FltElem e = elem(tx, ty);
            return {sm_flt(e.sm), sb, e.ok, e.ok};
          });
          sink.site(sm_site, lanes);
        }
      }
    };

    // Lines 4-6: the initial fill.
    img_stage(0, kGmImgStage, kSmImgStage);
    flt_stage(0, kGmFltStage, kSmFltStage);
    sink.sync();

    // Line 7: the channel loop.
    for (i64 c0 = 0; c0 < p.C; c0 += p.CSH) {
      const bool has_next = c0 + p.CSH < p.C;

      // Lines 10-15: compute. All addresses are block-invariant; TX
      // consecutive threads broadcast image rows and stride filter units.
      for (i64 i = 0; i < p.CSH; ++i) {
        for (i64 j = 0; j < p.K; ++j) {
          for (i64 u = 0; u * p.n < p.WT + p.K - 1; ++u) {
            each([&](i64, i64 ty) -> xray::LaneAccess {
              const i64 orow_local = (ty * p.WT) / p.W;
              const i64 ocol_local = (ty * p.WT) % p.W;
              return {sm_img((i * p.rows_halo + orow_local + j) *
                                 p.stride_img + ocol_local + u * p.n),
                      vb, true, true};
            });
            sink.site(kSmImgRow, lanes);
          }
          for (i64 kx = 0; kx < p.K; ++kx) {
            for (i64 u = 0; u < p.FT / p.n; ++u) {
              each([&](i64 tx, i64) -> xray::LaneAccess {
                return {sm_flt((i * KK + j * p.K + kx) * p.stride_flt +
                               (tx + u * p.TX) * p.n),
                        vb, true, true};
              });
              sink.site(kSmFltCompute, lanes);
            }
            sink.fma(static_cast<u64>(p.FT * p.WT));
          }
        }
      }

      // Lines 8-9: prefetch the next channels into registers.
      if (p.prefetch && has_next) {
        img_stage(c0 + p.CSH, kGmImgNext, kNone);
        flt_stage(c0 + p.CSH, kGmFltNext, kNone);
      }
      sink.sync();  // line 16
      // Lines 17-18: publish (from registers, or straight from GM — A1).
      if (has_next) {
        if (p.prefetch) {
          img_stage(c0 + p.CSH, kNone, kSmImgPublish);
          flt_stage(c0 + p.CSH, kNone, kSmFltPublish);
        } else {
          img_stage(c0 + p.CSH, kGmImgNext, kSmImgPublish);
          flt_stage(c0 + p.CSH, kGmFltNext, kSmFltPublish);
        }
      }
      sink.sync();  // line 19
    }

    // Line 20: write-back — contiguous threads in X hit different output
    // planes, uncoalesced by design.
    for (i64 s = 0; s < p.FT; ++s) {
      const auto gf_of = [&](i64 tx) {
        return fblk * p.FTB + (tx + (s / p.n) * p.TX) * p.n + s % p.n;
      };
      if (p.fused) {
        each([&](i64 tx, i64) -> xray::LaneAccess {
          return {p.bias_addr(gf_of(tx)), sb, true, true};
        });
        sink.site(kGmBias, lanes);
      }
      for (i64 wu = 0; wu * p.n < p.WT; ++wu) {
        if (p.fused) sink.alu(static_cast<u64>(2 * p.n));
        each([&](i64 tx, i64 ty) -> xray::LaneAccess {
          const i64 orow = sy * p.H + (ty * p.WT) / p.W;
          const i64 ocol = sx * p.W + (ty * p.WT) % p.W + wu * p.n;
          const bool ok = orow < p.Ho && ocol < p.Wo;
          return {ok ? p.out_addr(gf_of(tx), orow, ocol) : 0, vb, ok, true};
        });
        sink.site(kGmWriteback, lanes);
      }
    }
  };
  return m;
}

}  // namespace

xray::KernelModel general_conv_xray(const sim::Arch& arch, i64 k, i64 c,
                                    i64 f, i64 hi, i64 wi,
                                    const GeneralConvConfig& cfg, bool fused) {
  const GeneralPlan plan = plan_general(arch, k, c, f, hi, wi, cfg, fused);
  KCONV_CHECK(plan.error.empty(), plan.error);
  return general_model(plan);
}

KernelRun general_conv(sim::Device& dev, const tensor::Tensor& input,
                       const tensor::Tensor& filters,
                       const GeneralConvConfig& cfg,
                       const sim::LaunchOptions& opt,
                       std::span<const float> fuse_bias_relu) {
  KCONV_CHECK(input.n() == 1, "general case operates on a single image");
  KCONV_CHECK(filters.c() == input.c(), "channel mismatch");
  KCONV_CHECK(filters.h() == filters.w(), "non-square filters unsupported");
  KCONV_CHECK(fuse_bias_relu.empty() ||
                  static_cast<i64>(fuse_bias_relu.size()) == filters.n(),
              strf("fused bias has %zu entries for %lld filters",
                   fuse_bias_relu.size(),
                   static_cast<long long>(filters.n())));

  const GeneralPlan plan =
      plan_general(dev.arch(), filters.h(), input.c(), filters.n(), input.h(),
                   input.w(), cfg, !fuse_bias_relu.empty());
  KCONV_CHECK(plan.error.empty(), plan.error);
  const auto run = [&]<int N>() {
    DevicePlanes d_in(dev, plan.C, plan.Hi, plan.Wi);
    d_in.upload(input);
    DevicePlanes d_out(dev, plan.F, plan.Ho, plan.Wo);
    const auto flat = flatten_filters(filters);
    auto d_filt = dev.alloc<float>(std::span<const float>(flat));
    GeneralKernel<N> k(plan);
    k.in = d_in.view();
    k.out = d_out.view();
    k.filt = d_filt.view();
    std::optional<sim::DeviceArray<float>> d_bias;
    if (plan.fused) {
      d_bias.emplace(dev.alloc<float>(fuse_bias_relu));
      k.bias = d_bias->view();
    }
    return launch_plan(dev, k, opt, d_out,
                       [&plan] { return general_model(plan); });
  };
  switch (plan.n) {
    case 1: return run.template operator()<1>();
    case 2: return run.template operator()<2>();
    default: return run.template operator()<4>();
  }
}

}  // namespace kconv::kernels
