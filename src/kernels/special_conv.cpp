#include "src/kernels/special_conv.hpp"

#include <algorithm>

#include "src/kernels/detail/special_kernel.hpp"

namespace kconv::kernels {

SpecialPlan plan_special(const sim::Arch& arch, i64 k, i64 f, i64 hi, i64 wi,
                         const SpecialConvConfig& cfg, bool fused,
                         std::optional<DType> short_dtype) {
  SpecialPlan p;
  const auto fail = [&p](std::string why) {
    p.error = std::move(why);
    return p;
  };
  if (k < 1 || k > kSpecialMaxK) {
    return fail(strf("filter size %lld outside supported range [1, %lld]",
                     static_cast<long long>(k),
                     static_cast<long long>(kSpecialMaxK)));
  }
  const i64 fs = sizeof(float);
  const i64 elem =
      short_dtype ? static_cast<i64>(dtype_size(*short_dtype)) : fs;
  if (!p.init(arch, k, 1, f, hi, wi, fused, cfg.vec_width, elem,
              short_dtype ? 8 : 4)) {
    return p;
  }
  const i64 n = p.n;
  if (cfg.block_w < 4 || cfg.block_w % 4 != 0) {
    return fail("block_w must be a positive multiple of 4");
  }
  if (cfg.block_w % n != 0) {
    return fail("block_w must be a multiple of the vector width");
  }
  if (cfg.block_h < 1) return fail("block_h must be positive");
  const i64 cm_bytes = (f * k * k + (fused ? f : 0)) * fs;
  if (cm_bytes > arch.const_capacity) {
    return fail(strf("filters%s need %lld B of constant memory (capacity %u)",
                     fused ? " + fused bias" : "",
                     static_cast<long long>(cm_bytes), arch.const_capacity));
  }

  const i64 Ho = p.Ho, Wo = p.Wo;
  p.W = cfg.block_w;
  p.H = cfg.block_h;
  p.nthreads = p.W / n;
  p.n_tail = ceil_div(k - 1, n);
  p.rows_wcols = round_up(k + n - 1, n);
  p.place(elem, /*const_filters=*/true);

  sim::SharedLayout smem;
  p.sh_stride = round_up(p.W + k + n, 16);
  p.sh_off = smem.alloc<u8>(k * p.sh_stride * elem);
  p.lc.grid = sim::Dim3{static_cast<u32>(ceil_div(Wo, p.W)),
                        static_cast<u32>(ceil_div(Ho, p.H)), 1};
  p.lc.block = sim::Dim3{static_cast<u32>(p.nthreads), 1, 1};
  p.lc.shared_bytes = smem.size();
  // Window + accumulator + prefetch registers plus bookkeeping, mirroring
  // what nvcc would allocate for Algorithm 1.
  p.lc.regs_per_thread = static_cast<u32>(
      std::min<i64>(k * (k + n - 1) + 3 * n + 12, arch.max_regs_per_thread));

  if (short_dtype) {
    p.key = strf(
        "short_dtype|v1|dt=%d|n=%d|k=%lld|f=%lld|hi=%lld|wi=%lld|bw=%lld|"
        "bh=%lld",
        static_cast<int>(*short_dtype), static_cast<int>(n),
        static_cast<long long>(k), static_cast<long long>(f),
        static_cast<long long>(hi), static_cast<long long>(wi),
        static_cast<long long>(p.W), static_cast<long long>(p.H));
  } else {
    p.key = strf(
        "special_conv|v1|n=%d|k=%lld|f=%lld|hi=%lld|wi=%lld|bw=%lld|bh=%lld",
        static_cast<int>(n), static_cast<long long>(k),
        static_cast<long long>(f), static_cast<long long>(hi),
        static_cast<long long>(wi), static_cast<long long>(p.W),
        static_cast<long long>(p.H));
    // Appended (not always present) so unfused keys match pre-fusion stores.
    if (fused) p.key += "|fused=br";
  }

  // Shard geometry for the fleet layer (docs/MODEL.md §9). The grid is
  // (col-tiles, row-tiles): output rows shard along y with no folded minor
  // axis. There is no filter-group grid axis — the kernel loops F
  // internally — so channel sharding stays undeclared.
  p.fleet.provided = true;
  p.fleet.spatial_axis = 1;
  p.fleet.spatial_minor = 1;
  p.fleet.input_bytes = static_cast<u64>(elem * hi * wi);
  p.fleet.filter_bytes = static_cast<u64>(fs * f * k * k);
  p.fleet.output_bytes = static_cast<u64>(elem * f * Ho * Wo);
  p.fleet.halo_bytes_per_cut = static_cast<u64>(elem * (k - 1) * wi);

  // Paper §3: each input pixel is read from GM exactly once, modulo the
  // tile halo, and each output written once; filters (and the fused bias)
  // live in constant memory and never touch GM.
  p.hints.kind = profile::RooflineHints::Kind::Special;
  p.hints.k = static_cast<u32>(k);
  p.hints.gm_load_bound_bytes =
      static_cast<double>(elem) * static_cast<double>(hi * wi);
  p.out_bytes = static_cast<double>(elem) * static_cast<double>(f) *
                static_cast<double>(Ho) * static_cast<double>(Wo);
  p.error = sim::launch_feasibility_error(arch, p.lc);
  return p;
}

std::string special_conv_check(const sim::Arch& arch, i64 k, i64 f, i64 hi,
                               i64 wi, const SpecialConvConfig& cfg,
                               bool fused) {
  return plan_special(arch, k, f, hi, wi, cfg, fused).error;
}

namespace {

/// Algorithm 1's xray describer over its plan (fp32 storage).
xray::KernelModel special_model(const SpecialPlan& p) {
  xray::KernelModel m;
  m.kernel = "special_conv";
  m.cfg = p.lc;
  m.min_gm_bytes = p.min_gm_bytes();

  enum Site : u32 {
    kGmStageMain, kSmStageMain, kGmStageTail, kSmStageTail,
    kSmWindow, kSmRow, kConstFilter, kGmWriteback,
    kGmPrefetchMain, kGmPrefetchTail, kSmPublishMain, kSmPublishTail,
    kConstBias,  // only declared when fused
  };
  m.sites = {
      {"gm-stage-main", sim::Op::LoadGlobal, "§3.1 Alg. 1 line 1", false},
      {"sm-stage-main", sim::Op::StoreShared, "§3.1 Alg. 1 line 1", false},
      {"gm-stage-tail", sim::Op::LoadGlobal, "§3.1 Alg. 1 line 1", false},
      {"sm-stage-tail", sim::Op::StoreShared, "§3.1 Alg. 1 line 1", false},
      {"sm-window", sim::Op::LoadShared, "§3.1 Alg. 1 line 3 / §2.1", false},
      {"sm-row", sim::Op::LoadShared, "§3.1 Alg. 1 line 6 / §2.1", false},
      {"const-filter", sim::Op::LoadConst, "§3.3", false},
      {"gm-writeback", sim::Op::StoreGlobal, "§3.2 Alg. 1 line 8", false},
      {"gm-prefetch-main", sim::Op::LoadGlobal, "§3.1 Alg. 1 line 5", false},
      {"gm-prefetch-tail", sim::Op::LoadGlobal, "§3.1 Alg. 1 line 5", false},
      {"sm-publish-main", sim::Op::StoreShared, "§3.1 Alg. 1 line 10", false},
      {"sm-publish-tail", sim::Op::StoreShared, "§3.1 Alg. 1 line 10", false},
  };
  if (p.fused) {
    m.sites.push_back({"const-bias", sim::Op::LoadConst, "§3.3", false});
  }

  m.emit = [p](sim::Dim3 b, xray::ModelSink& sink) {
    const u32 vb = static_cast<u32>(p.n * sizeof(float));
    const i64 bx = b.x, by = b.y;
    const i64 row0 = by * p.H;
    const i64 rows = std::min<i64>(p.H, p.Ho - row0);
    const auto sm_addr = [&p](i64 idx) {
      return p.sh_off + static_cast<u64>(idx * sizeof(float));
    };
    std::vector<xray::LaneAccess> lanes(static_cast<size_t>(p.nthreads));
    const auto each = [&](auto&& fill) {
      for (i64 t = 0; t < p.nthreads; ++t) {
        lanes[static_cast<size_t>(t)] = fill(t);
      }
    };

    // Algorithm 1, line 1: stage the first K rows.
    for (i64 r = 0; r < p.K; ++r) {
      const i64 ir = row0 + r;
      each([&](i64 t) -> xray::LaneAccess {
        const i64 col0 = bx * p.W + t * p.n;
        const bool ok = col0 < p.Wi;
        return {ok ? p.in_addr(0, ir, col0) : 0, vb, ok, true};
      });
      sink.site(kGmStageMain, lanes);
      each([&](i64 t) -> xray::LaneAccess {
        const bool ok = bx * p.W + t * p.n < p.Wi;
        return {sm_addr(r * p.sh_stride + t * p.n), vb, ok, true};
      });
      sink.site(kSmStageMain, lanes);
      each([&](i64 t) -> xray::LaneAccess {
        const i64 tc = bx * p.W + p.W + t * p.n;
        const bool ok = t < p.n_tail && tc < p.Wi;
        return {ok ? p.in_addr(0, ir, tc) : 0, vb, ok, t < p.n_tail};
      });
      sink.site(kGmStageTail, lanes);
      each([&](i64 t) -> xray::LaneAccess {
        const bool ok = t < p.n_tail && bx * p.W + p.W + t * p.n < p.Wi;
        return {sm_addr(r * p.sh_stride + p.W + t * p.n), vb, ok,
                t < p.n_tail};
      });
      sink.site(kSmStageTail, lanes);
    }
    sink.sync();

    // Line 3: first K-1 rows into the register window.
    for (i64 r = 0; r + 1 < p.K; ++r) {
      for (i64 i = 0; i < p.rows_wcols; i += p.n) {
        each([&](i64 t) -> xray::LaneAccess {
          return {sm_addr(r * p.sh_stride + t * p.n + i), vb, true, true};
        });
        sink.site(kSmWindow, lanes);
      }
    }

    // Lines 4-11: one output row per iteration.
    for (i64 rr = 0; rr < rows; ++rr) {
      const i64 orow = row0 + rr;
      const i64 slot = (rr + p.K - 1) % p.K;
      for (i64 i = 0; i < p.rows_wcols; i += p.n) {
        each([&](i64 t) -> xray::LaneAccess {
          return {sm_addr(slot * p.sh_stride + t * p.n + i), vb, true, true};
        });
        sink.site(kSmRow, lanes);
      }
      for (i64 ff = 0; ff < p.F; ++ff) {
        for (i64 e = 0; e < p.K * p.K; ++e) {
          each([&](i64) -> xray::LaneAccess {
            return {p.filt_addr(ff * p.K * p.K + e), sizeof(float), true,
                    true};
          });
          sink.site(kConstFilter, lanes);
        }
        sink.fma(static_cast<u64>(p.K * p.K * p.n));
        if (p.fused) {
          each([&](i64) -> xray::LaneAccess {
            return {p.bias_addr(ff), sizeof(float), true, true};
          });
          sink.site(kConstBias, lanes);
          sink.alu(static_cast<u64>(2 * p.n));
        }
        each([&](i64 t) -> xray::LaneAccess {
          const i64 col0 = bx * p.W + t * p.n;
          const bool ok = col0 < p.Wo;
          return {ok ? p.out_addr(ff, orow, col0) : 0, vb, ok, true};
        });
        sink.site(kGmWriteback, lanes);
      }
      const bool pf = rr + 1 < rows;
      const i64 ir = row0 + rr + p.K;
      each([&](i64 t) -> xray::LaneAccess {
        const i64 col0 = bx * p.W + t * p.n;
        const bool ok = pf && col0 < p.Wi;
        return {ok ? p.in_addr(0, ir, col0) : 0, vb, ok, true};
      });
      sink.site(kGmPrefetchMain, lanes);
      each([&](i64 t) -> xray::LaneAccess {
        const i64 tc = bx * p.W + p.W + t * p.n;
        const bool ok = pf && t < p.n_tail && tc < p.Wi;
        return {ok ? p.in_addr(0, ir, tc) : 0, vb, ok, t < p.n_tail};
      });
      sink.site(kGmPrefetchTail, lanes);
      sink.sync();  // line 9
      each([&](i64 t) -> xray::LaneAccess {
        const bool ok = pf && bx * p.W + t * p.n < p.Wi;
        return {sm_addr((rr % p.K) * p.sh_stride + t * p.n), vb, ok, true};
      });
      sink.site(kSmPublishMain, lanes);
      each([&](i64 t) -> xray::LaneAccess {
        const bool ok =
            pf && t < p.n_tail && bx * p.W + p.W + t * p.n < p.Wi;
        return {sm_addr((rr % p.K) * p.sh_stride + p.W + t * p.n), vb, ok,
                t < p.n_tail};
      });
      sink.site(kSmPublishTail, lanes);
      sink.sync();  // line 11
    }
  };
  return m;
}

}  // namespace

xray::KernelModel special_conv_xray(const sim::Arch& arch, i64 k, i64 f,
                                    i64 hi, i64 wi,
                                    const SpecialConvConfig& cfg,
                                    bool fused) {
  const SpecialPlan plan = plan_special(arch, k, f, hi, wi, cfg, fused);
  KCONV_CHECK(plan.error.empty(), plan.error);
  return special_model(plan);
}

KernelRun special_conv(sim::Device& dev, const tensor::Tensor& input,
                       const tensor::Tensor& filters,
                       const SpecialConvConfig& cfg,
                       const sim::LaunchOptions& opt,
                       std::span<const float> fuse_bias_relu) {
  KCONV_CHECK(input.n() == 1, "special case operates on a single image");
  KCONV_CHECK(input.c() == 1 && filters.c() == 1,
              "special case requires exactly one input channel (C = 1)");
  KCONV_CHECK(filters.h() == filters.w(), "non-square filters unsupported");
  KCONV_CHECK(fuse_bias_relu.empty() ||
                  static_cast<i64>(fuse_bias_relu.size()) == filters.n(),
              strf("fused bias has %zu entries for %lld filters",
                   fuse_bias_relu.size(),
                   static_cast<long long>(filters.n())));
  const SpecialPlan plan =
      plan_special(dev.arch(), filters.h(), filters.n(), input.h(), input.w(),
                   cfg, !fuse_bias_relu.empty());
  KCONV_CHECK(plan.error.empty(), plan.error);
  return detail::run_special<float>(dev, plan, input, filters, opt,
                                    fuse_bias_relu,
                                    [&plan] { return special_model(plan); });
}

}  // namespace kconv::kernels
