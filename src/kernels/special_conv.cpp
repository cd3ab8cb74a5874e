#include "src/kernels/special_conv.hpp"

#include <algorithm>
#include <memory>

#include "src/kernels/detail/special_kernel.hpp"
#include "src/tensor/conv_ref.hpp"

namespace kconv::kernels {

namespace {

template <int N>
KernelRun run_special(sim::Device& dev, const tensor::Tensor& input,
                      const tensor::Tensor& filters,
                      const SpecialConvConfig& cfg,
                      const sim::LaunchOptions& opt,
                      std::span<const float> fuse_bias_relu) {
  const i64 K = filters.h();
  const i64 F = filters.n();
  const i64 Hi = input.h(), Wi = input.w();
  const i64 Ho = tensor::conv_out_extent(Hi, K, 0);
  const i64 Wo = tensor::conv_out_extent(Wi, K, 0);
  const i64 W = cfg.block_w, H = cfg.block_h;

  DevicePlanes d_in(dev, 1, Hi, Wi);
  d_in.upload(input);
  DevicePlanes d_out(dev, F, Ho, Wo);

  const auto flat = flatten_filters(filters);
  auto d_filt = dev.alloc_const<float>(flat);

  detail::SpecialKernelT<float, N> k;
  k.in = d_in.view();
  k.out = d_out.view();
  k.filt =
      sim::ConstView<float>(d_filt.get(), 0, static_cast<i64>(flat.size()));

  // The fused bias rides in constant memory next to the filters: f is
  // warp-uniform in the write-back, so each read is a broadcast.
  std::unique_ptr<sim::ConstBuffer> d_bias;
  if (!fuse_bias_relu.empty()) {
    d_bias = dev.alloc_const<float>(fuse_bias_relu);
    k.bias = sim::ConstView<float>(
        d_bias.get(), 0, static_cast<i64>(fuse_bias_relu.size()));
    k.fused = true;
  }
  k.K = K;
  k.F = F;
  k.Ho = Ho;
  k.Wo = Wo;
  k.W = W;
  k.H = H;
  k.n_tail = ceil_div(K - 1, N);

  sim::SharedLayout smem;
  k.sh_stride = round_up(W + K + N, 16);
  k.sh_off = smem.alloc<float>(K * k.sh_stride);

  sim::LaunchConfig lc;
  lc.grid = sim::Dim3{static_cast<u32>(ceil_div(Wo, W)),
                      static_cast<u32>(ceil_div(Ho, H)), 1};
  lc.block = sim::Dim3{static_cast<u32>(W / N), 1, 1};
  lc.shared_bytes = smem.size();
  // Window + accumulator + prefetch registers plus bookkeeping, mirroring
  // what nvcc would allocate for Algorithm 1.
  lc.regs_per_thread = static_cast<u32>(
      std::min<i64>(K * (K + N - 1) + 3 * N + 12, dev.arch().max_regs_per_thread));

  sim::LaunchOptions lopt = opt;
  std::string canonical_key = strf(
      "special_conv|v1|n=%d|k=%lld|f=%lld|hi=%lld|wi=%lld|bw=%lld|bh=%lld",
      N, static_cast<long long>(K), static_cast<long long>(F),
      static_cast<long long>(Hi), static_cast<long long>(Wi),
      static_cast<long long>(W), static_cast<long long>(H));
  // Appended (not always present) so unfused keys match pre-fusion stores.
  if (k.fused) canonical_key += "|fused=br";
  stamp_plan(dev.arch(), canonical_key, lopt, [&] {
    return special_conv_xray(dev.arch(), K, F, Hi, Wi, cfg, k.fused);
  });

  if (lopt.fleet.devices > 1) {
    // Shard geometry for the fleet layer (docs/MODEL.md §9). The grid is
    // (col-tiles, row-tiles): output rows shard along y with no folded
    // minor axis. There is no filter-group grid axis — the kernel loops F
    // internally — so channel sharding stays undeclared (rejected loudly).
    sim::FleetHints& fh = lopt.fleet_hints;
    fh.provided = true;
    fh.spatial_axis = 1;
    fh.spatial_minor = 1;
    const u64 fs = sizeof(float);
    fh.input_bytes = fs * static_cast<u64>(Hi * Wi);
    fh.filter_bytes = fs * static_cast<u64>(F * K * K);
    fh.output_bytes = fs * static_cast<u64>(F * Ho * Wo);
    fh.halo_bytes_per_cut = fs * static_cast<u64>((K - 1) * Wi);
  }

  KernelRun run;
  run.launch = sim::launch(dev, k, lc, lopt);
  if (opt.profile) {
    // Paper §3: the special case reads each input pixel from GM exactly
    // once, modulo the tile halo — one 4-byte load per pixel is the bound.
    profile::RooflineHints& h = run.launch.profile.hints;
    h.kind = profile::RooflineHints::Kind::Special;
    h.k = static_cast<u32>(K);
    h.gm_load_bound_bytes =
        static_cast<double>(sizeof(float)) * static_cast<double>(Hi * Wi);
  }
  if (!run.launch.sampled && !run.launch.analytic) {
    run.output = d_out.download();
    run.output_valid = true;
  }
  return run;
}

}  // namespace

std::string special_conv_check(const sim::Arch& arch, i64 k, i64 f, i64 hi,
                               i64 wi, const SpecialConvConfig& cfg) {
  if (k < 1 || k > kSpecialMaxK) {
    return strf("filter size %lld outside supported range [1, %lld]",
                static_cast<long long>(k),
                static_cast<long long>(kSpecialMaxK));
  }
  i64 n = cfg.vec_width;
  if (n == 0) n = arch.smem_bank_bytes / sizeof(float);  // Eq. (1)
  if (n != 1 && n != 2 && n != 4) {
    return strf("unsupported vector width %lld", static_cast<long long>(n));
  }
  if (cfg.block_w < 4 || cfg.block_w % 4 != 0) {
    return "block_w must be a positive multiple of 4";
  }
  if (cfg.block_h < 1) return "block_h must be positive";
  const i64 Ho = tensor::conv_out_extent(hi, k, 0);
  const i64 Wo = tensor::conv_out_extent(wi, k, 0);
  if (Ho < 1 || Wo < 1) return "image smaller than the filter";
  const i64 filt_bytes = f * k * k * static_cast<i64>(sizeof(float));
  if (filt_bytes > arch.const_capacity) {
    return strf("filters need %lld B of constant memory (capacity %u)",
                static_cast<long long>(filt_bytes), arch.const_capacity);
  }

  sim::SharedLayout smem;
  (void)smem.alloc<float>(k * round_up(cfg.block_w + k + n, 16));
  sim::LaunchConfig lc;
  lc.grid = sim::Dim3{static_cast<u32>(ceil_div(Wo, cfg.block_w)),
                      static_cast<u32>(ceil_div(Ho, cfg.block_h)), 1};
  lc.block = sim::Dim3{static_cast<u32>(cfg.block_w / n), 1, 1};
  lc.shared_bytes = smem.size();
  lc.regs_per_thread = static_cast<u32>(
      std::min<i64>(k * (k + n - 1) + 3 * n + 12, arch.max_regs_per_thread));
  return sim::launch_feasibility_error(arch, lc);
}

xray::KernelModel special_conv_xray(const sim::Arch& arch, i64 k, i64 f,
                                    i64 hi, i64 wi,
                                    const SpecialConvConfig& cfg,
                                    bool fused) {
  const std::string err = special_conv_check(arch, k, f, hi, wi, cfg);
  KCONV_CHECK(err.empty(), err);
  i64 n = cfg.vec_width;
  if (n == 0) n = arch.smem_bank_bytes / sizeof(float);  // Eq. (1)

  // Every launch parameter below replicates run_special<N> line for line:
  // the same DevicePlanes pitches, the same allocation order (image, output
  // in GM; filters then bias in constant space), the same SharedLayout.
  struct P {
    i64 K, F, Hi, Wi, Ho, Wo, W, H, N, n_tail, nthreads, rows_wcols;
    i64 in_pitch, out_pitch;
    u64 in_base, out_base, filt_base, bias_base;
    i64 sh_stride;
    u64 sh_off;
    bool fused;
  } p{};
  p.K = k;
  p.F = f;
  p.Hi = hi;
  p.Wi = wi;
  p.Ho = tensor::conv_out_extent(hi, k, 0);
  p.Wo = tensor::conv_out_extent(wi, k, 0);
  p.W = cfg.block_w;
  p.H = cfg.block_h;
  p.N = n;
  p.n_tail = ceil_div(k - 1, n);
  p.nthreads = cfg.block_w / n;
  p.rows_wcols = round_up(k + n - 1, n);
  p.fused = fused;

  xray::AddressSpace gm;
  p.in_base = gm.alloc_planes(1, hi, wi, p.in_pitch);
  p.out_base = gm.alloc_planes(f, p.Ho, p.Wo, p.out_pitch);
  xray::AddressSpace cm;
  p.filt_base = cm.alloc_floats(f * k * k);
  p.bias_base = fused ? cm.alloc_floats(f) : 0;

  sim::SharedLayout smem;
  p.sh_stride = round_up(p.W + k + n, 16);
  p.sh_off = smem.alloc<float>(k * p.sh_stride);

  xray::KernelModel m;
  m.kernel = "special_conv";
  m.cfg.grid = sim::Dim3{static_cast<u32>(ceil_div(p.Wo, p.W)),
                         static_cast<u32>(ceil_div(p.Ho, p.H)), 1};
  m.cfg.block = sim::Dim3{static_cast<u32>(p.nthreads), 1, 1};
  m.cfg.shared_bytes = smem.size();
  m.cfg.regs_per_thread = static_cast<u32>(std::min<i64>(
      k * (k + n - 1) + 3 * n + 12, arch.max_regs_per_thread));
  // Paper §3: each input pixel read from GM once, each output written once
  // (filters live in constant memory and never touch GM).
  m.min_gm_bytes = static_cast<double>(sizeof(float)) *
                   (static_cast<double>(hi) * static_cast<double>(wi) +
                    static_cast<double>(f) * static_cast<double>(p.Ho) *
                        static_cast<double>(p.Wo));

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
  if (fused) {
    m.sites.push_back({"const-bias", sim::Op::LoadConst, "§3.3", false});
  }

  m.emit = [p](sim::Dim3 b, xray::ModelSink& sink) {
    const u32 vb = static_cast<u32>(p.N * sizeof(float));
    const i64 bx = b.x, by = b.y;
    const i64 row0 = by * p.H;
    const i64 rows = std::min<i64>(p.H, p.Ho - row0);
    const auto in_addr = [&p](i64 y, i64 x) {
      return p.in_base +
             static_cast<u64>((y * p.in_pitch + x) * sizeof(float));
    };
    const auto out_addr = [&p](i64 pf, i64 y, i64 x) {
      return p.out_base + static_cast<u64>(
                              ((pf * p.Ho + y) * p.out_pitch + x) *
                              sizeof(float));
    };
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
        const i64 col0 = bx * p.W + t * p.N;
        const bool ok = col0 < p.Wi;
        return {ok ? in_addr(ir, col0) : 0, vb, ok, true};
      });
      sink.site(kGmStageMain, lanes);
      each([&](i64 t) -> xray::LaneAccess {
        const bool ok = bx * p.W + t * p.N < p.Wi;
        return {sm_addr(r * p.sh_stride + t * p.N), vb, ok, true};
      });
      sink.site(kSmStageMain, lanes);
      each([&](i64 t) -> xray::LaneAccess {
        const i64 tc = bx * p.W + p.W + t * p.N;
        const bool ok = t < p.n_tail && tc < p.Wi;
        return {ok ? in_addr(ir, tc) : 0, vb, ok, t < p.n_tail};
      });
      sink.site(kGmStageTail, lanes);
      each([&](i64 t) -> xray::LaneAccess {
        const bool ok = t < p.n_tail && bx * p.W + p.W + t * p.N < p.Wi;
        return {sm_addr(r * p.sh_stride + p.W + t * p.N), vb, ok,
                t < p.n_tail};
      });
      sink.site(kSmStageTail, lanes);
    }
    sink.sync();

    // Line 3: first K-1 rows into the register window.
    for (i64 r = 0; r + 1 < p.K; ++r) {
      for (i64 i = 0; i < p.rows_wcols; i += p.N) {
        each([&](i64 t) -> xray::LaneAccess {
          return {sm_addr(r * p.sh_stride + t * p.N + i), vb, true, true};
        });
        sink.site(kSmWindow, lanes);
      }
    }

    // Lines 4-11: one output row per iteration.
    for (i64 rr = 0; rr < rows; ++rr) {
      const i64 orow = row0 + rr;
      const i64 slot = (rr + p.K - 1) % p.K;
      for (i64 i = 0; i < p.rows_wcols; i += p.N) {
        each([&](i64 t) -> xray::LaneAccess {
          return {sm_addr(slot * p.sh_stride + t * p.N + i), vb, true, true};
        });
        sink.site(kSmRow, lanes);
      }
      for (i64 ff = 0; ff < p.F; ++ff) {
        for (i64 e = 0; e < p.K * p.K; ++e) {
          each([&](i64) -> xray::LaneAccess {
            return {p.filt_base +
                        static_cast<u64>((ff * p.K * p.K + e) *
                                         sizeof(float)),
                    sizeof(float), true, true};
          });
          sink.site(kConstFilter, lanes);
        }
        sink.fma(static_cast<u64>(p.K * p.K * p.N));
        if (p.fused) {
          each([&](i64) -> xray::LaneAccess {
            return {p.bias_base + static_cast<u64>(ff * sizeof(float)),
                    sizeof(float), true, true};
          });
          sink.site(kConstBias, lanes);
          sink.alu(static_cast<u64>(2 * p.N));
        }
        each([&](i64 t) -> xray::LaneAccess {
          const i64 col0 = bx * p.W + t * p.N;
          const bool ok = col0 < p.Wo;
          return {ok ? out_addr(ff, orow, col0) : 0, vb, ok, true};
        });
        sink.site(kGmWriteback, lanes);
      }
      const bool pf = rr + 1 < rows;
      const i64 ir = row0 + rr + p.K;
      each([&](i64 t) -> xray::LaneAccess {
        const i64 col0 = bx * p.W + t * p.N;
        const bool ok = pf && col0 < p.Wi;
        return {ok ? in_addr(ir, col0) : 0, vb, ok, true};
      });
      sink.site(kGmPrefetchMain, lanes);
      each([&](i64 t) -> xray::LaneAccess {
        const i64 tc = bx * p.W + p.W + t * p.N;
        const bool ok = pf && t < p.n_tail && tc < p.Wi;
        return {ok ? in_addr(ir, tc) : 0, vb, ok, t < p.n_tail};
      });
      sink.site(kGmPrefetchTail, lanes);
      sink.sync();  // line 9
      each([&](i64 t) -> xray::LaneAccess {
        const bool ok = pf && bx * p.W + t * p.N < p.Wi;
        return {sm_addr((rr % p.K) * p.sh_stride + t * p.N), vb, ok, true};
      });
      sink.site(kSmPublishMain, lanes);
      each([&](i64 t) -> xray::LaneAccess {
        const bool ok =
            pf && t < p.n_tail && bx * p.W + p.W + t * p.N < p.Wi;
        return {sm_addr((rr % p.K) * p.sh_stride + p.W + t * p.N), vb, ok,
                t < p.n_tail};
      });
      sink.site(kSmPublishTail, lanes);
      sink.sync();  // line 11
    }
  };
  return m;
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
  const std::string err =
      special_conv_check(dev.arch(), filters.h(), filters.n(), input.h(),
                         input.w(), cfg);
  KCONV_CHECK(err.empty(), err);
  if (!fuse_bias_relu.empty()) {
    const i64 cm_bytes = (filters.n() * filters.h() * filters.w() +
                          static_cast<i64>(fuse_bias_relu.size())) *
                         static_cast<i64>(sizeof(float));
    KCONV_CHECK(cm_bytes <= dev.arch().const_capacity,
                strf("filters + fused bias need %lld B of constant memory "
                     "(capacity %u)",
                     static_cast<long long>(cm_bytes),
                     dev.arch().const_capacity));
  }

  i64 n = cfg.vec_width;
  if (n == 0) n = dev.arch().smem_bank_bytes / sizeof(float);  // Eq. (1)
  switch (n) {
    case 1: return run_special<1>(dev, input, filters, cfg, opt, fuse_bias_relu);
    case 2: return run_special<2>(dev, input, filters, cfg, opt, fuse_bias_relu);
    default: return run_special<4>(dev, input, filters, cfg, opt, fuse_bias_relu);
  }
}

}  // namespace kconv::kernels
