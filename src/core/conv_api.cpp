#include "src/core/conv_api.hpp"

#include <algorithm>
#include <vector>

#include "src/kernels/general_conv.hpp"
#include "src/kernels/im2col_conv.hpp"
#include "src/kernels/implicit_gemm_conv.hpp"
#include "src/kernels/naive_conv.hpp"
#include "src/kernels/special_conv.hpp"
#include "src/kernels/fft_conv.hpp"
#include "src/kernels/winograd_conv.hpp"
#include "src/tensor/conv_ref.hpp"

namespace kconv::core {

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::Auto: return "auto";
    case Algo::Special: return "special";
    case Algo::General: return "general";
    case Algo::ImplicitGemm: return "implicit-gemm";
    case Algo::Im2colGemm: return "im2col-gemm";
    case Algo::NaiveDirect: return "naive";
    case Algo::Winograd: return "winograd";
    case Algo::Fft: return "fft";
  }
  return "?";
}

bool parse_algo(const std::string& name, Algo& out) {
  for (const Algo a : {Algo::Auto, Algo::Special, Algo::General,
                       Algo::ImplicitGemm, Algo::Im2colGemm, Algo::NaiveDirect,
                       Algo::Winograd, Algo::Fft}) {
    if (name == algo_name(a)) {
      out = a;
      return true;
    }
  }
  return false;
}

double conv_flops(i64 c, i64 f, i64 k, i64 ho, i64 wo) {
  return 2.0 * static_cast<double>(c) * f * k * k * ho * wo;
}

namespace {

/// conv2d's algorithm and kernel configuration for one problem, resolved
/// once for the launch, the shard-axis check and the xray model.
struct Resolved {
  Algo algo = Algo::Auto;
  i64 hi = 0, wi = 0;  ///< the kernel's input extents, after `same` padding
  kernels::SpecialConvConfig special;
  /// A general-case tiling satisfying the kernel's divisibility rules for
  /// arbitrary C and F, plus the filter-count padding needed when F doesn't
  /// divide into any legal FTB (extra filters are zeros and their output
  /// planes are dropped — the standard trick for ragged F).
  kernels::GeneralConvConfig general;
  i64 f_padded = 0;
  kernels::ImplicitGemmConfig implicit;
};

Resolved resolve(i64 c, i64 f, i64 k, i64 hi, i64 wi, const ConvOptions& opt) {
  Resolved r;
  if (opt.padding == Padding::Same) {
    KCONV_CHECK(k % 2 == 1, "`same` padding requires an odd filter size");
    hi += k - 1;
    wi += k - 1;
  }
  r.hi = hi;
  r.wi = wi;
  r.algo = opt.algo;
  if (r.algo == Algo::Auto) r.algo = c == 1 ? Algo::Special : Algo::General;
  KCONV_CHECK(opt.fuse_bias_relu.empty() || r.algo == Algo::Special ||
                  r.algo == Algo::General,
              strf("fuse_bias_relu is not supported by the '%s' algorithm",
                   algo_name(r.algo)));

  if (r.algo == Algo::Special) {
    KCONV_CHECK(c == 1,
                "special case requires exactly one input channel (C = 1)");
    kernels::SpecialConvConfig& cfg = r.special;
    cfg.vec_width = opt.vec_width;
    // Shrink the default tile for images narrower than 256 outputs.
    const i64 wo = tensor::conv_out_extent(wi, k, 0);
    while (cfg.block_w > 16 && cfg.block_w > wo * 2) cfg.block_w /= 2;
  } else if (r.algo == Algo::General) {
    kernels::GeneralConvConfig& cfg = r.general;
    cfg = (k == 3 || k == 5 || k == 7) ? kernels::table1_config(k)
                                       : kernels::table1_config(3);
    cfg.vec_width = opt.vec_width;
    // FTB never shrinks below 4 so FT stays a multiple of the matched width.
    while (cfg.ftb > 4 && f % cfg.ftb != 0) cfg.ftb /= 2;
    if (cfg.ft > cfg.ftb) cfg.ft = cfg.ftb;
    while (cfg.csh > 1 && c % cfg.csh != 0) cfg.csh /= 2;

    // Shrinking FTB shrinks the thread block; make sure the cooperative
    // staging still fits the kernel's per-thread register caps (worst case
    // n = 1, i.e. the unmatched variant). Smaller WT buys more threads.
    const auto staging_fits = [&] {
      const i64 threads =
          (cfg.ftb / cfg.ft) * (cfg.block_w * cfg.block_h / cfg.wt);
      if (threads < 1 || threads > 1024) return false;
      const i64 img_units = ceil_div(
          cfg.csh * (cfg.block_h + k - 1) * (cfg.block_w + k - 1), threads);
      const i64 flt_scalars = ceil_div(cfg.csh * k * k * cfg.ftb, threads);
      return img_units <= 16 && flt_scalars <= 64;
    };
    while (!staging_fits() && cfg.wt > 4) cfg.wt /= 2;
    while (!staging_fits() && cfg.csh > 1) cfg.csh /= 2;
    r.f_padded = round_up(f, cfg.ftb);
  } else if (r.algo == Algo::ImplicitGemm) {
    r.implicit = kernels::implicit_gemm_auto_config(f, c, k);
    if (opt.vec_width != 0) r.implicit.vec_width = opt.vec_width;
  }
  return r;
}

/// Why conv2d refuses to shard the launch `r` as `opt.launch.fleet` asks,
/// read off the kernel plan's fleet hints: algorithms without a plan, or
/// whose plan declares no shard axes, take no multi-device launch (it would
/// silently skip the transfer model), and a channel or spatial strategy
/// needs that axis. "" when the launch may proceed; an illegal plan is
/// left to the launch, which reports the plan's own error.
std::string shard_error(const sim::Arch& arch, const Resolved& r, i64 c,
                        i64 f, i64 k, const ConvOptions& opt) {
  const sim::FleetOptions& fleet = opt.launch.fleet;
  if (fleet.devices <= 1) return "";
  const bool fused = !opt.fuse_bias_relu.empty();
  kernels::ConvPlan plan;
  if (r.algo == Algo::Special) {
    plan = kernels::plan_special(arch, k, f, r.hi, r.wi, r.special, fused);
  } else if (r.algo == Algo::General) {
    plan = kernels::plan_general(arch, k, c, r.f_padded, r.hi, r.wi,
                                 r.general, fused);
  } else if (r.algo == Algo::ImplicitGemm) {
    plan = kernels::plan_implicit_gemm(arch, k, c, f, r.hi, r.wi, r.implicit);
  }
  if (!plan.error.empty()) return "";
  if (!plan.fleet.provided) {
    return strf("multi-device sharding is not supported by the '%s' "
                "algorithm",
                algo_name(r.algo));
  }
  const i32 axis = fleet.strategy == sim::ShardStrategy::Channel
                       ? plan.fleet.channel_axis
                   : fleet.strategy == sim::ShardStrategy::Spatial
                       ? plan.fleet.spatial_axis
                       : 0;
  if (axis < 0) {
    return strf("the '%s' kernel declares no %s shard axis",
                algo_name(r.algo), sim::shard_name(fleet.strategy));
  }
  return "";
}

/// Zero-pads an (F, C, K, K) bank to `f_padded` filters.
tensor::Tensor pad_filter_bank(const tensor::Tensor& filters, i64 f_padded) {
  tensor::Tensor out(f_padded, filters.c(), filters.h(), filters.w());
  std::ranges::copy(filters.flat(), out.flat().begin());
  return out;
}

}  // namespace

ConvResult conv2d_batched(sim::Device& dev, const tensor::Tensor& input,
                          const tensor::Tensor& filters,
                          const ConvOptions& opt) {
  KCONV_CHECK(input.n() >= 1, "empty batch");
  if (input.n() == 1) return conv2d(dev, input, filters, opt);

  // Batch sharding with a real batch means whole images, not block slabs:
  // images round-robin across devices, each running single-device (outputs
  // stay bit-identical), and the batch makespan is the busiest device's
  // summed compute plus its staging ledger (filters land once per device).
  const sim::FleetOptions& fopt = opt.launch.fleet;
  const bool image_shard =
      fopt.devices > 1 && fopt.strategy == sim::ShardStrategy::Batch;
  ConvOptions per = opt;
  if (image_shard) per.launch.fleet = sim::FleetOptions{};
  // One shard per device: its images as blocks, its staging ledger, its
  // launches' summed counters and compute seconds.
  std::vector<sim::FleetShard> shards(image_shard ? fopt.devices : 0);
  for (u32 d = 0; d < shards.size(); ++d) shards[d].device = d;
  std::vector<sim::KernelStats> dev_stats(shards.size());
  std::vector<double> dev_busy(shards.size(), 0.0);
  const u64 fs = sizeof(float);

  const i64 k = filters.h();
  const bool same = opt.padding == Padding::Same;
  const i64 ho = same ? input.h() : tensor::conv_out_extent(input.h(), k, 0);
  const i64 wo = same ? input.w() : tensor::conv_out_extent(input.w(), k, 0);
  tensor::Tensor out(input.n(), filters.n(), ho, wo);
  const i64 in_elems = input.size() / input.n();
  const i64 out_elems = out.size() / input.n();
  bool valid = true;

  // Slice each image out of the batch and run it; filters are identical
  // across the batch, which in a real deployment keeps them resident (the
  // simulator re-uploads per launch — the timing model charges GM filter
  // loads per launch either way).
  ConvResult total;
  for (i64 img = 0; img < input.n(); ++img) {
    tensor::Tensor one(1, input.c(), input.h(), input.w());
    std::copy_n(input.flat().begin() + img * in_elems, in_elems,
                one.flat().begin());
    ConvResult r = conv2d(dev, one, filters, per);
    if (image_shard) {
      const u32 d = static_cast<u32>(img % fopt.devices);
      sim::FleetShard& sh = shards[d];
      if (sh.blocks == 0) {
        sh.ledger.h2d_bytes += fs * static_cast<u64>(filters.size());
        sh.ledger.h2d_ops += 1;
      }
      sh.ledger.h2d_bytes += fs * static_cast<u64>(in_elems);
      sh.ledger.h2d_ops += 1;
      sh.runs.push_back({static_cast<u64>(img), static_cast<u64>(img) + 1});
      sh.blocks += 1;
      dev_stats[d] += r.launch.stats;
      dev_busy[d] += r.total_seconds;
    }
    valid = valid && r.output_valid;
    if (valid) {
      std::ranges::copy(r.output.flat(),
                        out.flat().begin() + img * out_elems);
    }
    if (img == 0) {
      total = std::move(r);
      continue;
    }
    // Later images fold into the first one's launch and stages.
    total.total_seconds += r.total_seconds;
    sim::fold_launch(total.launch, r.launch);
    for (std::size_t s = 0; s < total.stages.size(); ++s) {
      total.stages[s].add(std::move(r.stages[s].launch),
                          r.stages[s].launches);
    }
  }
  total.output_valid = valid;
  total.output = valid ? std::move(out) : tensor::Tensor{};
  if (image_shard) {
    const u64 out_plane = fs * static_cast<u64>(filters.n() * ho * wo);
    for (sim::FleetShard& sh : shards) {
      sh.ledger.d2h_bytes += out_plane * sh.blocks;
      sh.ledger.d2h_ops += sh.blocks;
    }
    sim::FleetHints hints;
    hints.provided = true;
    hints.input_bytes = fs * static_cast<u64>(input.size());
    hints.filter_bytes = fs * static_cast<u64>(filters.size());
    hints.output_bytes = out_plane * static_cast<u64>(input.n());
    total.launch.fleet =
        sim::analyze_fleet(dev.arch(), fopt, hints, static_cast<u64>(input.n()),
                           shards, dev_stats, dev_busy);
    total.total_seconds = total.launch.fleet.seconds;
  }
  total.effective_gflops =
      total.total_seconds > 0
          ? input.n() * conv_flops(input.c(), filters.n(), k, ho, wo) /
                total.total_seconds / 1e9
          : 0.0;
  return total;
}

ConvResult conv2d(sim::Device& dev, const tensor::Tensor& input,
                  const tensor::Tensor& filters, const ConvOptions& opt) {
  KCONV_CHECK(input.n() == 1, "conv2d operates on a single image");
  KCONV_CHECK(filters.c() == input.c(),
              strf("channel mismatch: input C=%lld, filters C=%lld",
                   static_cast<long long>(input.c()),
                   static_cast<long long>(filters.c())));
  KCONV_CHECK(filters.h() == filters.w(), "non-square filters unsupported");
  const i64 k = filters.h();
  const Resolved r =
      resolve(input.c(), filters.n(), k, input.h(), input.w(), opt);
  const std::string why =
      shard_error(dev.arch(), r, input.c(), filters.n(), k, opt);
  KCONV_CHECK(why.empty(), why);

  tensor::Tensor padded;
  const tensor::Tensor* in = &input;
  if (opt.padding == Padding::Same) {
    padded = tensor::pad_image(input, (k - 1) / 2);
    in = &padded;
  }
  const i64 ho = tensor::conv_out_extent(r.hi, k, 0);
  const i64 wo = tensor::conv_out_extent(r.wi, k, 0);
  const double flops = conv_flops(input.c(), filters.n(), k, ho, wo);

  ConvResult res;
  res.algo_used = r.algo;
  // The runner's result: its output, launches and time.
  const auto take = [&res](kernels::KernelRun run) {
    res.output = std::move(run.output);
    res.output_valid = run.output_valid;
    res.total_seconds = run.launch.timing.seconds;
    res.launch = std::move(run.launch);
    res.stages = std::move(run.stages);
  };
  switch (r.algo) {
    case Algo::Special:
      take(kernels::special_conv(dev, *in, filters, r.special, opt.launch,
                                 opt.fuse_bias_relu));
      break;
    case Algo::General: {
      kernels::KernelRun run;
      if (r.f_padded != filters.n()) {
        const tensor::Tensor padded_bank =
            pad_filter_bank(filters, r.f_padded);
        // Zero-pad the fused bias alongside the zero filters: the padding
        // planes come out as max(0, 0 + 0) = 0 and are trimmed anyway.
        std::vector<float> padded_bias;
        std::span<const float> bias = opt.fuse_bias_relu;
        if (!bias.empty()) {
          padded_bias.assign(bias.begin(), bias.end());
          padded_bias.resize(static_cast<std::size_t>(r.f_padded), 0.0f);
          bias = padded_bias;
        }
        run = kernels::general_conv(dev, *in, padded_bank, r.general,
                                    opt.launch, bias);
        if (run.output_valid) {
          // Drop the zero-filter planes, the last ones.
          tensor::Tensor trimmed(1, filters.n(), run.output.h(),
                                 run.output.w());
          std::copy_n(run.output.flat().begin(), trimmed.size(),
                      trimmed.flat().begin());
          run.output = std::move(trimmed);
        }
      } else {
        run = kernels::general_conv(dev, *in, filters, r.general,
                                    opt.launch, opt.fuse_bias_relu);
      }
      take(std::move(run));
      break;
    }
    case Algo::ImplicitGemm:
      take(kernels::implicit_gemm_conv(dev, *in, filters, r.implicit,
                                       opt.launch));
      break;
    case Algo::Im2colGemm:
      take(kernels::im2col_gemm_conv(dev, *in, filters,
                                     kernels::gemm_cublas_like(), opt.launch));
      break;
    case Algo::NaiveDirect:
      take(kernels::naive_conv(dev, *in, filters, {}, opt.launch));
      break;
    case Algo::Winograd:
      take(kernels::winograd_conv(dev, *in, filters,
                                  kernels::GemmConfig{.bm = 0}, opt.launch));
      break;
    case Algo::Fft:
      take(kernels::fft_conv(dev, *in, filters, opt.launch));
      break;
    case Algo::Auto:
      KCONV_ASSERT(false);
  }
  if (res.launch.fleet.enabled) {
    // A sharded launch's end-to-end time is the fleet makespan (staging +
    // the busiest device), not the single-device kernel estimate.
    res.total_seconds = res.launch.fleet.seconds;
  }
  res.effective_gflops =
      res.total_seconds > 0 ? flops / res.total_seconds / 1e9 : 0.0;
  return res;
}

std::string conv2d_shard_error(const sim::Arch& arch, i64 c, i64 f, i64 k,
                               i64 hi, i64 wi, const ConvOptions& opt) {
  return shard_error(arch, resolve(c, f, k, hi, wi, opt), c, f, k, opt);
}

xray::KernelModel conv2d_xray_model(const sim::Arch& arch, i64 c, i64 f,
                                    i64 k, i64 hi, i64 wi,
                                    const ConvOptions& opt) {
  KCONV_CHECK(c >= 1 && f >= 1 && k >= 1 && hi >= k && wi >= k,
              "conv2d_xray_model: degenerate problem shape");
  const Resolved r = resolve(c, f, k, hi, wi, opt);
  const bool fused = !opt.fuse_bias_relu.empty();
  switch (r.algo) {
    case Algo::Special:
      return kernels::special_conv_xray(arch, k, f, r.hi, r.wi, r.special,
                                        fused);
    case Algo::General:
      return kernels::general_conv_xray(arch, k, c, r.f_padded, r.hi, r.wi,
                                        r.general, fused);
    case Algo::ImplicitGemm:
      return kernels::implicit_gemm_xray(arch, k, c, f, r.hi, r.wi,
                                         r.implicit);
    default:
      KCONV_CHECK(false, strf("the '%s' algorithm has no kconv-xray describer",
                              algo_name(r.algo)));
      __builtin_unreachable();
  }
}

}  // namespace kconv::core
