// Common result type, plan core and launch tail shared by the host-side
// kernel runners.
//
// Kernel classes may additionally declare the trace-replay hook
//
//   u64 replay_class(sim::Dim3 block_idx) const;
//
// mapping each block to an equivalence class of congruent blocks (same
// control flow, predication masks and shared-memory offsets; only
// global/constant addresses shifted). With LaunchOptions::replay set,
// launch() then schedules one representative per class and fast-forwards
// the rest (docs/MODEL.md §5b); kernels without the hook always take the
// exact legacy path. GeneralConv, SpecialConv (including the short-dtype
// variants) and ImplicitGemmConv declare it.
#pragma once

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "src/analysis/static/xray.hpp"
#include "src/common/strutil.hpp"
#include "src/kernels/device_tensor.hpp"
#include "src/sim/launch.hpp"
#include "src/tensor/tensor.hpp"

namespace kconv::kernels {

/// Outcome of running a convolution on the simulator: every launch it
/// made, grouped into named stages in issue order (FFT: `pad`,
/// `image_fft`, `filter_fft`, `mac`, `inverse`; a direct kernel: one stage
/// of one launch).
struct KernelRun {
  /// The whole run. With one stage this is that stage's launch, whole.
  /// With more it holds sums only (sim::fold_launch): counters, blocks,
  /// seconds and seconds-weighted rates; per-launch detail (pipes, bound,
  /// occupancy, plan-store status) lives in `stages`.
  sim::LaunchResult launch;
  std::vector<sim::LaunchStage> stages;
  /// Functional output. Only populated when every block of every launch
  /// ran (sampled benchmark runs skip the download; check output_valid).
  tensor::Tensor output;
  bool output_valid = false;
  /// Device memory beyond image, filters and output: im2col's patch
  /// matrix, Winograd's transformed planes, FFT's complex planes.
  u64 workspace_bytes = 0;

  /// Adds launch `r` to the stage `name`: the last stage when it has that
  /// name, else a new one.
  void add(const std::string& name, sim::LaunchResult r) {
    if (stages.empty() || stages.back().name != name) {
      stages.emplace_back().name = name;
    }
    stages.back().add(std::move(r));
  }

  /// Sets `launch` from `stages` and returns whether the output may be
  /// downloaded: no launch of any stage was sampled or analytic.
  bool seal() {
    sim::LaunchStage total;
    for (const sim::LaunchStage& s : stages) total.add(s.launch, s.launches);
    launch = std::move(total.launch);
    return launch.complete();
  }

  /// The stage named `name`; throws when the run has none.
  const sim::LaunchStage& stage(const std::string& name) const {
    const auto it = std::ranges::find(stages, name, &sim::LaunchStage::name);
    KCONV_CHECK(it != stages.end(), "no stage named " + name);
    return *it;
  }
};

/// What every conv kernel derives from (arch, problem, config) before it
/// can launch. Each kernel family's plan function (plan_special,
/// plan_general, plan_implicit_gemm) extends it with its tiling and is the
/// one place that derivation lives: the legality probe returns `error`,
/// the runner's kernel object holds the plan, and the xray describer's
/// emit walk captures it (docs/MODEL.md §10). A non-empty `error` names
/// the first violated constraint; the rest of the plan is then unspecified.
struct ConvPlan {
  std::string error;
  /// Input (C, Hi, Wi), filters (F, C, K, K), valid output (F, Ho, Wo).
  i64 K = 0, C = 0, F = 0, Hi = 0, Wi = 0, Ho = 0, Wo = 0;
  bool fused = false;  ///< bias + ReLU folded into the write-back
  i64 n = 0;           ///< vector width (W_SMB / W_CD when matched, Eq. 1)
  sim::LaunchConfig lc;  ///< geometry, shared bytes, register estimate
  /// Canonical plan-store key: folds in every access-shaping parameter.
  std::string key;
  /// Shard axes and staging footprints (docs/MODEL.md §9); `provided`
  /// stays false for kernels that cannot be sharded.
  sim::FleetHints fleet;
  /// Paper case and the GM load bound of §3/§4 (roofline attribution).
  profile::RooflineHints hints;
  double out_bytes = 0.0;  ///< output written once
  /// Address layout on a fresh Device: plane pitches (elements) and the
  /// bases of image, output, filters and fused bias.
  i64 in_pitch = 0, out_pitch = 0;
  u64 in_base = 0, out_base = 0, filt_base = 0, bias_base = 0;

  /// Records the problem and Eq. 1's vector width — `vec_width`, or
  /// W_SMB / elem (at least 1) when 0. False, with `error` set, for a
  /// width other than 1, 2, 4 (or 8 when `max_width` allows) or an image
  /// smaller than the filter.
  bool init(const sim::Arch& arch, i64 k, i64 c, i64 f, i64 hi,
                   i64 wi, bool with_bias, i64 vec_width, i64 elem,
                   i64 max_width) {
    K = k;
    C = c;
    F = f;
    Hi = hi;
    Wi = wi;
    Ho = hi - k + 1;  // valid convolution
    Wo = wi - k + 1;
    fused = with_bias;
    n = vec_width != 0 ? vec_width
                       : std::max<i64>(1, arch.smem_bank_bytes / elem);
    if (n < 1 || n > max_width || (n & (n - 1)) != 0) {
      error = strf("unsupported vector width %lld", static_cast<long long>(n));
    } else if (Ho < 1 || Wo < 1) {
      error = "image smaller than the filter";
    }
    return error.empty();
  }

  /// fp32 byte addresses under that layout, for the describers' walks.
  u64 in_addr(i64 c, i64 y, i64 x) const {
    return in_base + static_cast<u64>(((c * Hi + y) * in_pitch + x) * 4);
  }
  u64 out_addr(i64 f, i64 y, i64 x) const {
    return out_base + static_cast<u64>(((f * Ho + y) * out_pitch + x) * 4);
  }
  u64 filt_addr(i64 i) const { return filt_base + static_cast<u64>(i * 4); }
  u64 bias_addr(i64 f) const { return bias_base + static_cast<u64>(f * 4); }

  /// The communication lower bound: every load bound term plus the output.
  double min_gm_bytes() const { return hints.gm_load_bound_bytes + out_bytes; }

  /// Lays the buffers out in the runner's allocation order: image and
  /// output planes of `elem`-byte storage in GM, then fp32 filters and
  /// (when fused) bias — in GM, or in constant space when `const_filters`.
  void place(i64 elem, bool const_filters) {
    sim::AddressBump gm, cm;
    in_pitch = plane_pitch(Wi, elem);
    in_base = gm.alloc(static_cast<u64>(plane_elems(C, Hi, Wi, elem) * elem));
    out_pitch = plane_pitch(Wo, elem);
    out_base = gm.alloc(static_cast<u64>(plane_elems(F, Ho, Wo, elem) * elem));
    sim::AddressBump& fm = const_filters ? cm : gm;
    filt_base = fm.alloc(static_cast<u64>(F * C * K * K) * sizeof(float));
    if (fused) bias_base = fm.alloc(static_cast<u64>(F) * sizeof(float));
  }
};

/// The conv runners' shared tail. `kernel` holds its plan. The launch
/// carries the plan key unless the caller set one; with a store attached
/// and no caller signature it also carries the xray signature of
/// `make_model` (docs/MODEL.md §10), so a stored plan captured under a
/// different access pattern is rejected ("stale-static-signature"). The
/// signature is memoized: the model's block-0 walk runs once per key per
/// process. Then: the plan's fleet hints for multi-device launches, the
/// launch, its roofline hints when profiling, and the output download
/// when every block ran. The run's one stage is named by the key's first
/// field ("general_conv").
template <typename Kernel, typename T>
KernelRun launch_plan(sim::Device& dev, const Kernel& kernel,
                      sim::LaunchOptions lopt, const DevicePlanesT<T>& out,
                      const std::function<xray::KernelModel()>& make_model) {
  const ConvPlan& plan = kernel;
  if (lopt.plan_key.empty()) lopt.plan_key = plan.key;
  if (make_model && lopt.plan_cache != nullptr &&
      lopt.plan_static_signature == 0) {
    lopt.plan_static_signature =
        xray::memoized_signature(dev.arch(), plan.key, make_model);
  }
  if (lopt.fleet.devices > 1) lopt.fleet_hints = plan.fleet;
  sim::LaunchResult r = sim::launch(dev, kernel, plan.lc, lopt);
  if (lopt.profile) r.profile.hints = plan.hints;
  KernelRun run;
  run.add(plan.key.substr(0, plan.key.find('|')), std::move(r));
  if (run.seal()) {
    run.output = out.download();
    run.output_valid = true;
  }
  return run;
}

}  // namespace kconv::kernels
