// Common result type and plan-store stamp shared by the host-side kernel
// runners.
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

#include <string>

#include "src/analysis/static/xray.hpp"
#include "src/sim/launch.hpp"
#include "src/tensor/tensor.hpp"

namespace kconv::kernels {

/// Outcome of running a convolution/GEMM kernel on the simulator.
struct KernelRun {
  sim::LaunchResult launch;
  /// Functional output. Only populated when the launch executed every block
  /// (sampled benchmark runs skip the download; check output_valid).
  tensor::Tensor output;
  bool output_valid = false;
};

/// Stamps a runner's launch options for the plan store. `plan_key`
/// defaults to the kernel's canonical key. When a store is attached and the
/// caller set no signature, the launch carries the kernel's xray signature
/// (docs/MODEL.md §10), so a stored plan captured under a different access
/// pattern is rejected ("stale-static-signature"), not replayed. The
/// signature is memoized: `make_model` and its block-0 symbolic walk run
/// once per config per process.
template <typename MakeModel>
void stamp_plan(const sim::Arch& arch, const std::string& canonical_key,
                sim::LaunchOptions& lopt, const MakeModel& make_model) {
  if (lopt.plan_key.empty()) lopt.plan_key = canonical_key;
  if (lopt.plan_cache != nullptr && lopt.plan_static_signature == 0) {
    lopt.plan_static_signature =
        xray::memoized_signature(arch, canonical_key, make_model);
  }
}

}  // namespace kconv::kernels
