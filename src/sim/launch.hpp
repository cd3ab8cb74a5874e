// Kernel launch: the host-side entry point of the simulator.
//
//   sim::Device dev(sim::kepler_k40m());
//   MyKernel k{...views...};
//   auto res = sim::launch(dev, k, {.grid = {64}, .block = {256}});
//   // res.stats: transaction counts; res.timing: cycles / GFlop/s
//
// A kernel is any object invocable as `ThreadProgram operator()(ThreadCtx&)
// const`. Launches run every block by default (functional output complete);
// benchmark callers set LaunchOptions::sample_max_blocks to execute a
// deterministic, evenly spaced subset and scale the timing estimate.
// Every launch runs as a chunk plan: one chunk on the device's L2 (serial,
// the default), contiguous chunks on private L2 shadows
// (LaunchOptions::num_threads > 1), or one chunk per device
// (LaunchOptions::fleet). Each chunk keeps private stats, caches and replay
// state, merged once in chunk-index order, so outputs and all non-cache
// counters are bit-identical to the serial path; see docs/MODEL.md §5a.
#pragma once

#include <concepts>
#include <string>

#include "src/analysis/diagnostics.hpp"
#include "src/profile/collector.hpp"
#include "src/sim/block_exec.hpp"
#include "src/sim/device.hpp"
#include "src/sim/fleet.hpp"
#include "src/sim/replay.hpp"
#include "src/sim/timing.hpp"

namespace kconv::sim {

/// Anything that can produce a lane program from a thread context.
template <typename K>
concept DeviceKernel = requires(const K k, ThreadCtx& t) {
  { k(t) } -> std::same_as<ThreadProgram>;
};

/// Kernels opting into trace replay declare which blocks are congruent
/// (identical control flow, predication and shared-memory offsets; only
/// global/constant addresses may shift). See docs/MODEL.md §5b for the
/// contract — violations are detected at replay time, not silent.
template <typename K>
concept ReplayClassified = requires(const K k, Dim3 b) {
  { k.replay_class(b) } -> std::convertible_to<u64>;
};

/// Kernels additionally declaring per-block buffer anchors promise their
/// blocks are *relocatable*: congruent blocks' global/constant addresses
/// differ by exactly the per-buffer anchor deltas. Functional replay of
/// such kernels skips the lane coroutines entirely and interprets the
/// class's recorded dataflow tape (trace.hpp) on rebased addresses.
template <typename K>
concept ReplayRelocatable = requires(const K k, Dim3 b, ReplayOrigins& o) {
  { k.replay_origins(b, o) };
};

/// The set of blocks a launch executes: either the whole grid or a
/// deterministic, evenly spaced sample. Ids are computed on the fly — a
/// full-grid launch never materializes the (possibly multi-million-entry)
/// id list. The autotuner's kconv-xray pre-pass analyzes the same sampled
/// ids its probe launches run (docs/MODEL.md §10).
struct BlockSet {
  u64 count = 0;
  bool sampled = false;
  double stride = 1.0;

  static BlockSet pick(u64 blocks_total, u64 sample_max_blocks) {
    BlockSet set;
    if (sample_max_blocks > 0 && sample_max_blocks < blocks_total) {
      set.sampled = true;
      set.count = sample_max_blocks;
      // Deterministic even spacing, offset to avoid always hitting border
      // blocks (block 0 often touches image edges and is atypical).
      set.stride = static_cast<double>(blocks_total) / sample_max_blocks;
    } else {
      set.count = blocks_total;
    }
    return set;
  }

  u64 flat_id(u64 i) const {
    if (!sampled) return i;
    return static_cast<u64>((static_cast<double>(i) + 0.5) * stride);
  }
};

struct LaunchResult {
  /// Raw statistics over the blocks actually executed.
  KernelStats stats;
  /// Timing scaled to the full grid.
  TimingEstimate timing;
  u64 blocks_total = 0;
  u64 blocks_executed = 0;
  /// Blocks served by trace replay instead of per-event scheduling (always
  /// counted in blocks_executed too; 0 unless LaunchOptions::replay is set,
  /// neither hazard_check nor profile is, and the kernel declares a
  /// replay_class hook).
  u64 blocks_replayed = 0;
  bool sampled = false;
  /// Analytic launch (LaunchOptions::analytic): counters were served from
  /// class traces; output tensors were NOT materialized and the
  /// address-dependent counters are per-class approximations (§5d).
  bool analytic = false;
  /// A warm plan (LaunchOptions::plan_cache) seeded the class tables:
  /// every block of a planned class replayed with zero representative
  /// execution.
  bool plan_cache_hit = false;
  /// Why the store (when configured) did or did not serve: "hit", "miss",
  /// "corrupt", "corrupt-payload", "stale-version", "stale-key",
  /// "stale-arch", "stale-config", "stale-trace-level",
  /// "stale-static-signature" (the stored plan's kconv-xray signature
  /// disagrees with the launching kernel's, docs/MODEL.md §10), or
  /// "disabled" (non-replay launch, empty key, hazard_check or profile).
  /// Empty when no plan_cache was configured.
  std::string plan_cache_status;
  /// kconv-check results (docs/MODEL.md §6). Populated only when
  /// LaunchOptions::hazard_check and/or ::lint are set; analysis.clean()
  /// is the pass/fail verdict.
  analysis::AnalysisReport analysis;
  /// kconv-prof phase accounting (docs/MODEL.md §7). Populated only when
  /// LaunchOptions::profile is set; per-phase counters sum exactly to the
  /// matching fields of `stats` in every launch mode. Kernel runners fill
  /// profile.hints so the roofline attribution knows the paper bound that
  /// applies to the kernel that ran.
  profile::LaunchProfile profile;
  /// Multi-device sharding report (LaunchOptions::fleet.devices > 1):
  /// per-device blocks + transfer ledgers, the modeled fleet makespan, and
  /// the Demmel–Dinh communication-bound attribution (docs/MODEL.md §9).
  /// fleet.enabled is false on single-device launches.
  FleetResult fleet;
};

namespace detail {
/// Non-template core: validates the config, picks the block set, runs it.
/// `classify` and `origins` may be empty (hooks not declared).
LaunchResult launch_impl(Device& dev, const KernelBody& body,
                         const LaunchConfig& cfg, const LaunchOptions& opt,
                         const BlockClassifier& classify = {},
                         const ReplayOriginsFn& origins = {});
}  // namespace detail

/// Launches `kernel` over `cfg.grid` x `cfg.block` threads on `dev`.
template <DeviceKernel K>
LaunchResult launch(Device& dev, const K& kernel, const LaunchConfig& cfg,
                    const LaunchOptions& opt = {}) {
  BlockClassifier classify;
  ReplayOriginsFn origins;
  if constexpr (ReplayClassified<K>) {
    classify = [&kernel](Dim3 b) {
      return static_cast<u64>(kernel.replay_class(b));
    };
    if constexpr (ReplayRelocatable<K>) {
      origins = [&kernel](Dim3 b, ReplayOrigins& o) {
        kernel.replay_origins(b, o);
      };
    }
  }
  return detail::launch_impl(
      dev, [&kernel](ThreadCtx& t) { return kernel(t); }, cfg, opt, classify,
      origins);
}

}  // namespace kconv::sim
