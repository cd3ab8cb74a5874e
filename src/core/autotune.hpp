// Design-space exploration for the kernels' tiling parameters.
//
// The paper's Table 1 ("best configurations of our general case convolution
// kernel... determined through design space exploration") is reproduced by
// sweeping {W, H, FTB, WT, FT, CSH} over a candidate grid, scoring each
// legal configuration on a sampled proxy problem, and reporting the
// fastest. Illegal combinations (divisibility, register/shared-memory
// capacity) are skipped, mirroring what a real DSE over launchable kernels
// does. The special-case {W, H} sweep runs through the same sweep; only the
// candidate space and the kernel calls differ.
#pragma once

#include <vector>

#include "src/kernels/general_conv.hpp"
#include "src/kernels/special_conv.hpp"
#include "src/sim/launch.hpp"
#include "src/sim/plan_cache.hpp"
#include "src/tensor/tensor.hpp"

namespace kconv::core {

struct GeneralSpace {
  std::vector<i64> block_w = {32, 64};
  std::vector<i64> block_h = {4, 8};
  std::vector<i64> ftb = {32, 64};
  std::vector<i64> wt = {8, 16};
  std::vector<i64> ft = {4, 8};
  std::vector<i64> csh = {1, 2};
};

/// One scored candidate of either kernel's sweep.
template <typename Config>
struct ScoredConfig {
  Config config;
  double gflops = 0.0;

  bool operator==(const ScoredConfig&) const = default;
};

/// The outcome of one design-space sweep, for either kernel.
template <typename Config>
struct AutotuneResult {
  ScoredConfig<Config> best;
  /// Every evaluated configuration, best first.
  std::vector<ScoredConfig<Config>> ranking;
  i64 evaluated = 0;
  i64 skipped = 0;  // illegal configurations rejected by the kernel
  /// Legal configurations the kconv-xray pre-pass (static_prune) ranked
  /// out before simulation (docs/MODEL.md §10). 0 when pruning was off.
  i64 pruned = 0;
  /// Host wall seconds the kconv-xray pre-pass took (steady_clock). 0 when
  /// pruning was off or the ranking came from the store. Neither persisted
  /// with the ranking nor printed by the CLI.
  double prepass_seconds = 0.0;
  /// The full ranking was served from a persisted plan store; no candidate
  /// was simulated. Scores are bit-identical to the cold sweep that wrote
  /// the entry (same arch, proxy, space, sampling and probe mode). A stored
  /// ranking is served only when it is a sorted, finite-scored ranking of
  /// distinct legal members of the requested space whose counts add up to
  /// the space size; anything else is re-swept and overwritten.
  bool from_plan_cache = false;
};

using ScoredGeneralConfig = ScoredConfig<kernels::GeneralConvConfig>;
using GeneralAutotuneResult = AutotuneResult<kernels::GeneralConvConfig>;
using ScoredSpecialConfig = ScoredConfig<kernels::SpecialConvConfig>;
using SpecialAutotuneResult = AutotuneResult<kernels::SpecialConvConfig>;

/// Sweeps the general-case kernel on a proxy problem with the given K.
/// `c`/`f`/`n` define the proxy (modest sizes keep the sweep fast; the
/// ranking is stable across problem sizes for fixed K, which is why the
/// paper tabulates per-K configurations).
///
/// Candidates are evaluated on `num_threads` host threads (0 = hardware
/// concurrency), each on a fresh Device cloned from `dev.arch()` so every
/// score is independent of sweep order; results are merged in enumeration
/// order, making the ranking identical for any thread count.
///
/// With `plans` set, the finished ranking is persisted keyed by (arch,
/// problem, space, sampling, probe mode); a warm call returns the stored
/// ranking without simulating a single candidate (from_plan_cache = true).
/// `analytic` runs the probes in analytic replay mode (docs/MODEL.md §5d):
/// scores keep the exact compute/smem counters and per-class approximate
/// GM counters — rankings on these proxies are unchanged, only cheaper.
/// Analytic probes also persist their plans in the store, so any later
/// sweep probing the same candidates reuses them (an interrupted sweep's
/// rerun, the pruned or unpruned twin, an overlapping space); plain probes
/// store nothing, so a plain sweep writes exactly one entry, its ranking.
/// Analytic and non-analytic sweeps are keyed separately.
///
/// `static_prune` (docs/MODEL.md §10) runs the kconv-xray symbolic pass
/// over every legal candidate first — no Device, no block execution —
/// scores each on the analytic time estimate of its predicted counters
/// (same sampled block ids the probe launch would run) on the sweep's host
/// threads, and simulates only the top half. Dominated configurations land
/// in `pruned` instead of the ranking; the winner is unchanged on the
/// shipping spaces (asserted by tests and the bench baseline), because the
/// static counters are the exact inputs the simulator's own timing model
/// consumes.
GeneralAutotuneResult autotune_general(sim::Device& dev, i64 k, i64 c, i64 f,
                                       i64 n, const GeneralSpace& space = {},
                                       u64 sample_blocks = 2,
                                       u32 num_threads = 0,
                                       sim::PlanCache* plans = nullptr,
                                       bool analytic = false,
                                       bool static_prune = false);

struct SpecialSpace {
  std::vector<i64> block_w = {64, 128, 256, 512};
  std::vector<i64> block_h = {2, 4, 8, 16};
};

/// Sweeps the special-case kernel's {W, H} (paper: best is 256 x 8) through
/// the same sweep as `autotune_general`: parallel evaluation, persistence,
/// analytic probes and static_prune behave identically.
SpecialAutotuneResult autotune_special(sim::Device& dev, i64 k, i64 f, i64 n,
                                       const SpecialSpace& space = {},
                                       u64 sample_blocks = 4,
                                       u32 num_threads = 0,
                                       sim::PlanCache* plans = nullptr,
                                       bool analytic = false,
                                       bool static_prune = false);

}  // namespace kconv::core
