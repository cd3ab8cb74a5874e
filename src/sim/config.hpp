// Launch configuration and execution options.
#pragma once

#include <string>

#include "src/common/types.hpp"
#include "src/obs/scope.hpp"
#include "src/sim/dim.hpp"
#include "src/sim/transfer.hpp"

namespace kconv::sim {

class PlanCache;

/// What the executor records while running device code.
enum class TraceLevel : u8 {
  /// Functional semantics only — fastest; stats stay near-empty.
  Functional,
  /// Full transaction analysis feeding the timing model.
  Timing,
};

/// The per-launch geometry and resource declaration (CUDA's <<<...>>>).
struct LaunchConfig {
  Dim3 grid;
  Dim3 block;
  /// Dynamic shared memory per block, bytes (from SharedLayout::size()).
  u32 shared_bytes = 0;
  /// Register estimate per thread; drives the occupancy model the way the
  /// compiler-reported register count does on real hardware.
  u32 regs_per_thread = 32;
};

/// Host-side execution options.
struct LaunchOptions {
  TraceLevel trace = TraceLevel::Timing;
  /// When > 0 and less than the grid size, execute only this many evenly
  /// spaced blocks and scale the timing estimate (benchmark mode — blocks of
  /// the kconv kernels are statistically identical). Functional output of
  /// skipped blocks is NOT produced.
  u64 sample_max_blocks = 0;
  /// Host worker threads simulating the grid's blocks. 1 (default) is the
  /// exact-legacy serial path: every block runs through the device's single
  /// L2 and one shared constant cache. >1 shards the block list into
  /// contiguous chunks, each with its own L2 shadow and constant-cache
  /// replica (closer to real concurrent SMXs; see docs/MODEL.md §5a —
  /// outputs and all non-cache counters are identical to the serial path).
  /// 0 means std::thread::hardware_concurrency().
  u32 num_threads = 1;
  /// Trace-capture block replay (docs/MODEL.md §5b): run the scheduler once
  /// per block equivalence class and fast-forward the remaining blocks,
  /// re-analyzing only their address-dependent costs. Takes effect only for
  /// kernels that declare a replay_class hook; outputs stay bit-identical
  /// and serial-launch counters exact. Off by default (exact legacy path).
  /// Ignored under hazard_check and profile: a diagnostic launch executes
  /// every block.
  bool replay = false;
  /// Memoize warp access-pattern analysis (docs/MODEL.md §5c): each launch
  /// chunk keys warp transactions by a translation-invariant signature and
  /// reuses the analyzer outputs (bank replay factor, relative sector
  /// layout) across repeats. Results are bit-identical with the cache on or
  /// off; disabling it is an A/B escape hatch (`--no-pattern-cache`).
  bool pattern_cache = true;
  /// Run the shadow-state hazard detector (docs/MODEL.md §6) alongside
  /// execution: shared-memory races within a block (same barrier epoch,
  /// different warps — or unordered intra-warp pairs) and cross-block
  /// global-memory write overlaps land in LaunchResult::analysis.
  /// Simulation outputs and all existing counters are unchanged. A checked
  /// launch executes every block: replay and the plan store stay off.
  /// Incompatible with `analytic`.
  bool hazard_check = false;
  /// Run the memory-efficiency lints (docs/MODEL.md §6) over the launch's
  /// aggregate statistics. Requires a Timing trace (the lints read the
  /// transaction counters); findings land in LaunchResult::analysis.
  bool lint = false;
  /// kconv-prof (docs/MODEL.md §7): collect per-phase counter deltas,
  /// block timelines, and the roofline attribution into
  /// LaunchResult::profile. Purely observational — outputs and every
  /// pre-existing counter are bit-identical with this on or off, in all
  /// launch modes (enforced by tests/profile/profile_identity_test.cpp).
  /// A profiled launch executes every block: replay and the plan store
  /// stay off. Incompatible with `analytic`.
  bool profile = false;
  /// With `profile` on, record an ordered phase timeline (for the Perfetto
  /// exporter) for the first this-many executed blocks of the launch, by
  /// launch iteration index.
  u64 profile_timeline_blocks = 8;
  /// Safety valve against runaway device programs (resume rounds per block).
  u64 max_rounds_per_block = 50'000'000;
  /// Cross-launch plan persistence (docs/MODEL.md §5d): when set together
  /// with a non-empty `plan_key` on a replay-capable launch, captured class
  /// traces (and, in a sidecar, their tapes) are loaded from and saved to
  /// this store, so a repeated launch replays every block with zero
  /// representative execution. An attached store implies `replay`: only a
  /// replaying launch reads or writes it. Stale or corrupt stores fall back
  /// to capture (LaunchResult::plan_cache_status says why) — never silently
  /// wrong. Ignored, like `replay`, under hazard_check and profile.
  PlanCache* plan_cache = nullptr;
  /// Caller-provided kernel+shape identity for the plan store. The launch
  /// layer qualifies it with arch, grid/block geometry and trace level;
  /// kernel runners must fold in every parameter that changes the kernel's
  /// access pattern (and bump their embedded version tag when the kernel
  /// code itself changes).
  std::string plan_key;
  /// kconv-xray pre-validation (docs/MODEL.md §10): the static access
  /// signature of the kernel about to launch. When non-zero, a loaded plan
  /// whose recorded signature is non-zero and different is rejected as
  /// "stale-static-signature" (capture predates a kernel change the key's
  /// version tag missed), and fresh captures are stored carrying this
  /// value. 0 (default) disables the check and stores 0. Kernel runners
  /// with an xray describer fill it automatically when a plan cache is
  /// attached.
  u64 plan_static_signature = 0;
  /// Analytic execution (docs/MODEL.md §5d): serve every non-representative
  /// block's counters straight from its class trace — no lane coroutines,
  /// no functional memory, no output tensors (callers must not download).
  /// Translation-invariant counters and the compute attribution stay exact;
  /// the address-dependent counters (gm_sectors, gm_sectors_dram,
  /// const_line_misses) are the representative's values scaled by block
  /// count — approximate. Requires a replay_class kernel; implies replay.
  /// Incompatible with hazard_check and profile.
  bool analytic = false;
  /// Multi-device sharding (docs/MODEL.md §9): fleet.devices > 1 splits the
  /// grid across N simulated devices by fleet.strategy, each shard running
  /// against its own Device (cold L2/constant caches) with a modeled
  /// host<->device staging + device<->device halo transfer ledger. Outputs
  /// stay byte-identical and scheduling-invariant counters exact versus
  /// devices == 1 (same contract as num_threads, §5a). Unsupported with
  /// `analytic` (no per-block execution to shard) and with sampling.
  FleetOptions fleet;
  /// Shard-axis geometry, filled by kernel runners (conv2d and friends)
  /// before the launch; direct launch() callers sharding a raw kernel must
  /// fill it themselves. Required for channel/spatial strategies and for
  /// the transfer ledger; a Batch fleet without hints still shards but
  /// stages nothing.
  FleetHints fleet_hints;
  /// kconv-scope (docs/MODEL.md §11): request-scoped telemetry handle.
  /// Default state is off (null sink) and every hook is a guarded append,
  /// so outputs and all scheduling-invariant counters are byte-identical
  /// with telemetry on or off, in every launch mode. The serving driver
  /// mints trace = request id; run_graph re-parents the scope per node;
  /// the launch layer records its span, the §5d plan-cache outcome, and
  /// one event per fleet device chunk.
  obs::TelemetryScope telemetry;

  /// Empty when these options can launch, else the reason they cannot.
  /// Covers the exclusions that hold for every grid: the hazard checker
  /// and the phase profiler need real lane execution, analytic launches
  /// have no per-block execution to shard, and sampling would break the
  /// shard/transfer geometry. launch() throws with this reason, and also
  /// rejects an analytic launch of a kernel without a replay_class hook.
  std::string validate() const {
    if (analytic && hazard_check) {
      return "analytic launch cannot run the hazard checker";
    }
    if (analytic && profile) {
      return "analytic launch cannot run the phase profiler";
    }
    if (fleet.devices > 1 && analytic) {
      return "multi-device launch is unsupported with analytic execution";
    }
    if (fleet.devices > 1 && sample_max_blocks > 0) {
      return "multi-device launch cannot combine with block sampling";
    }
    return {};
  }
};

}  // namespace kconv::sim
