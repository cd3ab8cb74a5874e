// kconv-xray: symbolic static kernel analysis (docs/MODEL.md §10).
//
// A KernelModel describes a kernel as a list of *access sites* (one per
// static memory instruction in the source) plus an `emit` function that
// re-derives every lane's address affinely from the launch config and the
// block index — no Device, no coroutines, no functional memory. The engine
// walks the emitted instruction stream exactly like the dynamic executor
// walks retired warp transactions: per instruction, per warp, the lanes'
// accesses retire through the executor's own charge rule
// (src/sim/charge.hpp, with no caches), segments close and arithmetic is
// attributed through the same rule, so the predicted counters are
// bit-equal to an executed launch by construction. What cross-validation
// still checks is what differs: the describer's address program against
// the kernel's (`cross_validate`, docs/MODEL.md §10).
//
// On top of the counter prediction the engine derives, per access site:
//   * bank-conflict degree under the native, 4-byte and 8-byte bank modes
//     (the paper's §2.1 Kepler-vs-Fermi axis),
//   * GM coalescing sector counts (§2.2),
//   * a barrier-interval may-overlap analysis over shared-memory ranges
//     that classifies every smem site pair as definite-race /
//     possible-race / proven-disjoint,
// and paper-cited findings in the style of the kconv-check linter.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/analysis/diagnostics.hpp"
#include "src/common/types.hpp"
#include "src/sim/arch.hpp"
#include "src/sim/config.hpp"
#include "src/sim/dim.hpp"
#include "src/sim/event.hpp"
#include "src/sim/stats.hpp"

namespace kconv::xray {

/// One lane's slot in a modeled warp instruction. `pred == false` mirrors a
/// predicated-off lane (`ld_global_if` with a false guard): the executor
/// sees an empty Access{op, 0, 0} for it, and the counter engine does the
/// same. `addr`/`bytes` still carry the would-be access, and `pred_any`
/// widens the predicate to "active in SOME block of the grid" (its
/// block-invariant part): the superset race pass reasons over pred_any so
/// edge-block predicates are covered without inventing accesses no block
/// ever issues.
struct LaneAccess {
  u64 addr = 0;
  u32 bytes = 0;
  bool pred = true;      ///< active in the block being modeled
  bool pred_any = true;  ///< active in at least one block of the grid
};

/// One static memory instruction of the kernel source.
struct SiteDecl {
  std::string name;       ///< stable kebab-case id, e.g. "img-stage-sm-store"
  sim::Op op = sim::Op::Sync;
  std::string citation;   ///< paper section grounding this access pattern
  /// True when the site's addresses depend on runtime data (none of the
  /// shipping kernels have such sites — every predicate and index is a pure
  /// function of launch config and block id). Data-dependent sites demote
  /// race verdicts to possible-race and are excluded from the exact
  /// cross-validation contract.
  bool data_dependent = false;
};

/// Aggregated per-site profile over the analyzed blocks.
struct SiteStats {
  u64 instrs = 0;         ///< retired warp transactions (all-off groups skipped)
  u64 live_lanes = 0;     ///< predicated-on lane slots across those instrs
  u64 lane_bytes = 0;     ///< bytes the live lanes asked for
  u64 unique_bytes = 0;   ///< smem: distinct bytes moved across banks
  u64 request_cycles = 0;      ///< smem, native bank mode
  u64 request_cycles_4b = 0;   ///< smem, forced 4-byte banks (Fermi/Maxwell)
  u64 request_cycles_8b = 0;   ///< smem, forced 8-byte banks (Kepler)
  u32 max_conflict_degree = 0; ///< worst single-instruction cycles, native
  u64 sectors = 0;        ///< gm: distinct 32B sectors requested
  u64 const_requests = 0; ///< const: serialized broadcast requests
};

enum class RaceVerdict : u8 { ProvenDisjoint, PossibleRace, DefiniteRace };
const char* race_verdict_name(RaceVerdict v);  // kebab-case, stable

/// Verdict for one unordered smem site pair (site_a <= site_b).
struct RacePair {
  u32 site_a = 0;
  u32 site_b = 0;
  RaceVerdict verdict = RaceVerdict::ProvenDisjoint;
  /// True when the two sites ever touch a common smem byte with at least
  /// one write inside one barrier interval (disjoint pairs that never
  /// overlap have this false).
  bool overlap = false;
  u64 witness_addr = 0;  ///< first conflicting byte (non-disjoint verdicts)
};

/// A paper-cited static finding, in the spirit of analysis::LintFinding but
/// anchored to an access site.
struct Finding {
  std::string site;  ///< site name, or "" for launch-level findings
  std::string kind;  ///< kebab-case, stable (pinned by the schema tests)
  analysis::Severity severity = analysis::Severity::Info;
  double value = 0.0;
  double threshold = 0.0;
  std::string message;
  std::string remediation;
  std::string citation;
};

class ModelSink;

/// The symbolic description of one kernel launch.
struct KernelModel {
  std::string kernel;  ///< e.g. "general_conv"
  sim::LaunchConfig cfg;
  std::vector<SiteDecl> sites;
  /// The §3/§4 communication lower bound in GM bytes (input + filters +
  /// output each moved once); 0 when the kernel states no bound.
  double min_gm_bytes = 0.0;
  /// Emits the block's full instruction stream, in program order, into the
  /// sink. Each `site` call covers EVERY lane of the block (the kernels are
  /// lockstep: loop bounds are thread-independent); each `sync` is one
  /// block-wide barrier. Must be a pure function of (cfg, arch, block).
  std::function<void(sim::Dim3 block, ModelSink& sink)> emit;
};

/// Receives the modeled instruction stream of one block.
class ModelSink {
 public:
  virtual ~ModelSink() = default;
  /// One warp-synchronous instruction at `site`; `lanes.size()` must equal
  /// the block's lane count.
  virtual void site(u32 site, std::span<const LaneAccess> lanes) = 0;
  virtual void sync() = 0;
  /// Arithmetic issued uniformly by every lane (warp-attributed like the
  /// executor: lane ops sum, warp instrs take the per-warp max). Only
  /// *explicit* kernel arithmetic goes here — the one address-computation
  /// ALU op ThreadCtx charges per taken global/shared access is derived by
  /// the engine from each site's predicates automatically.
  virtual void fma(u64 lane_ops) = 0;
  virtual void alu(u64 lane_ops) = 0;
};

struct XrayOptions {
  /// Flat block ids to analyze (empty = the whole grid). The autotuner
  /// passes the same evenly spaced sample the launch layer would execute.
  std::vector<u64> block_ids;
  /// Run the barrier-interval may-overlap analysis (two extra passes over
  /// the first analyzed block).
  bool races = true;
  /// Score each smem site under forced 4-byte and 8-byte banks too.
  bool dual_bank_modes = true;
  /// Derive paper-cited findings from the site profiles.
  bool findings = true;
};

/// Everything the static pass derives for one launch.
struct StaticReport {
  std::string kernel;
  sim::LaunchConfig cfg;
  std::vector<SiteDecl> sites;
  std::vector<SiteStats> site_stats;   // parallel to `sites`
  /// Every unordered smem site pair, classified. Pairs that never overlap
  /// are ProvenDisjoint with overlap == false.
  std::vector<RacePair> races;
  /// Predicted dynamic counters. Exact fields per the cross-validation
  /// contract; gm_sectors_dram / const_line_misses / pattern counters stay
  /// 0 (cache-state-dependent — see docs/MODEL.md §10).
  sim::KernelStats predicted;
  u64 blocks_analyzed = 0;
  u64 blocks_total = 0;
  bool sampled = false;
  double min_gm_bytes = 0.0;
  double gm_bytes_moved = 0.0;  ///< predicted sectors x sector bytes
  /// FNV-1a over the first analyzed block's site profile + launch geometry:
  /// the kernel's static access signature (plan-cache pre-validation).
  u64 signature = 0;
  std::vector<Finding> findings;

  /// No definite races and no findings at Warning or above.
  bool clean() const;
};

/// Runs the symbolic analysis. Throws kconv::Error on malformed models
/// (site index out of range, lane count mismatch).
StaticReport analyze(const sim::Arch& arch, const KernelModel& model,
                     const XrayOptions& opt = {});

/// The block-0-only access signature — the cheap entry the kernel runners
/// call when a plan cache is attached. Equal to `analyze(...).signature`
/// whenever block 0 is the first analyzed block.
u64 static_signature(const sim::Arch& arch, const KernelModel& model);

/// static_signature behind a process-wide memo: `make` builds the model
/// (and the block-0 symbolic walk runs) only the first time a given
/// (`key`, signature-relevant arch geometry) combination is seen.
/// `key` must uniquely determine the model — the kernel runners pass
/// their plan key, which folds in every access-shaping parameter.
/// Thread-safe; keeps warm/analytic launch paths from paying a
/// block's worth of symbolic execution per launch.
u64 memoized_signature(const sim::Arch& arch, const std::string& key,
                       const std::function<KernelModel()>& make);

/// Static-vs-dynamic counter comparison (the cross-validation contract,
/// docs/MODEL.md §10): sim::stats_mismatches at StatsLevel::Schedule — the
/// counter table in MODEL.md §1 says which counters that compares — or at
/// StatsLevel::Analytic under `analytic` launches, whose dynamic
/// gm_sectors is served from the class representative.
struct CrossCheck {
  bool ok = true;
  std::vector<std::string> mismatches;  // "field: static=X dynamic=Y"
};
CrossCheck cross_validate(const StaticReport& rep,
                          const sim::KernelStats& dyn, bool analytic);

/// Human-readable report ("=== kconv-xray ===" ... verdict line).
std::string format_static(const StaticReport& rep);

/// JSON object (no trailing newline), members indented by `indent` spaces —
/// same embedding convention as analysis::to_json.
std::string to_json(const StaticReport& rep, int indent = 0);

}  // namespace kconv::xray
