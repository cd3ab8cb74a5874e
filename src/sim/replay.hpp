// Trace replay: per-class fast-forward execution of thread blocks.
//
// A ReplayRunner owns the launch's trace table (one ClassState per block
// equivalence class, trace.hpp). The first block of each class runs through
// the normal BlockExecutor with capture enabled; every later block of the
// class is *replayed*:
//
//   * Functional outputs come from the lane coroutines themselves, run in
//     fast-forward: memory operations note into a LaneRecorder without
//     suspending, so a lane executes a whole barrier-delimited segment in
//     one resume. Arithmetic is native C++ — outputs are bit-identical to
//     direct execution (loads/stores already apply at awaitable
//     construction, and kernels separate conflicting cross-lane shared
//     accesses with sync(), so per-lane order within a segment is free).
//   * Translation-invariant counters (bank conflicts, constant broadcasts,
//     instruction/byte counts, barriers, phases) are added from the trace.
//   * Address-dependent counters are recomputed against this block's own
//     addresses: the recorded transactions are regrouped from the replayed
//     lanes' access streams in the captured retire order and re-analyzed
//     through coalescing + L2 (and the constant cache), so cache behavior
//     matches direct execution exactly. Like direct execution, replay runs
//     one barrier segment at a time and consumes each segment's accesses
//     before the next runs, so a lane's recorder holds one segment's
//     global/constant accesses, never a whole block's.
//
// Kernels that additionally declare replay_origins (trace.hpp) get the
// coroutine-free tier on functional launches: the captured block is re-run
// once in tagging mode to record its load-compute-store dataflow, the
// first replayed block of the class runs in fast-forward and is checked
// event-by-event against the rebased tape, and every block after that is
// produced by interpreting the tape directly — a tight vectorized loop
// over wide multiply-add entries, with global/constant offsets rebased by
// the per-buffer origin deltas. Stats for tape blocks are the class's
// invariant + compute deltas (both class-invariant by congruence).
//
// Congruence is verified, not assumed: each segment's accesses must fill
// exactly that segment's recorded transactions, and each lane's
// event-stream hash and event count must match the trace, otherwise
// kconv::Error reports a "replay congruence violation" naming the
// misdeclared replay_class. See docs/MODEL.md §5b.
#pragma once

#include <unordered_map>
#include <vector>

#include "src/sim/block_exec.hpp"
#include "src/sim/pattern_cache.hpp"
#include "src/sim/plan_io.hpp"
#include "src/sim/trace.hpp"

namespace kconv::sim {

/// Maps a block index to its equivalence class. Empty = no hook declared:
/// every block unique, replay never engages (exact legacy behavior).
using BlockClassifier = std::function<u64(Dim3)>;

/// Fills a block's per-buffer address anchors (the kernel's replay_origins
/// hook). Empty = kernel not relocatable: replay stays on fast-forward.
using ReplayOriginsFn = std::function<void(Dim3, ReplayOrigins&)>;

/// Runs the blocks of one launch (or one parallel chunk — the trace table
/// is as local as the caches it probes), capturing the first block of each
/// class and replaying the rest.
class ReplayRunner {
 public:
  /// `pattern` (optional) memoizes the chunk's warp access-pattern analysis
  /// for both captured and replayed blocks (docs/MODEL.md §5c).
  /// `analytic` (docs/MODEL.md §5d) serves every block of a known class
  /// straight from the class trace: invariant + compute + the captured
  /// addr_dep counters, no coroutines, no functional memory. Class
  /// representatives still execute (and capture) normally on a cold class.
  /// Diagnostic launches (hazard check, phase profile) never build a
  /// runner: they execute every block (docs/MODEL.md §6, §7).
  ReplayRunner(const Arch& arch, const LaunchConfig& cfg, TraceLevel trace,
               u64 max_rounds,
               const BlockClassifier& classify, const ReplayOriginsFn& origins,
               PatternCache* pattern = nullptr, bool analytic = false);

  /// Executes or replays `block_idx` on `lanes`, the chunk's LaneSet,
  /// accumulating into `stats` exactly what the direct path would have
  /// (serially, including cache counters).
  /// Tape-served blocks may be deferred for batched interpretation — call
  /// finish() after the last block to flush them.
  void run(LaneSet& lanes, Dim3 block_idx, L2Cache* const_cache,
           L2Cache& gm_l2, KernelStats& stats);

  /// Flushes tape blocks still queued for batched interpretation. Their
  /// outputs and stats land only after this runs.
  void finish(KernelStats& stats);

  u64 blocks_replayed() const { return blocks_replayed_; }

  /// Seeds the class table from a warm plan (docs/MODEL.md §5d) before any
  /// block runs: primed classes replay from block one with zero
  /// representative execution. Tapes are adopted only on the launch modes
  /// that would have captured them, with origin anchors re-resolved against
  /// the live kernel's replay_origins for the captured block (plans store
  /// no addresses). A tape the capturing launch validated is trusted
  /// outright (every block goes to the batched interpreter); an
  /// unvalidated one is fast-forward-checked by this launch's first
  /// replayed block of the class before the class trusts it.
  void prime(const LaunchPlan& plan);

  /// Move variant for launch paths whose plan is not reused afterwards
  /// (the serial runner): adopts traces and tapes without the multi-
  /// megabyte copies. Leaves `plan.classes` empty so a later export
  /// re-exports everything from live runner state.
  void prime(LaunchPlan&& plan);

  /// Appends this runner's captured classes (skipping ids already in
  /// `plan`) sorted by id, so merged multi-chunk exports are deterministic.
  void export_plan(LaunchPlan& plan) const;

  /// True when any class was captured by execution in this run — the
  /// signal that the store holds less than this runner now knows.
  bool captured_fresh() const { return captured_fresh_; }

 private:
  /// Everything a class accumulates: the capture trace, and (on functional
  /// launches of relocatable kernels) the dataflow tape plus its
  /// validation status.
  struct ClassState {
    BlockTrace trace;
    FuncTape tape;
    ReplayOrigins origins;  // anchors declared for the captured block
    bool tape_ready = false;
    bool validated = false;
    /// Blocks queued for batched tape interpretation: per-origin base
    /// pointers, already rebased and prologue-validated at enqueue time.
    struct PendingBlock {
      const std::byte* rbase[ReplayOrigins::kMaxOrigins];
      std::byte* wbase[ReplayOrigins::kMaxOrigins];
    };
    std::vector<PendingBlock> pending;
  };

  /// Tape blocks interpreted per batch: the batch dimension is the
  /// innermost stride of the interpreter's register file, so entry dispatch
  /// and tape streaming amortize over the batch while the multiply-add
  /// loops vectorize across it (congruent blocks share one tape; only the
  /// origin base pointers differ).
  static constexpr u32 kTapeBatch = 32;

  /// Fast-forwards `block_idx` against its class trace one barrier segment
  /// at a time, consuming each segment's global/constant accesses before
  /// the next runs: the Timing transaction walk and, for an unvalidated
  /// tape, its relocation check.
  void replay(LaneSet& lanes, Dim3 block_idx, const ClassState& cs,
              L2Cache* const_cache, L2Cache& gm_l2, KernelStats& stats);
  /// Walks the segment's transactions (a prefix of trace.txs from
  /// `next_tx`) through the address-dependent analyzers; returns the index
  /// of the first transaction of a later segment.
  std::size_t walk_segment(LaneSet& lanes, Dim3 block_idx,
                           const BlockTrace& trace, std::size_t next_tx,
                           L2Cache* const_cache, L2Cache& gm_l2,
                           KernelStats& stats);
  /// Analytic serving: charges the class's invariant + compute + addr_dep
  /// deltas without touching memory.
  void serve_analytic(const ClassState& cs, KernelStats& stats);
  /// Re-runs the captured block in tagging mode, filling cs.tape.
  void capture_tape(LaneSet& lanes, Dim3 block_idx, ClassState& cs);
  /// Checks the segment's recorded accesses against the tape rebased on
  /// `o`, event by event, advancing each lane's tape cursor.
  void validate_tape_segment(const LaneSet& lanes, Dim3 block_idx,
                             const ClassState& cs, const ReplayOrigins& o);
  /// After the last segment: no lane's tape may hold unmatched accesses.
  void finish_tape_validation(Dim3 block_idx, const ClassState& cs);
  /// Validates this block's origins against the tape's per-origin spans
  /// and queues its rebased base pointers (flushing a full batch).
  void enqueue_tape(Dim3 block_idx, ClassState& cs, KernelStats& stats);
  /// Coroutine-free execution: interprets the tape once for every queued
  /// block and adds the class's invariant + compute deltas per block.
  void flush_tape(ClassState& cs, KernelStats& stats);
  template <u32 NB>
  void run_tape_batch(const ClassState& cs, u32 batch);
  /// This block's origins, checked shape-congruent with the captured ones.
  ReplayOrigins resolve_origins(Dim3 block_idx, const ClassState& cs) const;

  const Arch& arch_;
  const LaunchConfig& cfg_;
  TraceLevel trace_level_;
  u64 max_rounds_;
  const BlockClassifier& classify_;
  const ReplayOriginsFn& origins_fn_;
  PatternCache* pattern_;

  bool analytic_ = false;
  std::unordered_map<u64, ClassState> classes_;
  u64 blocks_replayed_ = 0;
  bool captured_fresh_ = false;

  std::vector<LaneTapeBuilder> builders_;
  // Tape-interpreter scratch: value slots and shared memory, both laid out
  // with the batch as the innermost dimension, plus per-lane tape cursors
  // (also the relocation check's).
  std::vector<float> regs_;
  std::vector<float> smem_batch_;
  std::vector<u32> tape_cursors_;
};

}  // namespace kconv::sim
