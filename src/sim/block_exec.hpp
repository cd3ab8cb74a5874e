// BlockExecutor — runs one thread block in lockstep warps.
//
// Scheduling model: execution proceeds in barrier-delimited segments. Each
// live lane runs to its next sync() (or completion) in one resume, writing
// its memory events into its warp's round-major log (trace.hpp WarpEvents);
// the logs then retire in lockstep rounds. Row k of a warp holds the k-th
// event of each of its lanes: when every lane holds one and all share an
// operation kind, the row retires in place as ONE warp transaction through
// the space-specific analyzer. Ragged rows (lanes that ended the segment
// early) are gathered from the lanes that hold an event, and mixed kinds
// (branch divergence) retire as separate subgroups, modeling hardware
// replay. A barrier releases once every live lane of the block has reached
// it.
//
// A launch chunk runs all of its blocks through one LaneSet, which keeps
// the lanes, recorders, shared memory, retire scratch and coroutine frames
// from block to block (docs/MODEL.md §5).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "src/profile/phase.hpp"
#include "src/sim/arch.hpp"
#include "src/sim/coalescing.hpp"
#include "src/sim/config.hpp"
#include "src/sim/l2cache.hpp"
#include "src/sim/stats.hpp"
#include "src/sim/task.hpp"
#include "src/sim/thread_ctx.hpp"

namespace kconv::analysis {
class BlockChecker;
}  // namespace kconv::analysis

namespace kconv::profile {
class BlockProfiler;
}  // namespace kconv::profile

namespace kconv::sim {

struct BlockTrace;
class PatternCache;

/// Type-erased kernel body: builds one lane's coroutine from its context.
using KernelBody = std::function<ThreadProgram(ThreadCtx&)>;

/// The lane state of one launch chunk (docs/MODEL.md §5): one lane per
/// block thread with its coroutine and ThreadCtx, one LaneRecorder per lane
/// writing its column of its warp's WarpEvents log (row k = the k-th event
/// of every lane of the warp), the block's shared memory, the retire
/// scratch, and a FramePool for the lane coroutines. run_chunk builds one
/// per chunk; run_block and ReplayRunner run every block of the chunk
/// through it, so the logs' storage blocks, frames and scratch carry over
/// and after its first block a chunk makes no per-block lane, log, frame or
/// scratch allocations. Every start_*() rebuilds every lane (fresh
/// ThreadCtx, new coroutine, reset recorder) and zeroes shared memory, so a
/// block sees exactly the state a freshly allocated one would. Not shared
/// between threads; nothing in it outlives the chunk.
class LaneSet {
 public:
  LaneSet(const Arch& arch, const KernelBody& body, const LaunchConfig& cfg);
  LaneSet(const LaneSet&) = delete;
  LaneSet& operator=(const LaneSet&) = delete;

  const Arch& arch() const { return arch_; }
  u32 size() const { return static_cast<u32>(lanes_.size()); }
  u32 warps() const { return static_cast<u32>(warps_.size()); }

  /// Direct execution: each recorder keeps its lane's whole segment
  /// stream, capped at `event_cap` events.
  void start_stream(Dim3 block_idx, u32 event_cap, bool profile);
  /// Replay: recorder t hashes every event, keeps the global/constant ones
  /// and is capped at `lane_events[t]`, the captured lane's event count.
  void start_replay(Dim3 block_idx, std::span<const u32> lane_events);
  /// Tagging: lane t notes into `builders[t]` instead of a recorder.
  void start_tape(Dim3 block_idx, std::span<LaneTapeBuilder> builders);

  /// Resumes lane t to its next barrier or to its end; true when it ended
  /// in this resume. Rethrows an exception escaping the kernel body.
  bool resume(u32 t);
  bool done(u32 t) const { return lanes_[t].done; }
  bool all_done() const { return done_count_ == size(); }
  /// One barrier segment: clears every recorder, ended lanes included, then
  /// resumes each live lane to its next barrier or to its end, so the logs
  /// hold exactly this segment's events.
  void run_segment();
  /// Fast-forward: run_segment() until every lane has ended.
  void run_to_end();

  // --- The last segment's events (valid until the next run_segment) ------

  /// Events lane t kept this segment.
  u32 seg_len(u32 t) const { return seg_len_[t]; }
  /// Rounds every lane of warp w holds an event for (its shortest lane).
  u32 full_rounds(u32 w) const { return full_rounds_[w]; }
  /// Rounds some lane of warp w holds an event for (its longest lane).
  u32 rounds(u32 w) const { return rounds_[w]; }
  /// Row k of warp w: lane lo + i's k-th event at index i, valid for the
  /// lanes with seg_len > k.
  std::span<const Access> row(u32 w, u32 k) const { return warps_[w].row(k); }
  /// Lane t's k-th event, k < seg_len(t).
  const Access& event(u32 t, u32 k) const { return recorders_[t].event(k); }

  LaneRecorder& recorder(u32 t) { return recorders_[t]; }
  const LaneRecorder& recorder(u32 t) const { return recorders_[t]; }
  /// Warp w's event log.
  const WarpEvents& warp_events(u32 w) const { return warps_[w]; }
  /// Lane t's per-phase arithmetic (bound only on profiling starts).
  const profile::LaneProfile& lane_profile(u32 t) const {
    return profiles_[t];
  }
  /// Lane t's event-stream hash; run_block folds into it when capturing.
  u64& hash(u32 t) { return lanes_[t].hash; }

  /// Charges the block's arithmetic at warp granularity: a warp
  /// instruction covers up to warp_size lane-ops, and a warp is as slow as
  /// its busiest lane (recorder event counts are the retired events).
  void charge_compute(KernelStats& stats) const;

  /// Retire scratch reused by every block of the chunk.
  struct Scratch {
    std::vector<Access> group;
    std::vector<Access> sub;
    std::vector<u32> group_lanes;
    std::vector<u32> sub_lanes;
    /// 0 .. size() - 1: the lane ids of an in-place retired row.
    std::vector<u32> lane_ids;
    /// Per lane: replay's transaction cursor into the segment's events.
    std::vector<u32> cursor;
    /// Per lane: index of the segment's first event in the lane's stream.
    std::vector<u32> seg_base;
    /// Per lane: the lane profile as last drained into the profiler.
    std::vector<profile::LaneProfile> prev_profiles;
    GmemCost gmem;
  };
  Scratch scratch;

 private:
  struct Lane {
    ThreadProgram prog;
    ThreadCtx ctx;
    bool done = false;
    u64 hash = kTraceHashInit;  // event-stream hash (capture mode only)
  };

  template <typename Bind>
  void start(Dim3 block_idx, bool profile, Bind&& bind);

  const Arch& arch_;
  const KernelBody& body_;
  const LaunchConfig& cfg_;
  // Declared before the lanes so the lanes' frames return to it before it
  // frees them.
  FramePool frames_;
  // Sized once: lanes must not relocate while coroutines hold their ctx,
  // nor logs while recorders point into them.
  std::vector<Lane> lanes_;
  std::vector<WarpEvents> warps_;
  std::vector<LaneRecorder> recorders_;
  std::vector<profile::LaneProfile> profiles_;
  std::vector<std::byte> smem_;
  std::vector<u32> seg_len_;
  std::vector<u32> full_rounds_;
  std::vector<u32> rounds_;
  u32 done_count_ = 0;
};

/// Executes the block at `block_idx` on `lanes` and accumulates its
/// statistics.
///
/// `const_cache` models the per-SM constant cache (pass nullptr to treat
/// every constant line as resident); `gm_l2` is the L2 the block's global
/// sectors probe — the device's own L2 on the serial path, a per-worker
/// shadow on parallel launches. Throws kconv::Error on device faults
/// (OOB/misaligned accesses, runaway loops) and rethrows exceptions escaping
/// the kernel body.
///
/// When `capture` is non-null the executor additionally records the block's
/// replayable trace (trace.hpp): its global/constant warp transactions in
/// retire order and each lane's event-stream hash. Execution itself is
/// unchanged — a captured block charges exactly what it would have anyway.
///
/// `pattern` (optional) memoizes the shared/global analyzers across the
/// chunk's warp transactions (docs/MODEL.md §5c); nullptr re-runs them on
/// every transaction. Either way the counters are bit-identical.
///
/// `checker` (optional) runs the shadow-state hazard detector over the
/// block (docs/MODEL.md §6): every retired access is fed in retire order,
/// each barrier release advances its epoch. Purely observational — outputs,
/// counters and retire order are bit-identical with or without it.
///
/// `prof` (optional) charges the block's costs to kconv-prof phases
/// (docs/MODEL.md §7): each retired transaction goes to the phase stamped
/// on its accesses, lane arithmetic is drained per phase at every barrier,
/// and barrier releases land on the sync phase. Purely observational like
/// the checker — the base counters are charged identically either way.
void run_block(LaneSet& lanes, Dim3 block_idx, TraceLevel trace,
               u64 max_rounds, L2Cache* const_cache, L2Cache& gm_l2,
               KernelStats& stats, BlockTrace* capture = nullptr,
               PatternCache* pattern = nullptr,
               analysis::BlockChecker* checker = nullptr,
               profile::BlockProfiler* prof = nullptr);

}  // namespace kconv::sim
