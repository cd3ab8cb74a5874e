// Block traces for the capture/replay engine (docs/MODEL.md §5b).
//
// The kconv kernels issue congruent access patterns from every block of an
// equivalence class: identical control flow, identical predication masks,
// identical shared-memory offsets (SharedView addresses are block-local
// already), with only global/constant addresses shifted by the block
// origin. Running the scheduler once per class is therefore enough: the
// first block of a class is executed normally and leaves behind a
// BlockTrace; every later block of the class *replays* against it
// (replay.hpp), re-running only the address-dependent analyzers
// (coalescing + L2) on that block's own addresses and taking every
// translation-invariant counter from the trace.
#pragma once

#include <cstring>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/types.hpp"
#include "src/sim/dim.hpp"
#include "src/sim/event.hpp"
#include "src/sim/memory.hpp"
#include "src/sim/stats.hpp"

namespace kconv::sim {

// --- Event-stream hashing ------------------------------------------------
//
// Capture and replay both fold each lane's event stream (operation kind,
// width, shared-memory offset; sync points) into an FNV-1a hash. Equal
// hashes certify that a replayed block is congruent with the trace — the
// contract a replay_class declaration promises — so a misdeclared
// classifier is detected instead of silently producing wrong counters.

inline constexpr u64 kTraceHashInit = 1469598103934665603ull;

inline constexpr u64 trace_hash_fold(u64 h, u64 v) {
  h ^= v;
  h *= 1099511628211ull;
  return h;
}

/// Folds one lane event. Global/constant addresses are excluded — they are
/// the part that legitimately shifts between blocks of a class — while
/// shared-memory offsets (block-local, must match exactly) are included.
/// The profiling phase participates too, so congruent blocks also agree
/// on phase placement event for event.
inline constexpr u64 trace_hash_access(u64 h, const Access& a) {
  h = trace_hash_fold(h, (static_cast<u64>(a.op) << 40) |
                             (static_cast<u64>(a.phase) << 32) | a.bytes);
  if (a.op == Op::LoadShared || a.op == Op::StoreShared) {
    h = trace_hash_fold(h, a.addr);
  }
  return h;
}

/// One retired warp transaction whose cost depends on addresses (global or
/// constant): replay re-analyzes it against the replayed lanes' own
/// addresses. `lane_begin/lane_count` index BlockTrace::tx_lanes, listing
/// the lanes that participated, in the captured retire order.
struct ReplayTx {
  Op op;
  u32 lane_begin = 0;
  u32 lane_count = 0;
};

/// Everything recorded from the first executed block of a class.
struct BlockTrace {
  /// The captured block's counters split by replay class (split_by_class,
  /// docs/MODEL.md §1). `invariant` holds the translation-invariant ones
  /// (shared memory, constant broadcasts, instruction/byte counts,
  /// barriers, phase structure, divergence), added for every replayed
  /// block. `compute` holds the fma/alu/max_warp_instrs attribution —
  /// class-invariant, since congruent blocks execute identical control
  /// flow: fast-forward replay recounts it from the replayed lanes, the
  /// coroutine-free tape path adds it from here. `addr_dep` holds the
  /// address-dependent and cache-warmth counters: replay recomputes them
  /// against each block's own addresses, and only analytic launches (§5d)
  /// charge these captured values per served block.
  KernelStats invariant;
  KernelStats compute;
  KernelStats addr_dep;
  /// Global/constant transactions in retire order (= cache probe order).
  std::vector<ReplayTx> txs;
  std::vector<u32> tx_lanes;
  /// Per-lane congruence certificate: event-stream hash + retired events.
  std::vector<u64> lane_hash;
  std::vector<u32> lane_events;
  /// Block the trace was captured from (for diagnostics, and the block a
  /// warm-loaded plan re-resolves its origin anchors against).
  Dim3 captured_block{};
};

/// Round-major event storage for one warp of a LaneSet (docs/MODEL.md §5):
/// row k holds the k-th recorded event of every lane of the warp, in lane
/// order, so a lockstep round is one contiguous span the executor retires
/// in place. Rows live in storage blocks of kRows rows each — the growth
/// step — allocated on first use: never moved, never touched before a lane
/// writes them, and kept from block to block of a chunk.
class WarpEvents {
 public:
  static constexpr u32 kRows = 32;

  explicit WarpEvents(u32 width) : width_(width) {}

  /// Lanes in the warp (the last warp of a block may be partial).
  u32 width() const { return width_; }
  /// Rows allocated so far; only grows.
  u32 capacity() const { return static_cast<u32>(blocks_.size()) * kRows; }
  /// Row k; valid for lanes that recorded at least k + 1 events.
  std::span<const Access> row(u32 k) const {
    return {blocks_[k / kRows].get() + (k % kRows) * width_, width_};
  }
  const Access& at(u32 lane, u32 k) const { return row(k)[lane]; }
  /// First slot of storage block b, allocated on first use.
  Access* block(u32 b);

 private:
  /// Frees a storage block without destroying rows never written.
  struct FreeRows {
    void operator()(Access* rows) const { ::operator delete(rows); }
  };

  u32 width_;
  std::vector<std::unique_ptr<Access, FreeRows>> blocks_;
};

/// Per-lane recorder driving fast-forward execution. A ThreadCtx bound to
/// one notes every memory operation here instead of suspending; `sync()`
/// still suspends (it is the only scheduling point). The recorder writes
/// its lane's column of a WarpEvents log: `note` is a cursor write — the
/// event goes to the cursor, which then steps one row (the warp's width).
/// When the cursor reaches its limit, `refill` moves it to the next
/// storage block, or fails: the limit also folds in the event cap, which
/// bounds runaway loops that never reach a barrier. Two modes:
///
///  * Stream retirement (block_exec.cpp, `reset_stream`): every event of
///    the current barrier-delimited segment is kept so the executor can
///    retire warp transactions in lockstep round order after the segment
///    ran; hashing (needed only when capturing) is done by the executor,
///    not per note.
///  * Replay validation (replay.hpp, `reset_replay`): each event is counted
///    against the captured lane's event count and folded into the stream
///    hash, and only the segment's global/constant events — the ones whose
///    cost must be re-analyzed per block — are kept, for the transaction
///    walk that consumes them before the next segment.
///
/// A default-constructed recorder is bound to no log: its first note fails
/// (ThreadCtx points unbound lanes at one, so an unbound lane costs no
/// extra branch per op).
class LaneRecorder {
 public:
  /// The recorder an unbound ThreadCtx points at. Notes into it fail
  /// before they write anything, so it is safe to share between threads.
  static LaneRecorder unbound;

  /// Event-stream hash (replay mode).
  u64 hash = kTraceHashInit;

  /// Binds the recorder to `lane` of `log`.
  void bind(WarpEvents* log, u32 lane) {
    log_ = log;
    lane_ = lane;
    stride_ = log->width();
  }

  void reset_stream(u32 cap) { reset(cap, false); }
  void reset_replay(u32 cap) { reset(cap, true); }

  /// Drops the previous segment's events; the event count (the cap and the
  /// per-lane instruction count) and `hash` keep accumulating across
  /// segments.
  void begin_segment() {
    events_ = events();
    clear_segment();
  }

  /// Takes the event's fields rather than an Access so the event is built
  /// once, in place in the log.
  void note(Op op, u64 addr, u32 bytes, profile::Phase phase) {
    if (replay_) [[unlikely]] {
      if (!replay_note(op, addr, bytes, phase)) return;
    }
    if (cur_ == lim_) [[unlikely]] refill();
    *cur_ = Access{op, addr, bytes, phase};
    cur_ += stride_;
  }

  /// Events this segment kept (all of them in stream mode, the
  /// global/constant ones in replay mode).
  u32 kept() const {
    return seg_rows_ + static_cast<u32>(cur_ - base_) / stride_;
  }
  /// The segment's k-th kept event.
  const Access& event(u32 k) const { return log_->at(lane_, k); }
  /// Events retired since the last reset, this segment's included.
  u32 events() const { return replay_ ? events_ : events_ + kept(); }

 private:
  void reset(u32 cap, bool replay) {
    hash = kTraceHashInit;
    events_ = 0;
    max_events_ = cap;
    replay_ = replay;
    clear_segment();
  }
  void clear_segment() {
    cur_ = lim_ = base_ = nullptr;
    seg_rows_ = 0;
  }

  /// Replay mode: counts and hashes every event; true when it is kept.
  bool replay_note(Op op, u64 addr, u32 bytes, profile::Phase phase) {
    if (events_ == max_events_) [[unlikely]] overflow();
    ++events_;
    hash = trace_hash_access(hash, Access{op, addr, bytes, phase});
    return op == Op::LoadGlobal || op == Op::StoreGlobal || op == Op::LoadConst;
  }

  /// Out of line so the hot note() stays small: moves the cursor to the
  /// next storage block, or fails on the event cap or a missing log.
  void refill();
  /// The message distinguishes an unbound lane, the direct-path runaway
  /// guard and a replay congruence violation.
  [[noreturn]] void overflow() const;

  Access* cur_ = nullptr;
  Access* lim_ = nullptr;
  // The lane's slot in the first row of the current storage block.
  Access* base_ = nullptr;
  u32 stride_ = 1;
  // Rows kept this segment before the current storage block.
  u32 seg_rows_ = 0;
  // Stream mode: events of earlier segments; replay mode: every event.
  u32 events_ = 0;
  u32 max_events_ = 0;
  bool replay_ = false;
  WarpEvents* log_ = nullptr;
  u32 lane_ = 0;
};

inline LaneRecorder LaneRecorder::unbound;

// --- Functional dataflow tape --------------------------------------------
//
// Fast-forward execution still pays for the lane coroutines; at functional
// trace level that cost dominates, and the arithmetic itself (every FMA
// goes through ThreadCtx) is recordable. Kernels that additionally declare
//
//   void replay_origins(Dim3 block_idx, ReplayOrigins& out) const;
//
// promise that congruent blocks' global/constant addresses differ from the
// captured block's by exactly the difference of the declared per-buffer
// anchor addresses (a uniform per-buffer shift). For such kernels the
// captured block is re-run once in *tagging* mode: loads return NaN-boxed
// value slots instead of data, ThreadCtx::fma decodes its operands' slots
// and records the multiply-add, and stores record which slots leave the
// block. The result is a relocatable load-compute-store tape; later blocks
// of the class are produced by interpreting the tape against their own
// rebased addresses — no coroutines at all. The first replayed block of a
// class still executes in fast-forward and is checked event-by-event
// against the rebased tape before the class is trusted.
//
// The tagging contract (violations throw): every arithmetic operation on
// loaded values must go through ThreadCtx::fma — plain C++ may only *copy*
// values (register shuffles, float-to-float casts) — and control flow must
// not depend on them. All kconv float kernels satisfy this by construction
// (flops must be counted to be timed).

/// Per-buffer address anchors a kernel declares for one block.
struct ReplayOrigins {
  static constexpr u32 kMaxOrigins = 8;
  struct Entry {
    const void* id = nullptr;        // buffer identity (pointer compare)
    std::byte* data = nullptr;       // host storage (null for const banks)
    const std::byte* cdata = nullptr;
    u64 bytes = 0;
    u64 addr = 0;  // device byte address the tape's offsets are relative to
    u64 anchor_off = 0;  // byte offset of the anchor within the storage
    bool is_const = false;
  };
  Entry entries[kMaxOrigins];
  u32 count = 0;

  template <typename T>
  void add(const BufferView<T>& v, i64 anchor_elem) {
    DeviceBuffer* b = v.buffer();
    const u64 addr = v.addr_of(anchor_elem);
    push({b, b->data(), b->data(), b->size_bytes(), addr,
          addr - b->base_addr(), false});
  }
  template <typename T>
  void add(const ConstView<T>& v, i64 anchor_elem) {
    const ConstBuffer* b = v.buffer();
    const u64 addr = v.addr_of(anchor_elem);
    push({b, nullptr, b->data(), b->size_bytes(), addr,
          addr - b->base_addr(), true});
  }

 private:
  void push(const Entry& e) {
    KCONV_CHECK(count < kMaxOrigins, "too many replay origins declared");
    entries[count++] = e;
  }
};

/// True when V is made of float elements the tape can tag (float or
/// Vec<float, N>). Kernels with other storage types (f16, i8q) keep the
/// coroutine fast-forward path.
template <typename V>
inline constexpr bool kTapeFloatElems = std::is_same_v<V, float>;
template <int N>
inline constexpr bool kTapeFloatElems<Vec<float, N>> = true;

enum class TapeOp : u8 {
  LoadGm,     // regs[dst..dst+w) <- origin a, byte offset rel (zeros if masked)
  LoadConst,  // same, constant bank origin
  LoadSm,     // regs[dst..dst+w) <- shared bytes [rel, rel+4w)
  LoadLit,    // regs[dst] <- bit_cast<float>(u32(rel))
  StoreGm,    // origin a, byte offset rel <- regs[b..b+w) (no-op if masked)
  StoreSm,    // shared bytes [rel, rel+4w) <- regs[b..b+w)
  Axpy,       // regs[dst+i] = regs[b+i] * regs[a] + regs[u32(rel)+i]
  FmaVec,     // regs[dst+i] = regs[a+i] * regs[b+i] + regs[u32(rel)+i]
  Gather,     // regs[dst+i] = regs[gather[a+i]]
  Sync,       // barrier segment boundary
  BiasRelu,   // regs[dst+i] = max(0, regs[a+i] + regs[b])  (fused epilogue)
};

/// One recorded dataflow step. `rel` is narrow on purpose: global offsets
/// are relative to the block's own declared anchor, so they span only the
/// block's footprint — the builder rejects kernels whose accesses stray
/// further than ±2 GiB from their anchors. Keeping the entry at 20 bytes
/// matters; the interpreter streams the whole tape once per block.
struct TapeEntry {
  TapeOp op;
  u8 flags = 0;  // kTapeMasked: predicated-off lane slot
  u16 width = 0;
  u32 dst = 0;  // first destination slot (slot-producing ops)
  u32 a = 0;
  u32 b = 0;
  i32 rel = 0;
};
static_assert(sizeof(TapeEntry) == 20);

/// Slot-producing entries (the ones whose `dst` run is meaningful).
inline constexpr bool tape_op_allocates(TapeOp op) {
  return op == TapeOp::LoadGm || op == TapeOp::LoadConst ||
         op == TapeOp::LoadSm || op == TapeOp::LoadLit ||
         op == TapeOp::Axpy || op == TapeOp::FmaVec || op == TapeOp::Gather ||
         op == TapeOp::BiasRelu;
}

inline constexpr u8 kTapeMasked = 1;

/// One lane's recorded dataflow for one block of the class.
struct LaneTape {
  std::vector<TapeEntry> entries;
  std::vector<u32> gather;  // slot lists for Gather entries
  u32 n_slots = 0;
};

/// Renames the tape's value slots through an exact-size free list so the
/// interpreter's register file shrinks from one-slot-per-produced-value
/// (SSA-style, as the builder allocates) to roughly the tape's peak number
/// of simultaneously live values. Without this the register file is tens
/// of megabytes per block and the interpreter is DRAM-bound; compacted it
/// is cache-resident. Runs once per lane at capture time.
void compact_lane_tape(LaneTape& lt);

/// The class's functional tape: one LaneTape per lane of the block.
///
/// Per-origin spans summarize every global/constant offset the tape
/// touches, so the interpreter validates a whole block with one bounds
/// check per origin (offsets are class-invariant; only the anchor moves)
/// and one alignment check per distinct access width (the captured block's
/// own addresses were checked by its direct run — a rebased address keeps
/// natural alignment exactly when the anchor delta is a multiple of the
/// width). Shared offsets are block-invariant and validated at capture.
struct FuncTape {
  struct OriginSpan {
    i64 min_rel = 0;
    i64 max_rel_end = 0;  // one past the last byte touched
    u32 widths = 0;       // bit i set: some access of 4*(i+1) bytes
    bool used = false;
    bool has_store = false;
  };
  std::vector<LaneTape> lanes;
  OriginSpan spans[ReplayOrigins::kMaxOrigins];
  u32 max_slots = 0;
};

/// Builds one LaneTape while the captured block re-executes in tagging
/// mode (bound to a ThreadCtx like a LaneRecorder). Values are NaN-boxed
/// slot ids: quiet-NaN prefix + 22-bit payload `slot + 1`.
class LaneTapeBuilder {
 public:
  static constexpr u32 kTagBits = 0x7FC00000u;
  static constexpr u32 kTagMask = 0xFFC00000u;
  static constexpr u32 kPayloadMask = 0x003FFFFFu;
  static constexpr u32 kMaxSlots = kPayloadMask - 1;

  void reset(LaneTape* tape, const ReplayOrigins* origins) {
    tape_ = tape;
    origins_ = origins;
    literals_.clear();
    last_merge_ = SIZE_MAX;
    last_merge_dst_end_ = 0;
  }

  static float tag_value(u32 slot) {
    const u32 bits = kTagBits | (slot + 1);
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
  }

  u32 note_load_gm(const void* buf, u64 addr, u32 n, bool pred);
  u32 note_load_const(const void* buf, u64 addr, u32 n);
  u32 note_load_sm(u64 byte_off, u32 n);
  void note_store_gm(const void* buf, u64 addr, const float* elems, u32 n,
                     bool pred);
  void note_store_sm(u64 byte_off, const float* elems, u32 n, bool pred);
  u32 note_axpy(const float* xs, float w, const float* acc, u32 n);
  u32 note_fma_vec(const float* xs, const float* ys, const float* acc, u32 n);
  u32 note_bias_relu(const float* xs, float bias, u32 n);
  void note_sync();
  [[noreturn]] void unsupported(const char* what) const;

 private:
  u32 alloc(u32 n);
  /// Slot of a value: decodes the tag, or interns a literal (emitting its
  /// LoadLit on first use).
  u32 slot_of(float v);
  /// Base slot of `n` consecutive value slots, emitting a Gather when the
  /// operands are not already contiguous.
  u32 run_of(const float* elems, u32 n);
  u32 origin_index(const void* buf, bool want_const) const;

  LaneTape* tape_ = nullptr;
  const ReplayOrigins* origins_ = nullptr;
  std::unordered_map<u32, u32> literals_;  // float bits -> slot
  // Merge window for note_axpy / note_load_sm: index of the last mergeable
  // entry and one past its destination slots. Widening is only legal while
  // no other entry (or slot allocation) has intervened, keeping the merged
  // entry's destination run contiguous in slot space.
  std::size_t last_merge_ = SIZE_MAX;
  u32 last_merge_dst_end_ = 0;
};

}  // namespace kconv::sim
