#include "src/sim/replay.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

#include "src/common/strutil.hpp"
#include "src/sim/charge.hpp"

namespace kconv::sim {

namespace {

/// Launches below this many blocks never make tapes. A tape costs a
/// tagging re-run of the captured block, and its sidecar runs to tens of
/// megabytes for filter-heavy kernels, while it pays back only through the
/// blocks that share it. Below the cutoff every replayed block
/// fast-forwards, with identical outputs and counters.
constexpr u64 kTapeMinBlocks = 16;

}  // namespace

ReplayRunner::ReplayRunner(const Arch& arch, const LaunchConfig& cfg,
                           TraceLevel trace, u64 max_rounds,
                           const BlockClassifier& classify,
                           const ReplayOriginsFn& origins, bool analytic)
    : arch_(arch),
      cfg_(cfg),
      trace_level_(trace),
      max_rounds_(max_rounds),
      classify_(classify),
      origins_fn_(origins),
      analytic_(analytic),
      // The tape only serves functional launches (timing launches need the
      // per-block transaction walk anyway) of relocatable kernels.
      tapes_(trace == TraceLevel::Functional && !analytic &&
             static_cast<bool>(origins) &&
             cfg.grid.count() >= kTapeMinBlocks) {}

void ReplayRunner::run(LaneSet& lanes, Dim3 block_idx, L2Cache* const_cache,
                       L2Cache& gm_l2, KernelStats& stats,
                       PatternCache* pattern) {
  const u64 cls = classify_(block_idx);
  const auto it = classes_.find(cls);
  if (it != classes_.end()) {
    ClassState& cs = it->second;
    if (analytic_) {
      serve_analytic(cs, stats);
    } else if (cs.tape != nullptr) {
      enqueue_tape(block_idx, cs, stats);
    } else if (tapes_ && block_idx != cs.trace->captured_block) {
      // The class's second block: tag the captured block, then
      // fast-forward this one against the rebased tape. Passing that
      // relocation proof is what lets every later block skip the
      // coroutines (validate-then-trust).
      auto tape = std::make_shared<const FuncTape>(capture_tape(lanes, cs));
      replay(lanes, block_idx, cs, tape.get(), const_cache, gm_l2, stats,
             pattern);
      cs.tape = std::move(tape);
      captured_fresh_ = true;
    } else {
      replay(lanes, block_idx, cs, nullptr, const_cache, gm_l2, stats,
             pattern);
    }
    ++blocks_replayed_;
    return;
  }

  // First block of its class: direct execution with trace capture. The
  // block-local stat delta splits by counter class (trace.hpp): the
  // invariant part serves every replayed block, the compute part the tape
  // path (which has no lanes to recount), the addr_dep part analytic
  // launches.
  auto trace = std::make_shared<BlockTrace>();
  KernelStats local;
  run_block(lanes, block_idx, trace_level_, max_rounds_, const_cache, gm_l2,
            local, trace.get(), pattern);
  split_by_class(kKernelCounters, local, trace->invariant, trace->compute,
                 trace->addr_dep);
  stats += local;
  classes_[cls].trace = std::move(trace);
  captured_fresh_ = true;
}

void ReplayRunner::serve_analytic(const ClassState& cs, KernelStats& stats) {
  stats += cs.trace->invariant;
  stats += cs.trace->compute;
  stats += cs.trace->addr_dep;
  ++stats.blocks_executed;
}

void ReplayRunner::prime(const LaunchPlan& plan) {
  const u64 n_lanes = cfg_.block.count();
  for (const PlanClass& pc : plan.classes) {
    KCONV_CHECK(pc.trace->lane_events.size() == n_lanes &&
                    pc.trace->lane_hash.size() == n_lanes,
                "plan class lane count does not match the launch config");
    ClassState cs;
    cs.trace = pc.trace;
    // Origins are re-resolved against this process's buffers — the tape's
    // offsets are anchor-relative, so only the anchors are process-local.
    // A tape needing more origins than the kernel declares is dropped, and
    // the class replays through fast-forward until it makes a new one.
    if (pc.tape != nullptr && tapes_) {
      origins_fn_(cs.trace->captured_block, cs.origins);
      bool origins_ok = true;
      for (u32 i = cs.origins.count; i < ReplayOrigins::kMaxOrigins; ++i) {
        origins_ok = origins_ok && !pc.tape->spans[i].used;
      }
      if (origins_ok) cs.tape = pc.tape;
    }
    classes_.emplace(pc.id, std::move(cs));
  }
}

void ReplayRunner::export_plan(LaunchPlan& plan) const {
  std::vector<const std::pair<const u64, ClassState>*> mine;
  mine.reserve(classes_.size());
  for (const auto& entry : classes_) mine.push_back(&entry);
  std::sort(mine.begin(), mine.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  for (const auto* entry : mine) {
    const ClassState& cs = entry->second;
    const auto have =
        std::find_if(plan.classes.begin(), plan.classes.end(),
                     [&](const PlanClass& pc) { return pc.id == entry->first; });
    if (have == plan.classes.end()) {
      plan.classes.push_back({entry->first, cs.trace, cs.tape});
    } else if (have->tape == nullptr) {
      have->tape = cs.tape;
    }
  }
}

namespace {

/// The error every replay-side congruence failure raises, whichever check
/// (segment walk, event cap, end-of-block hash) notices it first.
std::string congruence_error(u32 lane, Dim3 block_idx,
                             const BlockTrace& trace) {
  return strf("replay congruence violation in lane %u: block (%u,%u,%u) is "
              "not congruent with captured block (%u,%u,%u) — the kernel's "
              "replay_class declares non-equivalent blocks equivalent",
              lane, block_idx.x, block_idx.y, block_idx.z,
              trace.captured_block.x, trace.captured_block.y,
              trace.captured_block.z);
}

}  // namespace

void ReplayRunner::replay(LaneSet& lanes, Dim3 block_idx,
                          const ClassState& cs, const FuncTape* check,
                          L2Cache* const_cache, L2Cache& gm_l2,
                          KernelStats& stats, PatternCache* pattern) {
  const BlockTrace& trace = *cs.trace;
  const u32 n_lanes = static_cast<u32>(cfg_.block.count());
  KCONV_ASSERT(trace.lane_events.size() == n_lanes);
  const bool walk = trace_level_ == TraceLevel::Timing;
  // A fresh tape is checked against this block's accesses as they stream
  // past: the class's second block is the tape's relocation proof.
  ReplayOrigins tape_origins;
  if (check != nullptr) tape_origins = resolve_origins(block_idx, cs);

  LaneSet::Scratch& sc = lanes.scratch;
  std::vector<u32>& cursors = sc.cursor;
  cursors.assign(n_lanes, 0);
  if (check != nullptr) tape_cursors_.assign(n_lanes, 0);
  std::size_t next_tx = 0;

  // Fast-forward one barrier segment at a time: the lanes' memory ops
  // record instead of suspending (runaway loops are caught by the
  // recorder's event cap), and each segment's global/constant accesses are
  // consumed — walked, tape-checked — before the next segment runs, so
  // the warp logs never hold more than one segment.
  lanes.start_replay(block_idx, trace.lane_events);
  while (!lanes.all_done()) {
    lanes.run_segment();
    if (walk) {
      next_tx = walk_segment(lanes, block_idx, trace, next_tx, const_cache,
                             gm_l2, stats, pattern);
    }
    if (check != nullptr) {
      validate_tape_segment(lanes, block_idx, *check, tape_origins);
    }
  }
  if (walk && next_tx < trace.txs.size()) {
    const ReplayTx& tx = trace.txs[next_tx];
    KCONV_CHECK(false, congruence_error(tx.lo + std::countr_zero(tx.mask),
                                        block_idx, trace));
  }
  if (check != nullptr) finish_tape_validation(block_idx, *check);

  // Congruence check: the replayed block must have issued the same event
  // stream (ops, widths, shared offsets, sync placement) as the captured
  // one. A mismatch means the kernel's replay_class is wrong — fail loudly
  // rather than charge wrong counters.
  for (u32 t = 0; t < n_lanes; ++t) {
    const LaneRecorder& rec = lanes.recorder(t);
    KCONV_CHECK(
        rec.events() == trace.lane_events[t] && rec.hash == trace.lane_hash[t],
        congruence_error(t, block_idx, trace));
  }

  stats += trace.invariant;
  // Compute attribution, recounted from the replayed lanes (recorder event
  // counts equal the direct path's retired events).
  lanes.charge_compute(stats);
  ++stats.blocks_executed;
}

std::size_t ReplayRunner::walk_segment(LaneSet& lanes, Dim3 block_idx,
                                       const BlockTrace& trace,
                                       std::size_t next_tx,
                                       L2Cache* const_cache, L2Cache& gm_l2,
                                       KernelStats& stats,
                                       PatternCache* pattern) {
  // Every global/constant event retires in a transaction of its own
  // segment, so this segment's transactions are the prefix of the
  // remaining ones whose lanes still hold unconsumed events. Regroup this
  // block's own addresses in that retire order and charge the
  // address-dependent half of the charge rule (charge.hpp): probe order
  // matches direct execution, so on a serial launch even the cache
  // counters are bit-identical. Rebased addresses keep their signatures,
  // so the chunk's pattern cache, filled by its earlier blocks, prices
  // nearly every replayed global transaction.
  LaneSet::Scratch& sc = lanes.scratch;
  std::vector<u32>& cursors = sc.cursor;
  std::vector<Access>& group = sc.group;
  for (; next_tx < trace.txs.size(); ++next_tx) {
    const ReplayTx& tx = trace.txs[next_tx];
    // A congruent block's transaction either has an event waiting in every
    // one of its lanes or in none (it belongs to a later segment).
    const u32 first = tx.lo + std::countr_zero(tx.mask);
    if (cursors[first] == lanes.seg_len(first)) break;
    group.clear();
    for (u32 m = tx.mask; m != 0; m &= m - 1) {
      const u32 t = tx.lo + std::countr_zero(m);
      KCONV_CHECK(cursors[t] < lanes.seg_len(t) &&
                      lanes.event(t, cursors[t]).op == tx.op,
                  congruence_error(t, block_idx, trace));
      group.push_back(lanes.event(t, cursors[t]++));
    }
    price_tx(arch_, pattern, tx.op, group, sc.tx);
    probe_caches(sc.tx, &gm_l2, const_cache);
    charge_addr_dep(sc.tx, stats);
  }
  // The segment's events must all be spoken for before the recorders are
  // cleared for the next one.
  for (u32 t = 0; t < lanes.size(); ++t) {
    KCONV_CHECK(cursors[t] == lanes.seg_len(t),
                congruence_error(t, block_idx, trace));
    cursors[t] = 0;
  }
  return next_tx;
}

FuncTape ReplayRunner::capture_tape(LaneSet& lanes, ClassState& cs) {
  const Dim3 block_idx = cs.trace->captured_block;
  origins_fn_(block_idx, cs.origins);
  const u32 n_lanes = static_cast<u32>(cfg_.block.count());
  FuncTape tape;
  tape.lanes.assign(n_lanes, LaneTape{});
  builders_.resize(n_lanes);

  // Tagging re-run of the captured block: same fast-forward scheduling as
  // replay(), but with a tape builder bound instead of a recorder — loads
  // return NaN-boxed slots, fma records the dataflow, no functional memory
  // is touched (the capture run already produced the block's outputs).
  for (u32 t = 0; t < n_lanes; ++t) {
    builders_[t].reset(&tape.lanes[t], &cs.origins);
  }
  lanes.start_tape(block_idx, builders_);
  lanes.run_to_end();

  // Shrink each lane's register file to its peak liveness — the builder's
  // SSA-style allocation would otherwise make the interpreter DRAM-bound.
  for (LaneTape& lt : tape.lanes) compact_lane_tape(lt);

  // Summarize and pre-validate the tape so the interpreter's hot loop can
  // run unchecked: shared offsets are block-invariant (checked here, once),
  // and global/constant offsets reduce to per-origin spans that run_tape
  // checks against each block's own anchor.
  for (const LaneTape& lt : tape.lanes) {
    tape.max_slots = std::max(tape.max_slots, lt.n_slots);
    for (const TapeEntry& e : lt.entries) {
      switch (e.op) {
        case TapeOp::LoadSm:
        case TapeOp::StoreSm: {
          const bool masked = (e.flags & kTapeMasked) != 0;
          KCONV_CHECK(masked || (e.rel >= 0 &&
                                 static_cast<u64>(e.rel) + 4ull * e.width <=
                                     cfg_.shared_bytes),
                      "tape shared access outside the block's shared memory");
          break;
        }
        case TapeOp::LoadGm:
        case TapeOp::LoadConst:
        case TapeOp::StoreGm: {
          if ((e.flags & kTapeMasked) != 0) break;
          FuncTape::OriginSpan& sp = tape.spans[e.a];
          const i64 rel_end = e.rel + 4ll * e.width;
          if (!sp.used) {
            sp.used = true;
            sp.min_rel = e.rel;
            sp.max_rel_end = rel_end;
          } else {
            sp.min_rel = std::min(sp.min_rel, static_cast<i64>(e.rel));
            sp.max_rel_end = std::max(sp.max_rel_end, rel_end);
          }
          sp.widths |= 1u << (e.width - 1);
          sp.has_store = sp.has_store || e.op == TapeOp::StoreGm;
          break;
        }
        default:
          break;
      }
    }
  }
  return tape;
}

ReplayOrigins ReplayRunner::resolve_origins(Dim3 block_idx,
                                            const ClassState& cs) const {
  ReplayOrigins o;
  origins_fn_(block_idx, o);
  KCONV_CHECK(o.count == cs.origins.count,
              "replay_origins declared a different buffer set for blocks of "
              "the same class");
  for (u32 i = 0; i < o.count; ++i) {
    KCONV_CHECK(o.entries[i].id == cs.origins.entries[i].id &&
                    o.entries[i].is_const == cs.origins.entries[i].is_const &&
                    o.entries[i].bytes == cs.origins.entries[i].bytes,
                "replay_origins declared a different buffer set for blocks "
                "of the same class");
  }
  return o;
}

namespace {

/// The recorder op a tape entry's access must match, or nullopt for
/// entries that issue no global/constant access.
std::optional<Op> tape_access_op(TapeOp op) {
  switch (op) {
    case TapeOp::LoadGm: return Op::LoadGlobal;
    case TapeOp::StoreGm: return Op::StoreGlobal;
    case TapeOp::LoadConst: return Op::LoadConst;
    default: return std::nullopt;
  }
}

}  // namespace

void ReplayRunner::validate_tape_segment(const LaneSet& lanes,
                                         Dim3 block_idx, const FuncTape& tape,
                                         const ReplayOrigins& o) {
  for (u32 t = 0; t < lanes.size(); ++t) {
    const std::vector<TapeEntry>& entries = tape.lanes[t].entries;
    u32& j = tape_cursors_[t];
    for (u32 k = 0; k < lanes.seg_len(t); ++k) {
      const Access& a = lanes.event(t, k);
      while (j < entries.size() && !tape_access_op(entries[j].op)) ++j;
      KCONV_CHECK(
          j < entries.size(),
          strf("tape validation failed in lane %u of block (%u,%u,%u): more "
               "accesses than the tape records",
               t, block_idx.x, block_idx.y, block_idx.z));
      const TapeEntry& e = entries[j++];
      const bool masked = (e.flags & kTapeMasked) != 0;
      const u64 want_addr = masked ? 0 : o.entries[e.a].addr + e.rel;
      const u32 want_bytes = masked ? 0 : 4u * e.width;
      KCONV_CHECK(
          a.op == *tape_access_op(e.op) && a.addr == want_addr &&
              a.bytes == want_bytes,
          strf("tape validation failed in lane %u of block (%u,%u,%u): the "
               "replay_origins declaration does not relocate this block's "
               "accesses (got addr=%llu bytes=%u, tape expects addr=%llu "
               "bytes=%u)",
               t, block_idx.x, block_idx.y, block_idx.z,
               static_cast<unsigned long long>(a.addr), a.bytes,
               static_cast<unsigned long long>(want_addr), want_bytes));
    }
  }
}

void ReplayRunner::finish_tape_validation(Dim3 block_idx,
                                          const FuncTape& tape) {
  for (u32 t = 0; t < tape.lanes.size(); ++t) {
    const std::vector<TapeEntry>& entries = tape.lanes[t].entries;
    for (u32 j = tape_cursors_[t]; j < entries.size(); ++j) {
      KCONV_CHECK(
          !tape_access_op(entries[j].op),
          strf("tape validation failed in lane %u of block (%u,%u,%u): "
               "fewer accesses than the tape records",
               t, block_idx.x, block_idx.y, block_idx.z));
    }
  }
}

void ReplayRunner::enqueue_tape(Dim3 block_idx, ClassState& cs,
                                KernelStats& stats) {
  const ReplayOrigins o = resolve_origins(block_idx, cs);

  // Whole-block validation against the per-origin spans, so the batched
  // interpreter runs unchecked: the captured block's accesses were bounds-
  // and alignment-checked by its direct run, offsets are class-invariant,
  // and this block shifts them by a per-origin delta — so it stays in
  // bounds iff the span does, and stays naturally aligned iff the delta is
  // a multiple of every access width the origin sees.
  ClassState::PendingBlock pb{};
  for (u32 i = 0; i < o.count; ++i) {
    const FuncTape::OriginSpan& sp = cs.tape->spans[i];
    if (!sp.used) continue;
    const ReplayOrigins::Entry& og = o.entries[i];
    const i64 anchor = static_cast<i64>(og.anchor_off);
    const i64 delta = static_cast<i64>(og.addr) -
                      static_cast<i64>(cs.origins.entries[i].addr);
    bool aligned = true;
    for (u32 w = sp.widths; w != 0; w &= w - 1) {
      const i64 bytes = 4ll * (std::countr_zero(w) + 1);
      aligned = aligned && delta % bytes == 0;
    }
    KCONV_CHECK(
        anchor + sp.min_rel >= 0 &&
            anchor + sp.max_rel_end <= static_cast<i64>(og.bytes) && aligned &&
            (!sp.has_store || og.data != nullptr),
        strf("tape relocation failed for block (%u,%u,%u): the "
             "replay_origins declaration does not keep this block's "
             "accesses in bounds and aligned",
             block_idx.x, block_idx.y, block_idx.z));
    pb.rbase[i] = og.cdata + anchor;
    pb.wbase[i] = og.data == nullptr ? nullptr : og.data + anchor;
  }
  cs.pending.push_back(pb);
  if (cs.pending.size() >= kTapeBatch) flush_tape(cs, stats);
}

void ReplayRunner::flush_tape(ClassState& cs, KernelStats& stats) {
  const u32 batch = static_cast<u32>(cs.pending.size());
  if (batch == 0) return;
  if (batch == kTapeBatch) {
    run_tape_batch<kTapeBatch>(cs, batch);
  } else {
    run_tape_batch<0>(cs, batch);
  }
  for (u32 b = 0; b < batch; ++b) {
    stats += cs.trace->invariant;
    stats += cs.trace->compute;
    ++stats.blocks_executed;
  }
  cs.pending.clear();
}

void ReplayRunner::finish(KernelStats& stats) {
  for (auto& [cls, cs] : classes_) flush_tape(cs, stats);
}

namespace {

// Multiply-add inner loops of the batched interpreter, over wB = width * B
// contiguous floats with the batch innermost. A destination run never
// aliases the entry's operand runs (the operands are live at the entry, and
// compaction only hands out dead or fresh slots) — hence the restrict.
//
// The x86 paths are spelled out with intrinsics: GCC completely unrolls the
// natural nested batch loop into scalar code and never re-vectorizes it,
// which measures ~9x slower than SSE on the replay benchmark. Multiplies
// and adds stay separate instructions — a fused multiply-add would break
// bit-identity with direct execution's unfused arithmetic.

/// dst[i] = xs[i] * wv[i % B] + ac[i]: one weight vector scaling `width`
/// stacked x vectors (the merged-Axpy shape note_axpy records).
template <u32 B>
inline void axpy_batch(float* __restrict dst, const float* __restrict xs,
                       const float* __restrict wv, const float* __restrict ac,
                       u32 wB) {
#if defined(__SSE2__)
  if constexpr (B % 4 == 0) {
    __m128 w[B / 4];
    for (u32 v = 0; v < B / 4; ++v) w[v] = _mm_loadu_ps(wv + 4 * v);
    for (u32 i = 0; i < wB; i += B) {
      for (u32 v = 0; v < B / 4; ++v) {
        const u32 o = i + 4 * v;
        _mm_storeu_ps(dst + o,
                      _mm_add_ps(_mm_mul_ps(_mm_loadu_ps(xs + o), w[v]),
                                 _mm_loadu_ps(ac + o)));
      }
    }
    return;
  }
#endif
  for (u32 i = 0; i < wB; i += B) {
    for (u32 b = 0; b < B; ++b) {
      dst[i + b] = xs[i + b] * wv[b] + ac[i + b];
    }
  }
}

/// dst[i] = xs[i] * ys[i] + ac[i]: plain elementwise multiply-add.
template <u32 B>
inline void fma_vec_batch(float* __restrict dst, const float* __restrict xs,
                          const float* __restrict ys,
                          const float* __restrict ac, u32 wB) {
#if defined(__SSE2__)
  if constexpr (B % 4 == 0) {
    for (u32 i = 0; i < wB; i += 4) {
      _mm_storeu_ps(dst + i,
                    _mm_add_ps(_mm_mul_ps(_mm_loadu_ps(xs + i),
                                          _mm_loadu_ps(ys + i)),
                               _mm_loadu_ps(ac + i)));
    }
    return;
  }
#endif
  for (u32 i = 0; i < wB; ++i) {
    dst[i] = xs[i] * ys[i] + ac[i];
  }
}

}  // namespace

/// The batched interpreter. Value slots and shared memory are interleaved
/// with the batch innermost — regs[slot * B + b] — so a shared-memory copy
/// for all B blocks is one contiguous memcpy, and the multiply-add loops
/// run contiguously across the batch (vectorizing when NB is a compile-time
/// constant). Only global loads/stores touch per-block memory and pay a
/// scalar scatter/gather against each block's rebased base pointers.
template <u32 NB>
void ReplayRunner::run_tape_batch(const ClassState& cs, u32 batch) {
  const u32 B = NB == 0 ? batch : NB;
  const u32 n_lanes = static_cast<u32>(cfg_.block.count());
  const u32 max_slots = cs.tape->max_slots;
  const std::size_t sm_floats = (cfg_.shared_bytes + 3) / 4;
  regs_.resize(static_cast<std::size_t>(n_lanes) * max_slots * B);
  smem_batch_.assign(sm_floats * B, 0.0f);
  tape_cursors_.assign(n_lanes, 0);
  const ClassState::PendingBlock* pend = cs.pending.data();
  float* const sm = smem_batch_.data();

  // Same barrier semantics as the coroutine paths: each outer pass runs
  // every unfinished lane to its next Sync (or to completion), so shared
  // memory written in one segment is visible to every lane in the next.
  bool pending = true;
  while (pending) {
    pending = false;
    for (u32 t = 0; t < n_lanes; ++t) {
      const LaneTape& tape = cs.tape->lanes[t];
      const TapeEntry* es = tape.entries.data();
      const u32 n_e = static_cast<u32>(tape.entries.size());
      u32 cur = tape_cursors_[t];
      if (cur >= n_e) continue;
      float* regs =
          regs_.data() + static_cast<std::size_t>(t) * max_slots * B;
      bool hit_sync = false;
      for (; cur < n_e && !hit_sync; ++cur) {
        const TapeEntry& e = es[cur];
        switch (e.op) {
          case TapeOp::Axpy: {
            const float* wv = regs + static_cast<std::size_t>(e.a) * B;
            const float* xs = regs + static_cast<std::size_t>(e.b) * B;
            const float* ac =
                regs + static_cast<std::size_t>(static_cast<u32>(e.rel)) * B;
            float* dst = regs + static_cast<std::size_t>(e.dst) * B;
            const u32 wB = static_cast<u32>(e.width) * B;
            if constexpr (NB != 0) {
              axpy_batch<NB>(dst, xs, wv, ac, wB);
            } else {
              for (u32 i = 0; i < wB; i += B) {
                for (u32 b = 0; b < B; ++b) {
                  dst[i + b] = xs[i + b] * wv[b] + ac[i + b];
                }
              }
            }
            break;
          }
          case TapeOp::FmaVec: {
            const float* xs = regs + static_cast<std::size_t>(e.a) * B;
            const float* ys = regs + static_cast<std::size_t>(e.b) * B;
            const float* ac =
                regs + static_cast<std::size_t>(static_cast<u32>(e.rel)) * B;
            float* dst = regs + static_cast<std::size_t>(e.dst) * B;
            const u32 wB = static_cast<u32>(e.width) * B;
            if constexpr (NB != 0) {
              fma_vec_batch<NB>(dst, xs, ys, ac, wB);
            } else {
              for (u32 i = 0; i < wB; ++i) {
                dst[i] = xs[i] * ys[i] + ac[i];
              }
            }
            break;
          }
          case TapeOp::LoadSm: {
            std::memcpy(regs + static_cast<std::size_t>(e.dst) * B,
                        sm + static_cast<std::size_t>(e.rel / 4) * B,
                        4ull * e.width * B);
            break;
          }
          case TapeOp::StoreSm: {
            if ((e.flags & kTapeMasked) == 0) {
              std::memcpy(sm + static_cast<std::size_t>(e.rel / 4) * B,
                          regs + static_cast<std::size_t>(e.b) * B,
                          4ull * e.width * B);
            }
            break;
          }
          case TapeOp::LoadGm:
          case TapeOp::LoadConst: {
            float* d = regs + static_cast<std::size_t>(e.dst) * B;
            if ((e.flags & kTapeMasked) != 0) {
              std::memset(d, 0, 4ull * e.width * B);
            } else {
              for (u32 b = 0; b < B; ++b) {
                const std::byte* src = pend[b].rbase[e.a] + e.rel;
                for (u32 i = 0; i < e.width; ++i) {
                  std::memcpy(&d[static_cast<std::size_t>(i) * B + b],
                              src + 4ull * i, 4);
                }
              }
            }
            break;
          }
          case TapeOp::StoreGm: {
            if ((e.flags & kTapeMasked) == 0) {
              const float* s = regs + static_cast<std::size_t>(e.b) * B;
              for (u32 b = 0; b < B; ++b) {
                std::byte* d = pend[b].wbase[e.a] + e.rel;
                for (u32 i = 0; i < e.width; ++i) {
                  std::memcpy(d + 4ull * i,
                              &s[static_cast<std::size_t>(i) * B + b], 4);
                }
              }
            }
            break;
          }
          case TapeOp::LoadLit: {
            const u32 bits = static_cast<u32>(e.rel);
            float lit;
            std::memcpy(&lit, &bits, sizeof(lit));
            float* d = regs + static_cast<std::size_t>(e.dst) * B;
            for (u32 b = 0; b < B; ++b) d[b] = lit;
            break;
          }
          case TapeOp::Gather: {
            const u32* g = tape.gather.data() + e.a;
            float* d = regs + static_cast<std::size_t>(e.dst) * B;
            for (u32 i = 0; i < e.width; ++i) {
              std::memcpy(d + static_cast<std::size_t>(i) * B,
                          regs + static_cast<std::size_t>(g[i]) * B,
                          4ull * B);
            }
            break;
          }
          case TapeOp::BiasRelu: {
            // std::max (not maxps) to stay bit-identical with direct
            // execution's std::max for NaN and signed-zero inputs.
            const float* xs = regs + static_cast<std::size_t>(e.a) * B;
            const float* bv = regs + static_cast<std::size_t>(e.b) * B;
            float* dst = regs + static_cast<std::size_t>(e.dst) * B;
            const u32 wB = static_cast<u32>(e.width) * B;
            for (u32 i = 0; i < wB; i += B) {
              for (u32 b = 0; b < B; ++b) {
                dst[i + b] = std::max(0.0f, xs[i + b] + bv[b]);
              }
            }
            break;
          }
          case TapeOp::Sync: {
            hit_sync = true;  // consumed by the loop increment
            break;
          }
        }
      }
      tape_cursors_[t] = cur;
      if (cur < n_e) pending = true;
    }
  }
}

}  // namespace kconv::sim
