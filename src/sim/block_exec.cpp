#include "src/sim/block_exec.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <vector>

#include "src/analysis/hazard.hpp"
#include "src/common/strutil.hpp"
#include "src/profile/collector.hpp"
#include "src/sim/banks.hpp"
#include "src/sim/coalescing.hpp"
#include "src/sim/constmem.hpp"
#include "src/sim/pattern_cache.hpp"
#include "src/sim/trace.hpp"

namespace kconv::sim {

namespace {

/// Charges one retired warp transaction to the stats. `gmem_scratch` is the
/// chunk's sector buffer (LaneSet::Scratch): reused across every
/// transaction so the hot loop performs no allocations once its capacity
/// is warm.
void retire_group(const Arch& arch, TraceLevel trace, L2Cache* const_cache,
                  L2Cache& gm_l2, Op op, std::span<const Access> accesses,
                  KernelStats& stats, bool& segment_had_gm_load,
                  bool& segment_had_sm_store, GmemCost& gmem_scratch,
                  PatternCache* pattern, profile::BlockProfiler* prof) {
  if (trace != TraceLevel::Timing) return;
  // The group retires under the phase of its first lane; lanes of one warp
  // transaction share their issue site, hence their phase.
  const profile::Phase ph = accesses[0].phase;
  // Pattern-cache activity is attributed by lookup-counter deltas because
  // the analyzers below consult the cache internally (and fully
  // predicated-off groups still perform a lookup before breaking).
  const u64 plk = (prof != nullptr && pattern != nullptr) ? pattern->lookups()
                                                          : 0;
  const u64 pht = (prof != nullptr && pattern != nullptr) ? pattern->hits()
                                                          : 0;
  switch (op) {
    case Op::LoadShared:
    case Op::StoreShared: {
      const SmemCost c = pattern != nullptr
                             ? pattern->smem(accesses)
                             : analyze_smem(accesses, arch.smem_banks,
                                            arch.smem_bank_bytes);
      if (c.lane_bytes == 0) break;  // every lane predicated off
      ++stats.smem_instrs;
      stats.smem_request_cycles += c.request_cycles;
      stats.smem_bytes += c.unique_bytes;
      stats.smem_lane_bytes += c.lane_bytes;
      if (op == Op::StoreShared) {
        ++stats.smem_store_instrs;
        stats.smem_store_request_cycles += c.request_cycles;
        segment_had_sm_store = true;
      }
      if (prof != nullptr) {
        prof->smem(ph, c.request_cycles, c.unique_bytes, c.lane_bytes,
                   op == Op::StoreShared);
      }
      break;
    }
    case Op::LoadGlobal:
    case Op::StoreGlobal: {
      if (pattern != nullptr) {
        pattern->gmem(accesses, gmem_scratch);
      } else {
        analyze_gmem(accesses, arch.gm_sector_bytes, gmem_scratch);
      }
      const GmemCost& c = gmem_scratch;
      if (c.lane_bytes == 0) break;  // every lane predicated off
      ++stats.gm_instrs;
      stats.gm_sectors += c.sectors.size();
      stats.gm_bytes_useful += c.lane_bytes;
      u64 dram = 0;
      for (const u64 sector : c.sectors) {
        if (!gm_l2.access(sector)) {
          ++stats.gm_sectors_dram;
          ++dram;
        }
      }
      if (prof != nullptr) prof->gmem(ph, c.sectors.size(), dram, c.lane_bytes);
      if (op == Op::LoadGlobal) segment_had_gm_load = true;
      break;
    }
    case Op::LoadConst: {
      const ConstCost c = analyze_const(accesses, arch.const_line_bytes);
      ++stats.const_instrs;
      stats.const_requests += c.requests;
      u64 misses = 0;
      if (const_cache != nullptr) {
        for (u32 i = 0; i < c.lines_touched; ++i) {
          if (!const_cache->access(c.line_addrs[i])) {
            ++stats.const_line_misses;
            ++misses;
          }
        }
      }
      if (prof != nullptr) prof->cmem(ph, c.requests, misses);
      break;
    }
    case Op::Sync:
      break;  // handled by the barrier logic
  }
  if (prof != nullptr && pattern != nullptr) {
    prof->pattern(ph, pattern->lookups() - plk, pattern->hits() - pht);
  }
}

/// Notes one retired address-dependent transaction in the capture trace so
/// replay can regroup that block's own accesses in the same retire order
/// (= the L2 / constant-cache probe order).
void record_tx(BlockTrace* capture, Op op, std::span<const u32> lanes) {
  if (capture == nullptr) return;
  if (op != Op::LoadGlobal && op != Op::StoreGlobal && op != Op::LoadConst) {
    return;
  }
  capture->txs.push_back({op, static_cast<u32>(capture->tx_lanes.size()),
                          static_cast<u32>(lanes.size())});
  capture->tx_lanes.insert(capture->tx_lanes.end(), lanes.begin(),
                           lanes.end());
}

/// True when every event of the row is the same operation and not a
/// barrier: the row retires in place as one warp transaction.
bool uniform_row(std::span<const Access> row) {
  const Op op = row[0].op;
  bool same = op != Op::Sync;
  for (const Access& a : row) same &= a.op == op;
  return same;
}

}  // namespace

LaneSet::LaneSet(const Arch& arch, const KernelBody& body,
                 const LaunchConfig& cfg)
    : arch_(arch),
      body_(body),
      cfg_(cfg),
      lanes_(cfg.block.count()),
      recorders_(cfg.block.count()),
      smem_(cfg.shared_bytes),
      seg_len_(cfg.block.count(), 0) {
  KCONV_ASSERT(!lanes_.empty());
  const u32 warp_size = arch.warp_size;
  const u32 n = size();
  for (u32 lo = 0; lo < n; lo += warp_size) {
    warps_.emplace_back(std::min(warp_size, n - lo));
  }
  for (u32 t = 0; t < n; ++t) {
    recorders_[t].bind(&warps_[t / warp_size], t % warp_size);
  }
  full_rounds_.assign(warps_.size(), 0);
  rounds_.assign(warps_.size(), 0);
  scratch.group.reserve(warp_size);
  scratch.sub.reserve(warp_size);
  scratch.group_lanes.reserve(warp_size);
  scratch.sub_lanes.reserve(warp_size);
  scratch.gmem.sectors.reserve(2 * warp_size);
  scratch.lane_ids.resize(n);
  std::iota(scratch.lane_ids.begin(), scratch.lane_ids.end(), 0u);
}

template <typename Bind>
void LaneSet::start(Dim3 block_idx, bool profile, Bind&& bind) {
  // The previous block's frames go back on the free list before this
  // block's are made from it.
  for (Lane& lane : lanes_) lane.prog = ThreadProgram{};
  std::fill(smem_.begin(), smem_.end(), std::byte{0});
  if (profile) profiles_.assign(lanes_.size(), profile::LaneProfile{});
  done_count_ = 0;
  FramePool::Scope scope(frames_);
  for (u32 t = 0; t < size(); ++t) {
    Lane& lane = lanes_[t];
    lane.done = false;
    lane.hash = kTraceHashInit;
    lane.ctx = ThreadCtx{};
    lane.ctx.grid_dim = cfg_.grid;
    lane.ctx.block_dim = cfg_.block;
    lane.ctx.block_idx = block_idx;
    lane.ctx.thread_idx = Dim3{t % cfg_.block.x,
                               (t / cfg_.block.x) % cfg_.block.y,
                               t / (cfg_.block.x * cfg_.block.y)};
    lane.ctx.bind_smem(smem_.data(), cfg_.shared_bytes);
    bind(t, lane.ctx);
    if (profile) lane.ctx.bind_profile(&profiles_[t]);
    lane.prog = body_(lane.ctx);
    KCONV_CHECK(lane.prog.valid(), "kernel body returned an empty program");
  }
}

void LaneSet::start_stream(Dim3 block_idx, u32 event_cap, bool profile) {
  start(block_idx, profile, [&](u32 t, ThreadCtx& ctx) {
    recorders_[t].reset_stream(event_cap);
    ctx.bind_recorder(&recorders_[t]);
  });
}

void LaneSet::start_replay(Dim3 block_idx, std::span<const u32> lane_events) {
  KCONV_ASSERT(lane_events.size() == lanes_.size());
  start(block_idx, false, [&](u32 t, ThreadCtx& ctx) {
    recorders_[t].reset_replay(lane_events[t]);
    ctx.bind_recorder(&recorders_[t]);
  });
}

void LaneSet::start_tape(Dim3 block_idx, std::span<LaneTapeBuilder> builders) {
  KCONV_ASSERT(builders.size() == lanes_.size());
  start(block_idx, false,
        [&](u32 t, ThreadCtx& ctx) { ctx.bind_tape(&builders[t]); });
}

bool LaneSet::resume(u32 t) {
  Lane& lane = lanes_[t];
  lane.prog.resume();
  if (!lane.prog.done()) return false;
  if (lane.prog.promise().error) {
    std::rethrow_exception(lane.prog.promise().error);
  }
  lane.done = true;
  ++done_count_;
  return true;
}

void LaneSet::run_segment() {
  // Ended lanes are cleared too: the segment's streams are exactly the
  // events this pass records. Per-lane order within a segment is free
  // (task.hpp contract).
  for (u32 t = 0; t < size(); ++t) {
    recorders_[t].begin_segment();
    if (lanes_[t].done || resume(t)) continue;
    KCONV_ASSERT(lanes_[t].prog.promise().pending.op == Op::Sync);
  }
  const u32 warp_size = arch_.warp_size;
  for (u32 w = 0; w < warps(); ++w) {
    const u32 lo = w * warp_size;
    const u32 hi = lo + warps_[w].width();
    u32 lo_len = std::numeric_limits<u32>::max();
    u32 hi_len = 0;
    for (u32 t = lo; t < hi; ++t) {
      const u32 len = recorders_[t].kept();
      seg_len_[t] = len;
      lo_len = std::min(lo_len, len);
      hi_len = std::max(hi_len, len);
    }
    full_rounds_[w] = lo_len;
    rounds_[w] = hi_len;
  }
}

void LaneSet::run_to_end() {
  // Each pass is one barrier segment, so pass boundaries ARE the barrier
  // semantics.
  while (!all_done()) run_segment();
}

void LaneSet::charge_compute(KernelStats& stats) const {
  const u32 warp_size = arch_.warp_size;
  for (u32 lo = 0; lo < size(); lo += warp_size) {
    const u32 hi = std::min(lo + warp_size, size());
    u64 max_fma = 0, max_alu = 0, max_events = 0;
    for (u32 t = lo; t < hi; ++t) {
      const ThreadCtx& ctx = lanes_[t].ctx;
      stats.fma_lane_ops += ctx.fma_ops();
      stats.alu_lane_ops += ctx.alu_ops();
      max_fma = std::max(max_fma, ctx.fma_ops());
      max_alu = std::max(max_alu, ctx.alu_ops());
      max_events =
          std::max(max_events, static_cast<u64>(recorders_[t].events()));
    }
    stats.fma_warp_instrs += max_fma;
    stats.alu_warp_instrs += max_alu;
    stats.max_warp_instrs =
        std::max(stats.max_warp_instrs, max_events + max_fma + max_alu);
  }
}

void run_block(LaneSet& lanes, Dim3 block_idx, TraceLevel trace,
               u64 max_rounds, L2Cache* const_cache, L2Cache& gm_l2,
               KernelStats& stats, BlockTrace* capture,
               PatternCache* pattern, analysis::BlockChecker* checker,
               profile::BlockProfiler* prof) {
  const Arch& arch = lanes.arch();
  const u32 n_lanes = lanes.size();
  const u32 warp_size = arch.warp_size;
  if (checker != nullptr) checker->begin_block(block_idx);

  // A lane retires at most one event per scheduling round, so capping each
  // recorder at max_rounds preserves the round limit's runaway guarantee —
  // including for loops that never suspend in fast-forward.
  const u32 event_cap = static_cast<u32>(
      std::min<u64>(max_rounds, std::numeric_limits<u32>::max()));
  lanes.start_stream(block_idx, event_cap, prof != nullptr);

  LaneSet::Scratch& sc = lanes.scratch;
  // Per-lane per-phase arithmetic is drained into the profiler at each
  // barrier; prev_profiles holds the last drained snapshot.
  if (prof != nullptr) sc.prev_profiles.assign(n_lanes, profile::LaneProfile{});
  const u32 n_warps = lanes.warps();
  bool segment_had_gm_load = false;
  bool segment_had_sm_store = false;
  u64 rounds = 0;
  std::vector<Access>& group_acc = sc.group;
  std::vector<Access>& sub_acc = sc.sub;
  std::vector<u32>& group_lanes = sc.group_lanes;
  std::vector<u32>& sub_lanes = sc.sub_lanes;
  // Index of each lane's first event of the current segment within its full
  // retired stream, so the hazard checker can report stable op indices.
  std::vector<u32>& seg_base = sc.seg_base;
  seg_base.assign(n_lanes, 0);

  // Execute the block one barrier-delimited segment at a time: every live
  // lane fast-forwards to its next sync (or completion) in a single resume,
  // writing its events into its warp's log, and the logs are then walked in
  // lockstep round order — row r of a warp, the r-th event of each of its
  // lanes, retires as one warp transaction, exactly as a suspension-per-
  // event scheduler would have ordered them (round-major, then warp, then
  // operation kind). This keeps coroutine switches off the per-event cost
  // while preserving the retire order that the stateful cache models
  // observe.
  while (!lanes.all_done()) {
    lanes.run_segment();
    u32 seg_rounds = 0;
    for (u32 w = 0; w < n_warps; ++w) {
      seg_rounds = std::max(seg_rounds, lanes.rounds(w));
    }
    for (u32 t = 0; checker != nullptr && t < n_lanes; ++t) {
      seg_base[t] = lanes.recorder(t).events() - lanes.seg_len(t);
    }
    for (u32 t = 0; capture != nullptr && t < n_lanes; ++t) {
      u64& hash = lanes.hash(t);
      for (u32 k = 0; k < lanes.seg_len(t); ++k) {
        hash = trace_hash_access(hash, lanes.event(t, k));
      }
    }
    rounds += seg_rounds;
    KCONV_CHECK(rounds <= max_rounds,
                strf("device program exceeded %llu scheduling rounds "
                     "(runaway loop?)",
                     static_cast<unsigned long long>(max_rounds)));

    for (u32 r = 0; r < seg_rounds; ++r) {
      for (u32 w = 0; w < n_warps; ++w) {
        if (r >= lanes.rounds(w)) continue;
        const u32 lo = w * warp_size;
        const std::span<const Access> row = lanes.row(w, r);

        // Lockstep warps (the overwhelmingly common case): every lane holds
        // a round-r event of one kind, and the row retires in place.
        if (r < lanes.full_rounds(w) && uniform_row(row)) {
          const Op op = row[0].op;
          if (checker != nullptr) {
            // Retire order within the group (lane order) is irrelevant to
            // the detector: intra-warp same-round pairs are unordered by
            // definition, and it checks both directions of each pair.
            for (u32 i = 0; i < row.size(); ++i) {
              checker->on_access(lo + i, r, seg_base[lo + i] + r, row[i]);
            }
          }
          retire_group(arch, trace, const_cache, gm_l2, op, row, stats,
                       segment_had_gm_load, segment_had_sm_store, sc.gmem,
                       pattern, prof);
          record_tx(capture, op,
                    std::span(sc.lane_ids).subspan(lo, row.size()));
          continue;
        }

        // Ragged or divergent row: gather the lanes that hold a round-r
        // memory event.
        group_acc.clear();
        group_lanes.clear();
        u32 op_mask = 0;
        for (u32 i = 0; i < row.size(); ++i) {
          if (r >= lanes.seg_len(lo + i)) continue;
          const Access& a = row[i];
          if (a.op == Op::Sync) continue;
          op_mask |= 1u << static_cast<u32>(a.op);
          group_acc.push_back(a);
          group_lanes.push_back(lo + i);
        }
        if (group_acc.empty()) continue;

        if (checker != nullptr) {
          for (std::size_t i = 0; i < group_acc.size(); ++i) {
            const u32 t = group_lanes[i];
            checker->on_access(t, r, seg_base[t] + r, group_acc[i]);
          }
        }

        if ((op_mask & (op_mask - 1)) == 0) {
          const Op op = static_cast<Op>(std::countr_zero(op_mask));
          retire_group(arch, trace, const_cache, gm_l2, op, group_acc, stats,
                       segment_had_gm_load, segment_had_sm_store,
                       sc.gmem, pattern, prof);
          record_tx(capture, op, group_lanes);
        } else {
          // Divergent warp: split by operation kind in the canonical
          // retire order, preserving lane order within each group.
          for (const Op op : {Op::LoadGlobal, Op::StoreGlobal, Op::LoadShared,
                              Op::StoreShared, Op::LoadConst}) {
            if ((op_mask >> static_cast<u32>(op) & 1u) == 0) continue;
            sub_acc.clear();
            sub_lanes.clear();
            for (u32 i = 0; i < group_acc.size(); ++i) {
              if (group_acc[i].op == op) {
                sub_acc.push_back(group_acc[i]);
                sub_lanes.push_back(group_lanes[i]);
              }
            }
            retire_group(arch, trace, const_cache, gm_l2, op, sub_acc, stats,
                         segment_had_gm_load, segment_had_sm_store,
                         sc.gmem, pattern, prof);
            record_tx(capture, op, sub_lanes);
          }
          stats.divergent_retires +=
              static_cast<u64>(std::popcount(op_mask)) - 1;
        }
      }
    }

    // Drain the segment's arithmetic into the profiler, phase by phase,
    // before the barrier closes the segment's timeline slices.
    if (prof != nullptr) {
      u64 dfma[profile::kNumPhases] = {};
      u64 dalu[profile::kNumPhases] = {};
      for (u32 t = 0; t < n_lanes; ++t) {
        const profile::LaneProfile& lp = lanes.lane_profile(t);
        profile::LaneProfile& prev = sc.prev_profiles[t];
        for (u32 i = 0; i < profile::kNumPhases; ++i) {
          dfma[i] += lp.fma[i] - prev.fma[i];
          dalu[i] += lp.alu[i] - prev.alu[i];
        }
        prev = lp;
      }
      for (u32 i = 0; i < profile::kNumPhases; ++i) {
        prof->compute(static_cast<profile::Phase>(i), dfma[i], dalu[i]);
      }
    }

    // Any lane still live is suspended at its sync (the only suspension
    // point in fast-forward), so reaching here with live lanes means the
    // barrier releases.
    if (checker != nullptr) checker->on_barrier();
    if (!lanes.all_done()) {
      ++stats.barriers;
      if (prof != nullptr) prof->barrier();
      if (segment_had_gm_load) ++stats.gm_phases;
      if (segment_had_gm_load && segment_had_sm_store) {
        ++stats.gm_dep_phases;
      }
      segment_had_gm_load = false;
      segment_had_sm_store = false;
    }
  }
  if (segment_had_gm_load) ++stats.gm_phases;
  if (segment_had_gm_load && segment_had_sm_store) ++stats.gm_dep_phases;

  lanes.charge_compute(stats);
  ++stats.blocks_executed;
  if (checker != nullptr) checker->end_block();

  if (capture != nullptr) {
    capture->captured_block = block_idx;
    capture->lane_hash.resize(n_lanes);
    capture->lane_events.resize(n_lanes);
    for (u32 t = 0; t < n_lanes; ++t) {
      capture->lane_hash[t] = lanes.hash(t);
      capture->lane_events[t] = lanes.recorder(t).events();
    }
  }
}

}  // namespace kconv::sim
