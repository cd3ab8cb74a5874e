// The executor retires a lockstep warp's round in place, straight from its
// warp's event row (block_exec.cpp), and gathers only ragged or divergent
// rounds. These tests pin that shortcut to the plain per-lane gather on
// generated warps — divergent op kinds, lanes that end segments or the
// whole program early, predicated-off lanes, a partial last warp and
// segments longer than one storage growth step — and pin the recorder's
// edges: the event cap, replay overflow and an unbound lane.
#include "src/sim/block_exec.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/analysis/hazard.hpp"
#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/common/strutil.hpp"
#include "src/sim/banks.hpp"
#include "src/sim/coalescing.hpp"
#include "src/sim/constmem.hpp"
#include "src/sim/device.hpp"

namespace kconv::sim {
namespace {

// --- Generated programs ---------------------------------------------------

/// One memory op of a generated lane program.
struct Ev {
  Op op = Op::LoadShared;
  bool pred = true;
  bool wide = false;  // Vec<float, 2> instead of float (global/shared)
  i64 idx = 0;        // element index, even when wide
  u32 fmas = 0;       // multiply-adds issued after the op
};

/// [lane][segment][event]; lane t syncs after every segment but its last.
using BlockProgram = std::vector<std::vector<std::vector<Ev>>>;

constexpr i64 kGlobalFloats = 4096;
constexpr i64 kConstFloats = 256;
constexpr i64 kSharedFloats = 512;

i64 pick_idx(Rng& rng, i64 n, bool wide) {
  const i64 i = static_cast<i64>(rng.below(static_cast<u64>(n)));
  return wide ? i & ~i64{1} : i;
}

Ev random_ev(Rng& rng, Op op) {
  Ev e;
  e.op = op;
  e.wide = op != Op::LoadConst && rng.below(3) == 0;
  e.pred = op == Op::LoadConst || rng.below(6) != 0;
  const i64 n = op == Op::LoadConst               ? kConstFloats
                : op == Op::LoadShared ||
                        op == Op::StoreShared     ? kSharedFloats
                                                  : kGlobalFloats;
  e.idx = pick_idx(rng, n, e.wide);
  e.fmas = static_cast<u32>(rng.below(3));
  return e;
}

Op random_op(Rng& rng) {
  static constexpr Op kOps[] = {Op::LoadGlobal, Op::StoreGlobal,
                                Op::LoadShared, Op::StoreShared,
                                Op::LoadConst};
  return kOps[rng.below(5)];
}

/// One block's program. Each warp draws a style: lockstep (every lane the
/// same ops, lane-strided addresses), divergent (per-lane op kinds), or
/// ragged (lockstep ops, but lanes cut segments short or end the whole
/// program early). Segment lengths reach past two storage growth steps.
BlockProgram generate_block(u64 seed, u32 n_lanes, u32 warp_size) {
  Rng rng(seed);
  BlockProgram prog(n_lanes);
  const u32 n_segs = 1 + static_cast<u32>(rng.below(4));
  for (u32 lo = 0; lo < n_lanes; lo += warp_size) {
    const u32 hi = std::min(lo + warp_size, n_lanes);
    const u32 style = static_cast<u32>(rng.below(3));
    for (u32 s = 0; s < n_segs; ++s) {
      const u32 len = static_cast<u32>(
          rng.below(4) == 0 ? 2 * WarpEvents::kRows + rng.below(20)
                            : rng.below(WarpEvents::kRows));
      // The warp's shared op sequence (lockstep and ragged styles).
      std::vector<Ev> common;
      for (u32 k = 0; k < len; ++k) {
        common.push_back(random_ev(rng, random_op(rng)));
      }
      for (u32 t = lo; t < hi; ++t) {
        if (prog[t].size() < s) continue;  // this lane already ended
        // Ragged: a lane may end its program before this segment.
        if (style == 2 && s > 0 && rng.below(5) == 0) continue;
        std::vector<Ev> seg;
        u32 n = len;
        if (style == 2 && len > 0 && rng.below(3) == 0) {
          n = static_cast<u32>(rng.below(len));
        }
        for (u32 k = 0; k < n; ++k) {
          Ev e = style == 1 ? random_ev(rng, random_op(rng)) : common[k];
          if (style != 1 && rng.below(8) == 0) e.pred = e.op == Op::LoadConst;
          if (style != 1 && e.op != Op::LoadConst) {
            // Lane-strided addresses, as a lockstep kernel issues them.
            const i64 n_elems = e.op == Op::LoadShared ||
                                        e.op == Op::StoreShared
                                    ? kSharedFloats
                                    : kGlobalFloats;
            const i64 step = e.wide ? 2 : 1;
            e.idx = (e.idx + step * (t - lo)) % n_elems;
          }
          seg.push_back(e);
        }
        prog[t].push_back(std::move(seg));
      }
    }
  }
  return prog;
}

/// Runs a generated program: block b, lane t issues programs[b][t].
class SynthKernel {
 public:
  const std::vector<BlockProgram>* programs = nullptr;
  BufferView<float> gm;
  ConstView<float> cm;

  ThreadProgram operator()(ThreadCtx& t) const {
    const auto& segs = (*programs)[t.block_idx.x][t.flat_tid()];
    auto sh = t.shared<float>(0, kSharedFloats);
    float acc = 1.0f;
    for (std::size_t s = 0; s < segs.size(); ++s) {
      for (const Ev& e : segs[s]) {
        switch (e.op) {
          case Op::LoadGlobal:
            if (e.wide) {
              const auto v = t.template ld_global_if<Vec<float, 2>>(
                  e.pred, gm, e.idx);
              acc += v[0];
            } else {
              acc += t.ld_global_if(e.pred, gm, e.idx);
            }
            break;
          case Op::StoreGlobal:
            if (e.wide) {
              t.st_global_if(e.pred, gm, e.idx,
                                      Vec<float, 2>{acc, acc});
            } else {
              t.st_global_if(e.pred, gm, e.idx, acc);
            }
            break;
          case Op::LoadShared:
            if (!e.pred) {
              // Shared loads have no predicated form; a lane that skips
              // one issues nothing, so it diverges instead.
              break;
            }
            if (e.wide) {
              const auto v =
                  t.template ld_shared<Vec<float, 2>>(sh, e.idx);
              acc += v[1];
            } else {
              acc += t.ld_shared(sh, e.idx);
            }
            break;
          case Op::StoreShared:
            if (e.wide) {
              t.st_shared_if(e.pred, sh, e.idx,
                                      Vec<float, 2>{acc, acc});
            } else {
              t.st_shared_if(e.pred, sh, e.idx, acc);
            }
            break;
          case Op::LoadConst:
            acc += t.ld_const(cm, e.idx);
            break;
          case Op::Sync:
            break;
        }
        for (u32 i = 0; i < e.fmas; ++i) acc = t.fma(acc, 0.5f, 1.0f);
      }
      if (s + 1 < segs.size()) co_await t.sync();
    }
  }
};

// --- The reference: per-lane stream copies and the plain gather ----------

struct RefCaches {
  L2Cache gm_l2;
  L2Cache const_cache;
  explicit RefCaches(const Arch& arch)
      : gm_l2(arch.l2_capacity, arch.gm_sector_bytes),
        const_cache(arch.const_cache_per_sm, arch.const_line_bytes, 4) {}
};

struct SegFlags {
  bool gm_load = false;
  bool sm_store = false;
};

void ref_retire(const Arch& arch, RefCaches& caches, Op op,
                const std::vector<Access>& acc, KernelStats& stats,
                SegFlags& seg) {
  switch (op) {
    case Op::LoadShared:
    case Op::StoreShared: {
      const SmemCost c =
          analyze_smem(acc, arch.smem_banks, arch.smem_bank_bytes);
      if (c.lane_bytes == 0) return;
      ++stats.smem_instrs;
      stats.smem_request_cycles += c.request_cycles;
      stats.smem_bytes += c.unique_bytes;
      stats.smem_lane_bytes += c.lane_bytes;
      if (op == Op::StoreShared) {
        ++stats.smem_store_instrs;
        stats.smem_store_request_cycles += c.request_cycles;
        seg.sm_store = true;
      }
      return;
    }
    case Op::LoadGlobal:
    case Op::StoreGlobal: {
      const GmemCost c = analyze_gmem(acc, arch.gm_sector_bytes);
      if (c.lane_bytes == 0) return;
      ++stats.gm_instrs;
      stats.gm_sectors += c.sectors.size();
      stats.gm_bytes_useful += c.lane_bytes;
      for (const u64 sector : c.sectors) {
        if (!caches.gm_l2.access(sector)) ++stats.gm_sectors_dram;
      }
      if (op == Op::LoadGlobal) seg.gm_load = true;
      return;
    }
    case Op::LoadConst: {
      const ConstCost c = analyze_const(acc, arch.const_line_bytes);
      ++stats.const_instrs;
      stats.const_requests += c.requests;
      for (u32 i = 0; i < c.lines_touched; ++i) {
        if (!caches.const_cache.access(c.line_addrs[i])) {
          ++stats.const_line_misses;
        }
      }
      return;
    }
    case Op::Sync:
      return;
  }
}

/// Records the transaction as (op, warp's first lane, lane mask), building
/// the mask from the explicit lane list.
void ref_record_tx(BlockTrace& trace, Op op, u32 lo,
                   const std::vector<u32>& lanes) {
  if (op != Op::LoadGlobal && op != Op::StoreGlobal && op != Op::LoadConst) {
    return;
  }
  u32 mask = 0;
  for (const u32 t : lanes) mask |= 1u << (t - lo);
  trace.txs.push_back({op, lo, mask});
}

/// Executes one block lane by lane, each lane recording into a log of its
/// own, and retires the copied streams with the gather loop: every round,
/// every warp, collect the lanes holding a memory event, split by kind.
void reference_block(const Arch& arch, const KernelBody& body,
                     const LaunchConfig& cfg, Dim3 block_idx,
                     RefCaches& caches, KernelStats& stats, BlockTrace& trace,
                     analysis::BlockChecker& checker) {
  const u32 n = cfg.block.count();
  const u32 warp_size = arch.warp_size;
  std::vector<std::byte> smem(cfg.shared_bytes);
  std::vector<ThreadCtx> ctxs(n);
  std::vector<std::unique_ptr<WarpEvents>> logs;
  std::vector<LaneRecorder> recs(n);
  std::vector<ThreadProgram> progs(n);
  std::vector<bool> done(n, false);
  std::vector<u64> hash(n, kTraceHashInit);
  for (u32 t = 0; t < n; ++t) {
    ThreadCtx& c = ctxs[t];
    c.grid_dim = cfg.grid;
    c.block_dim = cfg.block;
    c.block_idx = block_idx;
    c.thread_idx = Dim3{t % cfg.block.x, (t / cfg.block.x) % cfg.block.y,
                        t / (cfg.block.x * cfg.block.y)};
    c.bind_smem(smem.data(), cfg.shared_bytes);
    logs.push_back(std::make_unique<WarpEvents>(1));
    recs[t].bind(logs.back().get(), 0);
    recs[t].reset_stream(1u << 20);
    c.bind_recorder(&recs[t]);
    progs[t] = body(c);
  }
  checker.begin_block(block_idx);
  std::vector<std::vector<Access>> streams(n);
  std::vector<u32> seg_base(n, 0);
  std::vector<Access> group, sub;
  std::vector<u32> group_lanes, sub_lanes;
  SegFlags seg;
  u32 n_done = 0;
  while (n_done < n) {
    u32 seg_rounds = 0;
    for (u32 t = 0; t < n; ++t) {
      recs[t].begin_segment();
      if (!done[t]) {
        progs[t].resume();
        if (progs[t].done()) {
          if (progs[t].promise().error) {
            std::rethrow_exception(progs[t].promise().error);
          }
          done[t] = true;
          ++n_done;
        }
      }
      streams[t].clear();
      for (u32 k = 0; k < recs[t].kept(); ++k) {
        streams[t].push_back(recs[t].event(k));
      }
      seg_base[t] = recs[t].events() - recs[t].kept();
      seg_rounds = std::max(seg_rounds, static_cast<u32>(streams[t].size()));
      for (const Access& a : streams[t]) {
        hash[t] = trace_hash_access(hash[t], a);
      }
    }
    for (u32 r = 0; r < seg_rounds; ++r) {
      for (u32 lo = 0; lo < n; lo += warp_size) {
        const u32 hi = std::min(lo + warp_size, n);
        group.clear();
        group_lanes.clear();
        u32 op_mask = 0;
        for (u32 t = lo; t < hi; ++t) {
          if (r >= streams[t].size() || streams[t][r].op == Op::Sync) continue;
          op_mask |= 1u << static_cast<u32>(streams[t][r].op);
          group.push_back(streams[t][r]);
          group_lanes.push_back(t);
        }
        if (group.empty()) continue;
        for (std::size_t i = 0; i < group.size(); ++i) {
          const u32 t = group_lanes[i];
          checker.on_access(t, r, seg_base[t] + r, group[i]);
        }
        u32 kinds = 0;
        for (const Op op : {Op::LoadGlobal, Op::StoreGlobal, Op::LoadShared,
                            Op::StoreShared, Op::LoadConst}) {
          if ((op_mask >> static_cast<u32>(op) & 1u) == 0) continue;
          ++kinds;
          sub.clear();
          sub_lanes.clear();
          for (std::size_t i = 0; i < group.size(); ++i) {
            if (group[i].op != op) continue;
            sub.push_back(group[i]);
            sub_lanes.push_back(group_lanes[i]);
          }
          ref_retire(arch, caches, op, sub, stats, seg);
          ref_record_tx(trace, op, lo, sub_lanes);
        }
        stats.divergent_retires += kinds - 1;
      }
    }
    checker.on_barrier();
    if (n_done < n) {
      ++stats.barriers;
      if (seg.gm_load) ++stats.gm_phases;
      if (seg.gm_load && seg.sm_store) ++stats.gm_dep_phases;
      seg = SegFlags{};
    }
  }
  if (seg.gm_load) ++stats.gm_phases;
  if (seg.gm_load && seg.sm_store) ++stats.gm_dep_phases;
  for (u32 lo = 0; lo < n; lo += warp_size) {
    const u32 hi = std::min(lo + warp_size, n);
    u64 max_fma = 0, max_alu = 0, max_events = 0;
    for (u32 t = lo; t < hi; ++t) {
      stats.fma_lane_ops += ctxs[t].fma_ops();
      stats.alu_lane_ops += ctxs[t].alu_ops();
      max_fma = std::max(max_fma, ctxs[t].fma_ops());
      max_alu = std::max(max_alu, ctxs[t].alu_ops());
      max_events = std::max<u64>(max_events, recs[t].events());
    }
    stats.fma_warp_instrs += max_fma;
    stats.alu_warp_instrs += max_alu;
    stats.max_warp_instrs =
        std::max(stats.max_warp_instrs, max_events + max_fma + max_alu);
  }
  ++stats.blocks_executed;
  checker.end_block();
  trace.captured_block = block_idx;
  trace.lane_hash = hash;
  trace.lane_events.clear();
  for (u32 t = 0; t < n; ++t) trace.lane_events.push_back(recs[t].events());
}

void expect_same_trace(const BlockTrace& want, const BlockTrace& got) {
  ASSERT_EQ(want.txs.size(), got.txs.size());
  for (std::size_t i = 0; i < want.txs.size(); ++i) {
    EXPECT_EQ(want.txs[i].op, got.txs[i].op) << "tx " << i;
    EXPECT_EQ(want.txs[i].lo, got.txs[i].lo) << "tx " << i;
    EXPECT_EQ(want.txs[i].mask, got.txs[i].mask) << "tx " << i;
  }
  EXPECT_EQ(want.lane_hash, got.lane_hash);
  EXPECT_EQ(want.lane_events, got.lane_events);
}

void expect_same_op(const analysis::HazardOp& a, const analysis::HazardOp& b) {
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.warp, b.warp);
  EXPECT_EQ(a.lane, b.lane);
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.op_index, b.op_index);
}

void expect_same_hazards(const analysis::BlockChecker& want,
                         const analysis::BlockChecker& got) {
  EXPECT_EQ(want.races_total(), got.races_total());
  ASSERT_EQ(want.records().size(), got.records().size());
  for (std::size_t i = 0; i < want.records().size(); ++i) {
    SCOPED_TRACE(testing::Message() << "hazard " << i);
    const analysis::HazardRecord& a = want.records()[i];
    const analysis::HazardRecord& b = got.records()[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.addr, b.addr);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.epoch, b.epoch);
    expect_same_op(a.first, b.first);
    expect_same_op(a.second, b.second);
  }
}

struct SynthSetup {
  Device dev{kepler_k40m()};
  DeviceArray<float> gm = dev.alloc<float>(kGlobalFloats);
  std::unique_ptr<ConstBuffer> cbank;
  std::vector<BlockProgram> programs;
  SynthKernel k;
  LaunchConfig cfg;

  SynthSetup(u64 seed, u32 n_lanes, u32 n_blocks) {
    gm.zero();
    std::vector<float> csrc(kConstFloats, 0.25f);
    cbank = dev.alloc_const<float>(csrc);
    const u32 warp_size = dev.arch().warp_size;
    for (u32 b = 0; b < n_blocks; ++b) {
      programs.push_back(generate_block(seed * 131 + b, n_lanes, warp_size));
    }
    k.programs = &programs;
    k.gm = gm.view();
    k.cm = ConstView<float>(cbank.get(), 0, kConstFloats);
    cfg.grid = {n_blocks, 1, 1};
    cfg.block = {n_lanes, 1, 1};
    cfg.shared_bytes = kSharedFloats * sizeof(float);
  }
};

class InPlaceRetire : public ::testing::TestWithParam<u32> {};

TEST_P(InPlaceRetire, EqualsThePerLaneGather) {
  const u32 n_lanes = GetParam();
  for (u64 seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    SynthSetup s(seed, n_lanes, 3);
    const Arch& arch = s.dev.arch();
    const KernelBody body = [&s](ThreadCtx& t) { return s.k(t); };
    const u64 max_rounds = LaunchOptions{}.max_rounds_per_block;

    RefCaches ref_caches(arch), got_caches(arch);
    analysis::BlockChecker ref_checker(s.cfg, arch.warp_size);
    analysis::BlockChecker got_checker(s.cfg, arch.warp_size);
    KernelStats ref_stats, got_stats;
    // One LaneSet for every block: warp logs carry their storage over.
    LaneSet lanes(arch, body, s.cfg);
    for (u32 b = 0; b < s.cfg.grid.x; ++b) {
      SCOPED_TRACE(testing::Message() << "block " << b);
      const Dim3 bi{b, 0, 0};
      BlockTrace ref_trace, got_trace;
      reference_block(arch, body, s.cfg, bi, ref_caches, ref_stats,
                      ref_trace, ref_checker);
      run_block(lanes, bi, TraceLevel::Timing, max_rounds,
                &got_caches.const_cache, got_caches.gm_l2, got_stats,
                &got_trace, nullptr, &got_checker);
      expect_same_trace(ref_trace, got_trace);
    }
    const auto diff = stats_mismatches(ref_stats, got_stats, StatsLevel::Exact,
                                       "reference", "run_block");
    EXPECT_TRUE(diff.empty()) << diff.front();
    expect_same_hazards(ref_checker, got_checker);
    // The generator must exercise both paths.
    EXPECT_GT(got_stats.divergent_retires, 0u);
    EXPECT_GT(got_stats.const_instrs, 0u);
  }
}

// 64 lanes: two full warps. 80 lanes: the last warp holds 16.
INSTANTIATE_TEST_SUITE_P(Lanes, InPlaceRetire, ::testing::Values(64u, 80u),
                         [](const ::testing::TestParamInfo<u32>& info) {
                           return "L" + std::to_string(info.param);
                         });

// --- Recorder edges ---------------------------------------------------------

/// Notes `n` events on lane 1 of a three-lane log, split over two
/// segments, under a stream cap of `cap`; returns the error, or "".
std::string stream_notes(u32 cap, u32 n) {
  WarpEvents log(3);
  LaneRecorder rec;
  rec.bind(&log, 1);
  rec.reset_stream(cap);
  try {
    for (u32 i = 0; i < n; ++i) {
      if (i == n / 2) rec.begin_segment();
      rec.note(Op::LoadShared, 4 * i, 4, profile::Phase::Other);
    }
  } catch (const Error& e) {
    return e.what();
  }
  EXPECT_EQ(rec.events(), n);
  EXPECT_EQ(rec.kept(), n - n / 2);
  for (u32 k = 0; k < rec.kept(); ++k) {
    EXPECT_EQ(rec.event(k).addr, 4u * (n / 2 + k));
  }
  return "";
}

TEST(EventCap, StreamCapAdmitsExactlyCapEventsAcrossGrowthSteps) {
  const u32 step = WarpEvents::kRows;
  for (const u32 cap : {step - 1, step, step + 1, 2 * step, 3 * step + 1}) {
    SCOPED_TRACE(testing::Message() << "cap " << cap);
    EXPECT_EQ(stream_notes(cap, cap - 1), "");
    EXPECT_EQ(stream_notes(cap, cap), "");
    const std::string err = stream_notes(cap, cap + 1);
    EXPECT_NE(err.find(strf("exceeded %u retired events per lane", cap)),
              std::string::npos)
        << err;
  }
  // One segment longer than the cap, past a growth step.
  WarpEvents log(2);
  LaneRecorder rec;
  rec.bind(&log, 0);
  rec.reset_stream(2 * step);
  for (u32 i = 0; i < 2 * step; ++i) rec.note(Op::LoadConst, i, 4, {});
  EXPECT_THROW(rec.note(Op::LoadConst, 0, 4, {}), Error);
  EXPECT_EQ(rec.kept(), 2 * step);
}

TEST(EventCap, RunBlockStopsARunawayLaneAtTheCap) {
  // Every lane issues one event more than the cap in its one segment.
  Device dev(kepler_k40m());
  auto gm = dev.alloc<float>(64);
  gm.zero();
  const u32 cap = WarpEvents::kRows + 3;
  struct Runaway {
    BufferView<float> gm;
    u32 n;
    ThreadProgram operator()(ThreadCtx& t) const {
      for (u32 i = 0; i < n; ++i) (void)t.ld_global(gm, t.flat_tid());
      co_return;
    }
  } k{gm.view(), cap + 1};
  LaunchConfig cfg;
  cfg.block = {40, 1, 1};
  const KernelBody body = [&k](ThreadCtx& t) { return k(t); };
  LaneSet lanes(dev.arch(), body, cfg);
  L2Cache l2(dev.arch().l2_capacity, dev.arch().gm_sector_bytes);
  KernelStats stats;
  try {
    run_block(lanes, Dim3{}, TraceLevel::Timing, cap, nullptr, l2, stats);
    ADD_FAILURE() << "runaway lane was not stopped";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  strf("exceeded %u retired events per lane", cap)),
              std::string::npos)
        << e.what();
  }
  // At the cap itself the block runs.
  k.n = cap;
  KernelStats ok;
  run_block(lanes, Dim3{}, TraceLevel::Timing, cap, nullptr, l2, ok);
  EXPECT_EQ(ok.gm_instrs, cap * 2u);  // two warps
}

TEST(EventCap, ReplayOverflowIsACongruenceViolation) {
  for (const u32 cap : {3u, WarpEvents::kRows, WarpEvents::kRows + 1}) {
      WarpEvents log(4);
    LaneRecorder rec;
    rec.bind(&log, 3);
    rec.reset_replay(cap);
    for (u32 i = 0; i < cap; ++i) {
      // Only global/constant events are kept; all are counted and hashed.
      rec.note(i % 2 == 0 ? Op::LoadConst : Op::LoadShared, 8 * i, 4, {});
    }
    EXPECT_EQ(rec.events(), cap);
    EXPECT_EQ(rec.kept(), (cap + 1) / 2);
    try {
      rec.note(Op::LoadShared, 0, 4, {});
      ADD_FAILURE() << "replay overflow not detected at cap " << cap;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("replay congruence violation"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(EventCap, UnboundLaneFailsItsFirstMemoryOp) {
  Device dev(kepler_k40m());
  auto gm = dev.alloc<float>(4);
  gm.zero();
  struct OneLoad {
    BufferView<float> gm;
    ThreadProgram operator()(ThreadCtx& t) const {
      (void)t.ld_global(gm, 0);
      co_return;
    }
  } k{gm.view()};
  ThreadCtx t;
  ThreadProgram prog = k(t);
  prog.resume();
  ASSERT_TRUE(prog.done());
  ASSERT_TRUE(prog.promise().error);
  try {
    std::rethrow_exception(prog.promise().error);
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "device memory op on a ThreadCtx with neither a "
                  "LaneRecorder nor a LaneTapeBuilder bound"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace kconv::sim
