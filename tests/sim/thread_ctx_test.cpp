// Unit tests of the lane-side interface: the register-tile FMA against the
// per-slice vector FMA it replaces (values, charges and tape entries), and
// the execution contract that memory ops never suspend — only sync() does.
#include "src/sim/thread_ctx.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/sim/device.hpp"

namespace kconv::sim {
namespace {

constexpr std::size_t kStride = 12;  // wider than any tested tile

/// The reference fma_tile must equal: one vector fma per N-wide slice of
/// each accumulator row.
template <int N>
void elementwise_tile(ThreadCtx& t, float (*acc)[kStride], const float* x,
                      const float* w, i64 rows, i64 cols) {
  for (i64 i = 0; i < rows; ++i) {
    for (i64 c = 0; c < cols; c += N) {
      Vec<float, N> xs, av;
      for (int j = 0; j < N; ++j) {
        xs[j] = x[c + j];
        av[j] = acc[i][c + j];
      }
      av = t.fma(xs, w[i], av);
      for (int j = 0; j < N; ++j) acc[i][c + j] = av[j];
    }
  }
}

template <int N>
void check_untaped(u64 seed, i64 rows, i64 cols) {
  SCOPED_TRACE(testing::Message() << "N=" << N << " rows=" << rows
                                  << " cols=" << cols << " seed=" << seed);
  Rng rng(seed);
  float tile[8][kStride] = {};
  float loop[8][kStride] = {};
  for (i64 i = 0; i < rows; ++i) {
    for (i64 c = 0; c < cols; ++c) {
      tile[i][c] = loop[i][c] = rng.uniform(-4.0f, 4.0f);
    }
  }
  ThreadCtx a, b;
  profile::LaneProfile pa, pb;
  a.bind_profile(&pa);
  b.bind_profile(&pb);
  // Several accumulation steps under changing phases, as a kernel's
  // K x K x CSH loop would run them.
  const profile::Phase phases[] = {profile::Phase::Compute,
                                   profile::Phase::Other,
                                   profile::Phase::Compute};
  for (const profile::Phase ph : phases) {
    float x[kStride + 4], w[8];
    for (float& v : x) v = rng.uniform(-2.0f, 2.0f);
    for (float& v : w) v = rng.uniform(-2.0f, 2.0f);
    a.set_phase(ph);
    b.set_phase(ph);
    a.fma_tile<N>(tile, x + 1, w, rows, cols);
    elementwise_tile<N>(b, loop, x + 1, w, rows, cols);
  }
  EXPECT_EQ(std::memcmp(tile, loop, sizeof(tile)), 0);
  EXPECT_EQ(a.fma_ops(), b.fma_ops());
  EXPECT_EQ(a.fma_ops(), static_cast<u64>(3 * rows * cols));
  EXPECT_EQ(a.alu_ops(), b.alu_ops());
  for (u32 p = 0; p < profile::kNumPhases; ++p) {
    EXPECT_EQ(pa.fma[p], pb.fma[p]) << "phase " << p;
    EXPECT_EQ(pa.alu[p], pb.alu[p]) << "phase " << p;
  }
}

TEST(FmaTile, UntapedMatchesElementwiseLoopBitForBit) {
  for (const u64 seed : {1ull, 7ull, 42ull}) {
    check_untaped<1>(seed, 3, 5);
    check_untaped<2>(seed, 4, 8);
    check_untaped<4>(seed, 8, 12);
    check_untaped<4>(seed, 1, 4);
  }
}

/// Builds tapes for the same dataflow through fma_tile and through the
/// elementwise loop: x comes from shared-memory loads (tag runs), w from
/// scalar loads, and the accumulators start as 0.0f literals and are then
/// fed back as the first step's result tags.
template <int N>
void check_taped(i64 rows, i64 cols) {
  SCOPED_TRACE(testing::Message() << "N=" << N << " rows=" << rows
                                  << " cols=" << cols);
  ReplayOrigins origins;
  LaneTape tape_tile, tape_loop;
  LaneTapeBuilder bt, bl;
  bt.reset(&tape_tile, &origins);
  bl.reset(&tape_loop, &origins);
  ThreadCtx a, b;
  a.bind_tape(&bt);
  b.bind_tape(&bl);

  float tile[8][kStride] = {};
  float loop[8][kStride] = {};
  for (int step = 0; step < 2; ++step) {
    float xt[kStride], xl[kStride], wt[8], wl[8];
    const u32 x_base_t = bt.note_load_sm(0, static_cast<u32>(cols));
    const u32 x_base_l = bl.note_load_sm(0, static_cast<u32>(cols));
    for (i64 c = 0; c < cols; ++c) {
      xt[c] = LaneTapeBuilder::tag_value(x_base_t + static_cast<u32>(c));
      xl[c] = LaneTapeBuilder::tag_value(x_base_l + static_cast<u32>(c));
    }
    for (i64 i = 0; i < rows; ++i) {
      wt[i] = LaneTapeBuilder::tag_value(
          bt.note_load_sm(256 + 4 * static_cast<u64>(i), 1));
      wl[i] = LaneTapeBuilder::tag_value(
          bl.note_load_sm(256 + 4 * static_cast<u64>(i), 1));
    }
    a.fma_tile<N>(tile, xt, wt, rows, cols);
    elementwise_tile<N>(b, loop, xl, wl, rows, cols);
  }
  EXPECT_EQ(std::memcmp(tile, loop, sizeof(tile)), 0);
  EXPECT_EQ(a.fma_ops(), b.fma_ops());
  ASSERT_EQ(tape_tile.entries.size(), tape_loop.entries.size());
  for (std::size_t k = 0; k < tape_tile.entries.size(); ++k) {
    const TapeEntry& e = tape_tile.entries[k];
    const TapeEntry& f = tape_loop.entries[k];
    EXPECT_TRUE(e.op == f.op && e.flags == f.flags && e.width == f.width &&
                e.dst == f.dst && e.a == f.a && e.b == f.b && e.rel == f.rel)
        << "entry " << k;
  }
  EXPECT_EQ(tape_tile.gather, tape_loop.gather);
  EXPECT_EQ(tape_tile.n_slots, tape_loop.n_slots);
}

TEST(FmaTile, TapedIssuesTheElementwiseAxpySequence) {
  check_taped<1>(3, 5);
  check_taped<2>(4, 8);
  check_taped<4>(8, 12);
}

// --- Execution contract ----------------------------------------------------

/// Two barriers, three segments; mixes spaces, widths, predication and
/// profiling phases so the recorded stream pins every Access field.
struct ContractKernel {
  BufferView<float> gm;
  ConstView<float> cm;

  ThreadProgram operator()(ThreadCtx& t) const {
    auto sh = t.shared<float>(0, 8);
    float v = 0.0f;
    {
      ProfilePhase phase(t, profile::Phase::GmLoad);
      v = t.ld_global(gm, 1);
    }
    {
      ProfilePhase phase(t, profile::Phase::SmemStage);
      t.st_shared(sh, 2, v);
      t.st_shared_if(false, sh, 3, v);
    }
    co_await t.sync();
    const auto u = t.template ld_shared<Vec<float, 2>>(sh, 2);
    const float c = t.ld_const(cm, 3);
    co_await t.sync();
    {
      ProfilePhase phase(t, profile::Phase::Writeback);
      t.st_global(gm, 0, u[0] + u[1] + c);
      (void)t.ld_global_if(false, gm, 5);
    }
  }
};

struct Event {
  Op op;
  u64 addr;
  u32 bytes;
  profile::Phase phase;
};

void expect_segment(const LaneRecorder& rec, const std::vector<Event>& want) {
  ASSERT_EQ(rec.kept(), want.size());
  for (u32 i = 0; i < want.size(); ++i) {
    const Access& a = rec.event(i);
    EXPECT_EQ(a.op, want[i].op) << "event " << i;
    EXPECT_EQ(a.addr, want[i].addr) << "event " << i;
    EXPECT_EQ(a.bytes, want[i].bytes) << "event " << i;
    EXPECT_EQ(a.phase, want[i].phase) << "event " << i;
  }
}

TEST(LaneContract, RecorderBoundLaneRunsBarrierToBarrierInOneResume) {
  using profile::Phase;
  Device dev(kepler_k40m());
  auto gm = dev.alloc<float>(8);
  const std::vector<float> gsrc = {0, 3, 0, 0, 0, 0, 0, 0};
  gm.upload(gsrc);
  const std::vector<float> csrc = {0, 0, 0, 5};
  auto cbank = dev.alloc_const<float>(csrc);
  ContractKernel k{gm.view(), ConstView<float>(cbank.get(), 0, 4)};

  std::vector<std::byte> smem(32);
  ThreadCtx t;
  t.block_dim = {1, 1, 1};
  t.grid_dim = {1, 1, 1};
  t.bind_smem(smem.data(), 32);
  WarpEvents log(1);
  LaneRecorder rec;
  rec.bind(&log, 0);
  rec.reset_stream(100);
  t.bind_recorder(&rec);
  ThreadProgram prog = k(t);

  const u64 g0 = gm.view().addr_of(0);
  const u64 c0 = k.cm.addr_of(0);
  const std::vector<std::vector<Event>> golden = {
      {{Op::LoadGlobal, g0 + 4, 4, Phase::GmLoad},
       {Op::StoreShared, 8, 4, Phase::SmemStage},
       {Op::StoreShared, 0, 0, Phase::SmemStage},
       {Op::Sync, 0, 0, Phase::Sync}},
      {{Op::LoadShared, 8, 8, Phase::Other},
       {Op::LoadConst, c0 + 12, 4, Phase::Other},
       {Op::Sync, 0, 0, Phase::Sync}},
      {{Op::StoreGlobal, g0, 4, Phase::Writeback},
       {Op::LoadGlobal, 0, 0, Phase::Writeback}},
  };
  for (std::size_t seg = 0; seg < golden.size(); ++seg) {
    SCOPED_TRACE(testing::Message() << "segment " << seg);
    rec.begin_segment();
    prog.resume();  // one resume per barrier-delimited segment
    ASSERT_FALSE(prog.promise().error);
    expect_segment(rec, golden[seg]);
    if (seg + 1 < golden.size()) {
      ASSERT_FALSE(prog.done());
      EXPECT_EQ(prog.promise().pending.op, Op::Sync);
      EXPECT_EQ(prog.promise().pending.phase, Phase::Sync);
    } else {
      EXPECT_TRUE(prog.done());
    }
  }
  EXPECT_EQ(rec.events(), 9u);
  EXPECT_EQ(gm.download()[0], 8.0f);  // gm[1] + (predicated-off 0) + cm[3]
}

TEST(LaneContract, LaneWithNeitherRecorderNorTapeFailsLoudly) {
  Device dev(kepler_k40m());
  auto gm = dev.alloc<float>(8);
  gm.zero();
  const std::vector<float> csrc = {0, 0, 0, 0};
  auto cbank = dev.alloc_const<float>(csrc);
  ContractKernel k{gm.view(), ConstView<float>(cbank.get(), 0, 4)};
  std::vector<std::byte> smem(32);
  ThreadCtx t;
  t.bind_smem(smem.data(), 32);
  ThreadProgram prog = k(t);
  prog.resume();
  // The first memory op throws instead of suspending; the error escapes the
  // body, so the program completes carrying it.
  ASSERT_TRUE(prog.done());
  ASSERT_TRUE(prog.promise().error);
  EXPECT_THROW(std::rethrow_exception(prog.promise().error), Error);
}

}  // namespace
}  // namespace kconv::sim
