// Trace-replay correctness suite (docs/MODEL.md §5b).
//
// With LaunchOptions::replay set, one block per equivalence class runs
// through the scheduler and the rest are replayed — fast-forwarded
// coroutines, or pure tape interpretation for kernels that also declare
// replay_origins. The contract under test:
//   - functional outputs are byte-identical to the direct path, for every
//     kernel with a replay_class hook, across interior/edge/corner-heavy
//     shapes and for both the serial and the chunked parallel launcher;
//   - every scheduling-invariant counter matches the direct path exactly;
//     on a serial timing-level launch even the cache-warmth counters match
//     (replay probes the same caches in the same retire order);
//   - blocks actually get replayed (the opt-in isn't silently ignored),
//     and kernels without the hook keep blocks_replayed == 0;
//   - a kernel that misdeclares replay_class — lumping non-congruent
//     blocks into one class — fails loudly instead of charging wrong
//     counters.
#include <cstring>
#include <span>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/kernels/general_conv.hpp"
#include "src/kernels/implicit_gemm_conv.hpp"
#include "src/kernels/special_conv.hpp"
#include "src/sim/device.hpp"
#include "src/sim/launch.hpp"
#include "tests/support/stats_match.hpp"

namespace kconv {
namespace {

void expect_bytes_equal(std::span<const float> a, std::span<const float> b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

struct RunParams {
  bool replay = false;
  u32 num_threads = 1;
  sim::TraceLevel trace = sim::TraceLevel::Functional;
};

sim::LaunchOptions options(const RunParams& p) {
  sim::LaunchOptions opt;
  opt.replay = p.replay;
  opt.num_threads = p.num_threads;
  opt.trace = p.trace;
  return opt;
}

/// General conv at a shape with interior, edge and corner block classes
/// (28x28 over 16-wide tiles: interior columns plus partial right/bottom).
kernels::KernelRun run_general(const RunParams& p) {
  Rng rng(11);
  tensor::Tensor img = tensor::Tensor::image(8, 28, 28);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(32, 8, 3);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  kernels::GeneralConvConfig cfg;
  cfg.block_w = 8;
  cfg.block_h = 4;
  cfg.ftb = 32;
  cfg.wt = 4;
  cfg.ft = 4;
  cfg.csh = 2;
  return kernels::general_conv(dev, img, flt, cfg, options(p));
}

/// Special conv (single channel, large filter): the 40x40 image over
/// 16x4 tiles gives interior blocks plus right/bottom halo flavors.
kernels::KernelRun run_special(const RunParams& p) {
  Rng rng(7);
  tensor::Tensor img = tensor::Tensor::image(1, 40, 40);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(8, 1, 5);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  kernels::SpecialConvConfig cfg;
  cfg.block_w = 16;
  cfg.block_h = 4;
  return kernels::special_conv(dev, img, flt, cfg, options(p));
}

/// Edge-heavy shape: a one-tile-tall strip, so every block touches the
/// top and bottom borders (no interior class at all) and the repeated
/// middle-edge flavor is what gets replayed.
kernels::KernelRun run_general_edges(const RunParams& p) {
  Rng rng(23);
  tensor::Tensor img = tensor::Tensor::image(4, 14, 98);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(16, 4, 3);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  kernels::GeneralConvConfig cfg;
  cfg.block_w = 8;
  cfg.block_h = 4;
  cfg.ftb = 16;
  cfg.wt = 4;
  cfg.ft = 4;
  cfg.csh = 1;
  return kernels::general_conv(dev, img, flt, cfg, options(p));
}

kernels::KernelRun run_gemm_conv(const RunParams& p) {
  Rng rng(13);
  tensor::Tensor img = tensor::Tensor::image(8, 20, 20);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(16, 8, 3);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  return kernels::implicit_gemm_conv(
      dev, img, flt, kernels::implicit_gemm_auto_config(16, 8, 3),
      options(p));
}

using Runner = kernels::KernelRun (*)(const RunParams&);

/// Replay on vs. off: byte-identical outputs, equal invariant counters,
/// and a non-trivial number of blocks actually served by replay — for the
/// serial and the chunked parallel launcher.
void check_replay_matches_direct(Runner run) {
  const auto direct = run({.replay = false, .num_threads = 1});
  ASSERT_TRUE(direct.output_valid);
  for (const u32 t : {1u, 4u}) {
    const auto replayed = run({.replay = true, .num_threads = t});
    ASSERT_TRUE(replayed.output_valid);
    expect_bytes_equal(direct.output.flat(), replayed.output.flat());
    EXPECT_TRUE(test::stats_match(direct.launch.stats, replayed.launch.stats,
                                  StatsLevel::Schedule));
    EXPECT_GT(replayed.launch.blocks_replayed, 0u);
    EXPECT_LT(replayed.launch.blocks_replayed,
              replayed.launch.blocks_executed);
  }
}

TEST(TraceReplay, GeneralConvMatchesDirect) {
  check_replay_matches_direct(&run_general);
}

TEST(TraceReplay, SpecialConvMatchesDirect) {
  check_replay_matches_direct(&run_special);
}

TEST(TraceReplay, GeneralConvEdgeHeavyShapeMatchesDirect) {
  check_replay_matches_direct(&run_general_edges);
}

TEST(TraceReplay, ImplicitGemmConvMatchesDirect) {
  check_replay_matches_direct(&run_gemm_conv);
}

TEST(TraceReplay, SerialTimingLaunchMatchesCacheCountersExactly) {
  // Replay walks the recorded transactions in the captured retire order
  // against the same serial L2 / constant cache, so even the warmth-
  // dependent counters are bit-identical to direct execution.
  const auto direct =
      run_general({.replay = false, .trace = sim::TraceLevel::Timing});
  const auto replayed =
      run_general({.replay = true, .trace = sim::TraceLevel::Timing});
  EXPECT_TRUE(test::stats_match(direct.launch.stats, replayed.launch.stats,
                                StatsLevel::Exact));
  expect_bytes_equal(direct.output.flat(), replayed.output.flat());
  EXPECT_GT(replayed.launch.blocks_replayed, 0u);
}

/// Writes each block's flat id to its output slot: blocks are NOT
/// congruent (different store addresses relative to no declared origin),
/// but are lane-event congruent, so only a *classifier* can be wrong here.
class PerBlockStoreKernel {
 public:
  sim::BufferView<float> data;
  /// Deliberately wrong: lumps every block into one class even though
  /// blocks disagree on their event streams (see operator()).
  u64 replay_class(sim::Dim3) const { return 0; }

  sim::ThreadProgram operator()(sim::ThreadCtx& t) const {
    // Block 0 issues one store, every other block two: the event streams
    // differ, so fast-forwarding block 1 against block 0's trace must
    // fail the congruence check.
    if (t.thread_idx.x == 0) {
      co_await t.st_global(data, t.block_idx.x, 1.0f);
      if (t.block_idx.x > 0) {
        co_await t.st_global(data, t.block_idx.x, 2.0f);
      }
    }
  }
};

TEST(TraceReplay, MisdeclaredClassifierFailsLoudly) {
  sim::Device dev(sim::kepler_k40m());
  auto arr = dev.alloc<float>(8);
  arr.zero();
  PerBlockStoreKernel k;
  k.data = arr.view();
  sim::LaunchConfig cfg;
  cfg.grid = {8, 1, 1};
  cfg.block = {32, 1, 1};
  sim::LaunchOptions opt;
  opt.replay = true;
  EXPECT_THROW(sim::launch(dev, k, cfg, opt), Error);
}

/// Three barrier segments of load-then-store per lane, every block lumped
/// into one class. Blocks other than 0 have lane 0 issue one extra global
/// load in segment `odd_seg` (1 = the middle, 2 = the last), so the
/// streamed replay meets the mismatch mid-block or at its very end; with
/// `skip` set that lane drops the segment's load instead.
class ExtraLoadKernel {
 public:
  sim::BufferView<float> data;
  int odd_seg = 1;
  bool skip = false;
  u64 replay_class(sim::Dim3) const { return 0; }

  sim::ThreadProgram operator()(sim::ThreadCtx& t) const {
    const i64 i = static_cast<i64>(t.block_idx.x) * t.block_dim.x +
                  t.thread_idx.x;
    for (int seg = 0; seg < 3; ++seg) {
      const bool odd =
          seg == odd_seg && t.block_idx.x > 0 && t.thread_idx.x == 0;
      float v = 0.0f;
      if (!(odd && skip)) v = co_await t.ld_global(data, i);
      if (odd && !skip) v += co_await t.ld_global(data, i);
      co_await t.st_global(data, i, v + 1.0f);
      if (seg < 2) co_await t.sync();
    }
  }
};

TEST(TraceReplay, StreamedWalkReportsMisdeclaredSegments) {
  for (const auto& [odd_seg, skip] :
       {std::pair{1, false}, std::pair{2, false}, std::pair{1, true}}) {
    for (const sim::TraceLevel trace :
         {sim::TraceLevel::Timing, sim::TraceLevel::Functional}) {
      for (const u32 threads : {1u, 3u}) {
        SCOPED_TRACE(testing::Message()
                     << "odd_seg=" << odd_seg << " skip=" << skip
                     << " timing=" << (trace == sim::TraceLevel::Timing)
                     << " threads=" << threads);
        sim::Device dev(sim::kepler_k40m());
        auto arr = dev.alloc<float>(9 * 32);
        arr.zero();
        ExtraLoadKernel k;
        k.data = arr.view();
        k.odd_seg = odd_seg;
        k.skip = skip;
        sim::LaunchConfig cfg;
        cfg.grid = {9, 1, 1};
        cfg.block = {32, 1, 1};
        sim::LaunchOptions opt;
        opt.replay = true;
        opt.trace = trace;
        opt.num_threads = threads;
        try {
          sim::launch(dev, k, cfg, opt);
          ADD_FAILURE() << "misdeclared replay_class was not detected";
        } catch (const Error& e) {
          EXPECT_NE(std::string(e.what()).find("replay congruence violation"),
                    std::string::npos)
              << e.what();
        }
      }
    }
  }
}

/// Same kernel shape, no replay_class hook: replay must never engage.
class NoHookKernel {
 public:
  sim::BufferView<float> data;
  sim::ThreadProgram operator()(sim::ThreadCtx& t) const {
    if (t.thread_idx.x == 0) {
      co_await t.st_global(data, t.block_idx.x, 1.0f);
    }
  }
};

TEST(TraceReplay, KernelWithoutHookNeverReplays) {
  sim::Device dev(sim::kepler_k40m());
  auto arr = dev.alloc<float>(8);
  arr.zero();
  NoHookKernel k;
  k.data = arr.view();
  sim::LaunchConfig cfg;
  cfg.grid = {8, 1, 1};
  cfg.block = {32, 1, 1};
  sim::LaunchOptions opt;
  opt.replay = true;
  const auto res = sim::launch(dev, k, cfg, opt);
  EXPECT_EQ(res.blocks_replayed, 0u);
  EXPECT_EQ(res.blocks_executed, 8u);
  for (float v : arr.download()) EXPECT_EQ(v, 1.0f);
}

}  // namespace
}  // namespace kconv
