// The kconv-prof metrics registry invariant (docs/MODEL.md §7): summing a
// per-phase counter over the seven phases equals the matching launch-total
// KernelStats field, exactly, in every launch mode — and the per-phase
// roll-up itself is identical across serial, parallel (any thread count),
// and replay-requesting launches (which execute every block when
// profiled).
#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "src/kernels/general_conv.hpp"
#include "src/kernels/special_conv.hpp"
#include "src/tensor/tensor.hpp"
#include "tests/support/stats_match.hpp"

namespace kconv::profile {
namespace {

struct ModeCase {
  const char* name;
  u32 threads;
  bool replay;
};

constexpr ModeCase kModes[] = {
    {"serial", 1, false},
    {"parallel", 3, false},
    {"replay", 1, true},
};

kernels::KernelRun run_special(const ModeCase& m, u64 timeline_blocks = 8) {
  Rng rng(7);
  tensor::Tensor img = tensor::Tensor::image(1, 20, 300);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(8, 1, 3);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  sim::LaunchOptions opt;
  opt.num_threads = m.threads;
  opt.replay = m.replay;
  opt.profile = true;
  opt.profile_timeline_blocks = timeline_blocks;
  return kernels::special_conv(dev, img, flt, {}, opt);
}

kernels::KernelRun run_general(const ModeCase& m) {
  Rng rng(11);
  tensor::Tensor img = tensor::Tensor::image(4, 12, 66);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(64, 4, 3);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  sim::LaunchOptions opt;
  opt.num_threads = m.threads;
  opt.replay = m.replay;
  opt.profile = true;
  return kernels::general_conv(dev, img, flt, {}, opt);
}

TEST(PhaseSum, SpecialConvPhaseDeltasSumToLaunchTotals) {
  for (const ModeCase& m : kModes) {
    SCOPED_TRACE(m.name);
    const auto run = run_special(m);
    ASSERT_TRUE(run.launch.profile.enabled);
    EXPECT_TRUE(test::sums_match(run.launch.profile.phases.total(),
                                 run.launch.stats));
    // The annotated kernel leaves nothing in the default bucket: every
    // access and op lands in a named phase.
    EXPECT_TRUE(run.launch.profile.phases.at(Phase::Other).empty());
    // And the phases the paper reasons about are populated.
    EXPECT_GT(run.launch.profile.phases.at(Phase::GmLoad).gm_instrs, 0u);
    EXPECT_GT(run.launch.profile.phases.at(Phase::SmemStage).smem_store_instrs,
              0u);
    EXPECT_GT(run.launch.profile.phases.at(Phase::Compute).fma_lane_ops, 0u);
    EXPECT_GT(run.launch.profile.phases.at(Phase::Writeback).gm_instrs, 0u);
    EXPECT_GT(run.launch.profile.phases.at(Phase::Sync).barriers, 0u);
    EXPECT_EQ(run.launch.profile.phases.at(Phase::Sync).barriers,
              run.launch.stats.barriers);
  }
}

TEST(PhaseSum, GeneralConvPhaseDeltasSumToLaunchTotals) {
  for (const ModeCase& m : kModes) {
    SCOPED_TRACE(m.name);
    const auto run = run_general(m);
    ASSERT_TRUE(run.launch.profile.enabled);
    EXPECT_TRUE(test::sums_match(run.launch.profile.phases.total(),
                                 run.launch.stats));
    EXPECT_TRUE(run.launch.profile.phases.at(Phase::Other).empty());
    // The general kernel prefetches (double buffering on by default), so
    // the prefetch phase carries real GM traffic.
    EXPECT_GT(run.launch.profile.phases.at(Phase::Prefetch).gm_instrs, 0u);
    // Compute reads shared memory but never stages into it.
    EXPECT_GT(run.launch.profile.phases.at(Phase::Compute).smem_instrs, 0u);
    EXPECT_EQ(run.launch.profile.phases.at(Phase::Compute).smem_store_instrs,
              0u);
  }
}

TEST(PhaseSum, PhaseRollupIdenticalAcrossLaunchModes) {
  const auto serial = run_special(kModes[0]);
  for (size_t i = 1; i < std::size(kModes); ++i) {
    SCOPED_TRACE(kModes[i].name);
    const auto other = run_special(kModes[i]);
    for (u32 p = 0; p < kNumPhases; ++p) {
      SCOPED_TRACE(phase_name(static_cast<Phase>(p)));
      EXPECT_TRUE(test::stats_match(serial.launch.profile.phases.p[p],
                                    other.launch.profile.phases.p[p],
                                    StatsLevel::Schedule));
    }
  }
}

TEST(PhaseSum, PhaseRollupThreadCountInvariant) {
  const auto one = run_special({"t1", 1, false});
  for (u32 threads : {2u, 5u}) {
    SCOPED_TRACE(threads);
    const auto many = run_special({"tN", threads, false});
    for (u32 p = 0; p < kNumPhases; ++p) {
      EXPECT_TRUE(test::stats_match(one.launch.profile.phases.p[p],
                                    many.launch.profile.phases.p[p],
                                    StatsLevel::Schedule));
    }
    // Timeline selection is by GLOBAL launch index, so the recorded set
    // doesn't depend on how blocks were sharded across host threads.
    ASSERT_EQ(many.launch.profile.timelines.size(),
              one.launch.profile.timelines.size());
    for (size_t i = 0; i < one.launch.profile.timelines.size(); ++i) {
      EXPECT_EQ(many.launch.profile.timelines[i].seq,
                one.launch.profile.timelines[i].seq);
    }
  }
}

TEST(PhaseSum, TimelinesCappedAndOrdered) {
  const auto run = run_special(kModes[0], /*timeline_blocks=*/3);
  const auto& tls = run.launch.profile.timelines;
  ASSERT_EQ(tls.size(), 3u);  // launch has 6 blocks, the cap wins
  for (size_t i = 0; i < tls.size(); ++i) {
    EXPECT_EQ(tls[i].seq, i);
    EXPECT_FALSE(tls[i].slices.empty());
  }
}

TEST(PhaseSum, TimelineSlicesSumToLaunchTotalsWhenAllBlocksRecorded) {
  // Record every block (6 < 100): the concatenation of all timeline
  // slices is then a partition of the launch, so slice-level counters sum
  // back to the same totals the phase roll-up does.
  const auto run = run_special(kModes[0], /*timeline_blocks=*/100);
  ASSERT_EQ(run.launch.profile.timelines.size(),
            run.launch.stats.blocks_executed);
  PhaseStats sum;
  for (const auto& tl : run.launch.profile.timelines)
    for (const PhaseSlice& sl : tl.slices) sum += sl.stats;
  EXPECT_TRUE(test::sums_match(sum, run.launch.stats));
}

TEST(PhaseSum, ProfiledReplayLaunchRecordsTheSerialTimelines) {
  // A profiled launch executes every block, so asking for replay changes
  // nothing it records: the same blocks carry the same slices.
  const auto serial = run_special(kModes[0]);
  const auto replay = run_special(kModes[2]);  // replay requested
  EXPECT_EQ(replay.launch.blocks_replayed, 0u);
  ASSERT_FALSE(serial.launch.profile.timelines.empty());
  EXPECT_TRUE(test::timelines_match(serial.launch.profile.timelines,
                                    replay.launch.profile.timelines,
                                    StatsLevel::Exact));
}

}  // namespace
}  // namespace kconv::profile
