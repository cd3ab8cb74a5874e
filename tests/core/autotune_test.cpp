#include "src/core/autotune.hpp"

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "src/sim/sim.hpp"

namespace kconv::core {
namespace {

TEST(AutotuneGeneral, FindsLegalBestAndSortsRanking) {
  sim::Device dev(sim::kepler_k40m());
  GeneralSpace space;
  space.block_w = {16};
  space.block_h = {4};
  space.ftb = {8, 16};
  space.wt = {8, 16};
  space.ft = {4, 8};
  space.csh = {1, 2};
  const auto res = autotune_general(dev, 3, /*c=*/4, /*f=*/16, /*n=*/32,
                                    space, /*sample=*/2);
  EXPECT_GT(res.evaluated, 0);
  EXPECT_EQ(res.evaluated + res.skipped, 16);
  EXPECT_GT(res.best.gflops, 0.0);
  for (std::size_t i = 1; i < res.ranking.size(); ++i) {
    EXPECT_GE(res.ranking[i - 1].gflops, res.ranking[i].gflops);
  }
  // The best config must actually be runnable.
  EXPECT_EQ(res.best.gflops, res.ranking.front().gflops);
}

TEST(AutotuneGeneral, SkipsIllegalCombinations) {
  sim::Device dev(sim::kepler_k40m());
  GeneralSpace space;
  space.block_w = {16};
  space.block_h = {4};
  space.ftb = {64};  // F=16 % 64 != 0 -> all skipped
  space.wt = {8};
  space.ft = {4};
  space.csh = {1};
  EXPECT_THROW(autotune_general(dev, 3, 4, 16, 32, space, 2), Error);
}

TEST(AutotuneGeneral, DeterministicAcrossRuns) {
  sim::Device dev(sim::kepler_k40m());
  GeneralSpace space;
  space.block_w = {16};
  space.block_h = {4};
  space.ftb = {8, 16};
  space.wt = {8};
  space.ft = {4};
  space.csh = {1, 2};
  const auto a = autotune_general(dev, 3, 4, 16, 32, space, 2);
  const auto b = autotune_general(dev, 3, 4, 16, 32, space, 2);
  EXPECT_EQ(a.best.config.ftb, b.best.config.ftb);
  EXPECT_DOUBLE_EQ(a.best.gflops, b.best.gflops);
}

TEST(AutotuneGeneral, StaticPruneKeepsTheWinnerAndHalvesTheSweep) {
  sim::Device dev(sim::kepler_k40m());
  GeneralSpace space;
  space.block_w = {16};
  space.block_h = {4};
  space.ftb = {8, 16};
  space.wt = {8, 16};
  space.ft = {4, 8};
  space.csh = {1, 2};
  const auto full = autotune_general(dev, 3, 4, 16, 32, space, 2);
  const auto pruned = autotune_general(dev, 3, 4, 16, 32, space, 2,
                                       /*num_threads=*/0, /*plans=*/nullptr,
                                       /*analytic=*/false,
                                       /*static_prune=*/true);

  // The xray pre-pass feeds the same counters the simulator's timing model
  // consumes, so the winner survives pruning — and at most half the legal
  // candidates are ever simulated.
  EXPECT_EQ(pruned.best.config.block_w, full.best.config.block_w);
  EXPECT_EQ(pruned.best.config.block_h, full.best.config.block_h);
  EXPECT_EQ(pruned.best.config.ftb, full.best.config.ftb);
  EXPECT_EQ(pruned.best.config.wt, full.best.config.wt);
  EXPECT_EQ(pruned.best.config.ft, full.best.config.ft);
  EXPECT_EQ(pruned.best.config.csh, full.best.config.csh);
  EXPECT_DOUBLE_EQ(pruned.best.gflops, full.best.gflops);

  EXPECT_GT(pruned.pruned, 0);
  EXPECT_LE(pruned.evaluated, (full.evaluated + 1) / 2);
  EXPECT_EQ(pruned.evaluated + pruned.pruned, full.evaluated);
  EXPECT_EQ(pruned.skipped, full.skipped);
  EXPECT_EQ(pruned.evaluated + pruned.skipped + pruned.pruned, 16);
}

TEST(AutotuneSpecial, StaticPruneKeepsTheWinner) {
  sim::Device dev(sim::kepler_k40m());
  SpecialSpace space;
  space.block_w = {32, 64, 128};
  space.block_h = {2, 4, 8};
  const auto full = autotune_special(dev, 3, 8, 128, space, 4);
  const auto pruned = autotune_special(dev, 3, 8, 128, space, 4,
                                       /*num_threads=*/0, /*plans=*/nullptr,
                                       /*analytic=*/false,
                                       /*static_prune=*/true);
  EXPECT_EQ(pruned.best.config.block_w, full.best.config.block_w);
  EXPECT_EQ(pruned.best.config.block_h, full.best.config.block_h);
  EXPECT_DOUBLE_EQ(pruned.best.gflops, full.best.gflops);
  EXPECT_EQ(pruned.evaluated + pruned.pruned, full.evaluated);
  EXPECT_LE(pruned.evaluated, (full.evaluated + 1) / 2);
}

TEST(AutotuneGeneral, PrunedRankingPersistsWithItsOwnKey) {
  // A pruned sweep's stored ranking (fewer entries, non-zero pruned count)
  // round-trips and never serves an unpruned request, or vice versa.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "kconv_tune_prune").string();
  std::filesystem::remove_all(dir);
  sim::PlanCache plans(dir);
  sim::Device dev(sim::kepler_k40m());
  GeneralSpace space;
  space.block_w = {16};
  space.block_h = {4};
  space.ftb = {8, 16};
  space.wt = {8};
  space.ft = {4};
  space.csh = {1, 2};
  const auto cold = autotune_general(dev, 3, 4, 16, 32, space, 2, 0, &plans,
                                     false, /*static_prune=*/true);
  EXPECT_FALSE(cold.from_plan_cache);
  const auto warm = autotune_general(dev, 3, 4, 16, 32, space, 2, 0, &plans,
                                     false, /*static_prune=*/true);
  EXPECT_TRUE(warm.from_plan_cache);
  EXPECT_EQ(warm.pruned, cold.pruned);
  EXPECT_EQ(warm.evaluated, cold.evaluated);
  ASSERT_EQ(warm.ranking.size(), cold.ranking.size());
  EXPECT_DOUBLE_EQ(warm.best.gflops, cold.best.gflops);

  const auto unpruned = autotune_general(dev, 3, 4, 16, 32, space, 2, 0,
                                         &plans, false);
  EXPECT_FALSE(unpruned.from_plan_cache);
  EXPECT_EQ(unpruned.pruned, 0);
}

TEST(Autotune, NoStoreRankingEqualsAColdSweepIntoAStore) {
  // Probes replay block classes only into a plan store. Replay keeps the
  // counters exact, so a store-less sweep ranks the same configurations in
  // the same order with bit-identical scores.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "kconv_tune_nostore").string();
  std::filesystem::remove_all(dir);
  sim::PlanCache plans(dir);
  sim::Device dev(sim::kepler_k40m());
  GeneralSpace gspace;
  gspace.block_w = {16};
  gspace.block_h = {4};
  gspace.ftb = {8, 16};
  gspace.wt = {8, 16};
  gspace.ft = {4, 8};
  gspace.csh = {1, 2};
  const auto g0 = autotune_general(dev, 3, 4, 16, 32, gspace, 2);
  const auto g1 = autotune_general(dev, 3, 4, 16, 32, gspace, 2, 0, &plans);
  EXPECT_FALSE(g1.from_plan_cache);
  ASSERT_EQ(g0.ranking.size(), g1.ranking.size());
  for (std::size_t i = 0; i < g0.ranking.size(); ++i) {
    const auto& a = g0.ranking[i].config;
    const auto& b = g1.ranking[i].config;
    EXPECT_EQ(a.block_w, b.block_w) << i;
    EXPECT_EQ(a.block_h, b.block_h) << i;
    EXPECT_EQ(a.ftb, b.ftb) << i;
    EXPECT_EQ(a.wt, b.wt) << i;
    EXPECT_EQ(a.ft, b.ft) << i;
    EXPECT_EQ(a.csh, b.csh) << i;
    EXPECT_EQ(a.vec_width, b.vec_width) << i;
    EXPECT_EQ(g0.ranking[i].gflops, g1.ranking[i].gflops) << i;
  }

  SpecialSpace sspace;
  sspace.block_w = {32, 64, 128};
  sspace.block_h = {2, 4, 8};
  const auto s0 = autotune_special(dev, 3, 8, 128, sspace, 4);
  const auto s1 = autotune_special(dev, 3, 8, 128, sspace, 4, 0, &plans);
  EXPECT_FALSE(s1.from_plan_cache);
  ASSERT_EQ(s0.ranking.size(), s1.ranking.size());
  for (std::size_t i = 0; i < s0.ranking.size(); ++i) {
    EXPECT_EQ(s0.ranking[i].config.block_w, s1.ranking[i].config.block_w);
    EXPECT_EQ(s0.ranking[i].config.block_h, s1.ranking[i].config.block_h);
    EXPECT_EQ(s0.ranking[i].config.vec_width,
              s1.ranking[i].config.vec_width);
    EXPECT_EQ(s0.ranking[i].gflops, s1.ranking[i].gflops) << i;
  }
  std::filesystem::remove_all(dir);
}

TEST(AutotuneSpecial, SweepsTileSizes) {
  sim::Device dev(sim::kepler_k40m());
  SpecialSpace space;
  space.block_w = {32, 64};
  space.block_h = {4, 8};
  const auto res = autotune_special(dev, 3, /*f=*/8, /*n=*/128, space, 2);
  EXPECT_EQ(res.evaluated, 4);
  EXPECT_EQ(res.skipped, 0);
  EXPECT_GT(res.best.gflops, 0.0);
  for (std::size_t i = 1; i < res.ranking.size(); ++i) {
    EXPECT_GE(res.ranking[i - 1].gflops, res.ranking[i].gflops);
  }
}

TEST(AutotuneSpecial, BiggerTilesWinOnBigImages) {
  // The paper's DSE found W=256, H=8 best: on a large image, the larger
  // tile should beat a tiny one in the model too (less halo, fewer blocks).
  sim::Device dev(sim::kepler_k40m());
  SpecialSpace space;
  space.block_w = {32, 256};
  space.block_h = {8};
  const auto res = autotune_special(dev, 5, 16, 512, space, 4);
  EXPECT_EQ(res.best.config.block_w, 256);
}

}  // namespace
}  // namespace kconv::core
