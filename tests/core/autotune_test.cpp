#include "src/core/autotune.hpp"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/sim/plan_io.hpp"
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
  EXPECT_EQ(a.best.config, b.best.config);
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
  EXPECT_EQ(pruned.best.config, full.best.config);
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
  EXPECT_EQ(pruned.best.config, full.best.config);
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
  // A plain sweep's probes never touch the store: a store-less sweep ranks
  // the same configurations in the same order with bit-identical scores,
  // and each sweep into the store writes exactly one entry, its ranking.
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
  EXPECT_EQ(g0.ranking, g1.ranking);
  EXPECT_EQ(plans.stores(), 1u);

  SpecialSpace sspace;
  sspace.block_w = {32, 64, 128};
  sspace.block_h = {2, 4, 8};
  const auto s0 = autotune_special(dev, 3, 8, 128, sspace, 4);
  const auto s1 = autotune_special(dev, 3, 8, 128, sspace, 4, 0, &plans);
  EXPECT_FALSE(s1.from_plan_cache);
  EXPECT_EQ(s0.ranking, s1.ranking);
  EXPECT_EQ(plans.stores(), 2u);
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

// ---------------------------------------------------------------------------
// Sweep properties, run for both kernels through the one sweep. Each kernel
// supplies a mixed space (legal and illegal candidates), an all-illegal
// space, a one-candidate space, the literal ranking key of a space, and the
// per-config payload fields.

struct GeneralKernel {
  using Config = kernels::GeneralConvConfig;
  using Space = GeneralSpace;
  static Space mixed() {
    Space s;
    s.block_w = {16};
    s.block_h = {4};
    s.ftb = {8, 16};
    s.wt = {8, 16};
    s.ft = {4, 8};
    s.csh = {1, 2};
    return s;
  }
  static constexpr const char* kMixedDims =
      "w=16|h=4|ftb=8,16|wt=8,16|ft=4,8|csh=1,2";
  static constexpr i64 kMixedCount = 16;
  /// A member of mixed() the kernel rejects (staging work per thread).
  static Config illegal_member() {
    Config c;
    c.block_w = 16;
    c.block_h = 4;
    c.ftb = 8;
    c.wt = 16;
    c.ft = 8;
    c.csh = 2;
    return c;
  }
  /// F=16 is not a multiple of FTB=64: nothing launches.
  static Space illegal() {
    Space s = mixed();
    s.ftb = {64};
    return s;
  }
  static Space single() {
    Space s;
    s.block_w = {16};
    s.block_h = {4};
    s.ftb = {16};
    s.wt = {8};
    s.ft = {4};
    s.csh = {1};
    return s;
  }
  static constexpr const char* kSingleDims =
      "w=16|h=4|ftb=16|wt=8|ft=4|csh=1";
  static AutotuneResult<Config> tune(const Space& s,
                                     sim::PlanCache* plans = nullptr,
                                     bool prune = false,
                                     bool analytic = false) {
    sim::Device dev(sim::kepler_k40m());
    return autotune_general(dev, 3, 4, 16, 32, s, 2, 0, plans, analytic, prune);
  }
  static std::string key(const char* dims) {
    return "autotune_general|v2|" + sim::arch_fingerprint(sim::kepler_k40m()) +
           "|k=3|c=4|f=16|n=32|sample=2|analytic=0|" + dims;
  }
  /// Seven i64 tiling fields, then two u8 flags.
  static void put(sim::PlanWriter& w, const Config& c) {
    for (const i64 v : {c.block_w, c.block_h, c.ftb, c.wt, c.ft, c.csh,
                        c.vec_width}) {
      w.put_i64(v);
    }
    w.put_u8(c.pad_filters ? 1 : 0);
    w.put_u8(c.prefetch ? 1 : 0);
  }
  static Config get(sim::PlanReader& r) {
    Config c;
    for (i64* v : {&c.block_w, &c.block_h, &c.ftb, &c.wt, &c.ft, &c.csh,
                   &c.vec_width}) {
      *v = r.get_i64();
    }
    c.pad_filters = r.get_u8() != 0;
    c.prefetch = r.get_u8() != 0;
    return c;
  }
};

struct SpecialKernel {
  using Config = kernels::SpecialConvConfig;
  using Space = SpecialSpace;
  /// W=6 is not a multiple of 4: two of the six candidates are illegal.
  static Space mixed() {
    Space s;
    s.block_w = {6, 32, 64};
    s.block_h = {2, 4};
    return s;
  }
  static constexpr const char* kMixedDims = "w=6,32,64|h=2,4";
  static constexpr i64 kMixedCount = 6;
  static Config illegal_member() {
    Config c;
    c.block_w = 6;
    c.block_h = 2;
    return c;
  }
  static Space illegal() {
    Space s = mixed();
    s.block_w = {6};
    return s;
  }
  static Space single() {
    Space s;
    s.block_w = {32};
    s.block_h = {4};
    return s;
  }
  static constexpr const char* kSingleDims = "w=32|h=4";
  static AutotuneResult<Config> tune(const Space& s,
                                     sim::PlanCache* plans = nullptr,
                                     bool prune = false,
                                     bool analytic = false) {
    sim::Device dev(sim::kepler_k40m());
    return autotune_special(dev, 3, 8, 128, s, 4, 0, plans, analytic, prune);
  }
  static std::string key(const char* dims) {
    return "autotune_special|v2|" + sim::arch_fingerprint(sim::kepler_k40m()) +
           "|k=3|f=8|n=128|sample=4|analytic=0|" + dims;
  }
  /// Three i64 fields.
  static void put(sim::PlanWriter& w, const Config& c) {
    for (const i64 v : {c.block_w, c.block_h, c.vec_width}) w.put_i64(v);
  }
  static Config get(sim::PlanReader& r) {
    Config c;
    for (i64* v : {&c.block_w, &c.block_h, &c.vec_width}) *v = r.get_i64();
    return c;
  }
};

/// A stored ranking payload, decoded: three u64 counts (evaluated, skipped,
/// pruned), a u32 entry count, then per entry the config fields and the
/// f64 score.
template <typename Config>
struct StoredRanking {
  u64 evaluated = 0, skipped = 0, pruned = 0;
  std::vector<ScoredConfig<Config>> ranking;
};

template <typename Kernel>
StoredRanking<typename Kernel::Config> decode(const std::string& payload) {
  sim::PlanReader r(payload);
  StoredRanking<typename Kernel::Config> s;
  s.evaluated = r.get_u64();
  s.skipped = r.get_u64();
  s.pruned = r.get_u64();
  s.ranking.resize(r.get_u32());
  for (auto& e : s.ranking) {
    e.config = Kernel::get(r);
    e.gflops = r.get_f64();
  }
  EXPECT_TRUE(r.at_end());
  return s;
}

template <typename Kernel>
std::string encode(const StoredRanking<typename Kernel::Config>& s) {
  sim::PlanWriter w;
  w.put_u64(s.evaluated);
  w.put_u64(s.skipped);
  w.put_u64(s.pruned);
  w.put_u32(static_cast<u32>(s.ranking.size()));
  for (const auto& e : s.ranking) {
    Kernel::put(w, e.config);
    w.put_f64(e.gflops);
  }
  return w.take();
}

/// An empty plan-store directory named after the running test, so the
/// typed instances never share one when tests run in parallel.
std::string fresh_store() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string("kconv_") + info->test_suite_name() + "_" +
                     info->name();
  std::replace(name.begin(), name.end(), '/', '_');
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

template <typename Kernel>
class AutotuneSweep : public ::testing::Test {};

using Kernels = ::testing::Types<GeneralKernel, SpecialKernel>;
TYPED_TEST_SUITE(AutotuneSweep, Kernels);

TYPED_TEST(AutotuneSweep, RanksBestFirstAndAccountsForEveryCandidate) {
  const auto res = TypeParam::tune(TypeParam::mixed());
  EXPECT_GT(res.evaluated, 0);
  EXPECT_GT(res.skipped, 0);
  EXPECT_EQ(res.pruned, 0);
  EXPECT_EQ(res.evaluated + res.skipped, TypeParam::kMixedCount);
  EXPECT_EQ(static_cast<i64>(res.ranking.size()), res.evaluated);
  EXPECT_TRUE(std::is_sorted(
      res.ranking.begin(), res.ranking.end(),
      [](const auto& a, const auto& b) { return a.gflops > b.gflops; }));
  EXPECT_EQ(res.best, res.ranking.front());
  EXPECT_GT(res.best.gflops, 0.0);
  EXPECT_FALSE(res.from_plan_cache);
}

TYPED_TEST(AutotuneSweep, AllIllegalSpaceThrows) {
  try {
    TypeParam::tune(TypeParam::illegal());
    ADD_FAILURE() << "an all-illegal space must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no legal configuration"),
              std::string::npos)
        << e.what();
  }
}

TYPED_TEST(AutotuneSweep, PrunedRankingPersistsWithItsOwnKey) {
  sim::PlanCache plans(fresh_store());
  const auto cold = TypeParam::tune(TypeParam::mixed(), &plans, true);
  const auto warm = TypeParam::tune(TypeParam::mixed(), &plans, true);
  EXPECT_FALSE(cold.from_plan_cache);
  EXPECT_TRUE(warm.from_plan_cache);
  EXPECT_EQ(warm.ranking, cold.ranking);
  EXPECT_EQ(warm.pruned, cold.pruned);
  EXPECT_GT(warm.pruned, 0);
  // Only the sweep that ran the pre-pass reports its cost.
  EXPECT_GT(cold.prepass_seconds, 0.0);
  EXPECT_EQ(warm.prepass_seconds, 0.0);

  std::string payload;
  ASSERT_TRUE(plans.load(
      TypeParam::key(TypeParam::kMixedDims) + std::string("|prune=1"),
      payload));
  EXPECT_EQ(decode<TypeParam>(payload).pruned, static_cast<u64>(cold.pruned));

  // Neither ranking serves the other's request.
  const auto unpruned = TypeParam::tune(TypeParam::mixed(), &plans);
  EXPECT_FALSE(unpruned.from_plan_cache);
  EXPECT_EQ(unpruned.pruned, 0);
  EXPECT_EQ(unpruned.prepass_seconds, 0.0);
  const auto pruned_again = TypeParam::tune(TypeParam::mixed(), &plans, true);
  EXPECT_TRUE(pruned_again.from_plan_cache);
}

/// Plan blobs in a store directory (rankings, plans and tape sidecars).
std::size_t kplan_files(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    n += e.path().extension() == ".kplan" ? 1 : 0;
  }
  return n;
}

TYPED_TEST(AutotuneSweep, ProbePlansAreStoredOnlyForAnalyticSweeps) {
  // A plain probe stores no plan, so a plain cold sweep into an empty
  // store writes one entry: its ranking.
  const std::string plain_dir = fresh_store();
  sim::PlanCache plain(plain_dir);
  const auto cold = TypeParam::tune(TypeParam::mixed(), &plain);
  EXPECT_FALSE(cold.from_plan_cache);
  EXPECT_EQ(plain.stores(), 1u);
  EXPECT_EQ(kplan_files(plain_dir), 1u);
  EXPECT_EQ(cold.ranking, TypeParam::tune(TypeParam::mixed()).ranking);

  // Analytic probes keep their per-candidate plans next to the ranking,
  // and the warm rerun serves the ranking.
  const std::string analytic_dir = plain_dir + "_analytic";
  std::filesystem::remove_all(analytic_dir);
  sim::PlanCache analytic(analytic_dir);
  const auto acold =
      TypeParam::tune(TypeParam::mixed(), &analytic, false, true);
  EXPECT_FALSE(acold.from_plan_cache);
  EXPECT_GT(analytic.stores(), 1u);
  EXPECT_GT(kplan_files(analytic_dir), 1u);
  EXPECT_EQ(acold.ranking,
            TypeParam::tune(TypeParam::mixed(), nullptr, false, true).ranking);
  const auto awarm =
      TypeParam::tune(TypeParam::mixed(), &analytic, false, true);
  EXPECT_TRUE(awarm.from_plan_cache);
  EXPECT_EQ(awarm.ranking, acold.ranking);
  std::filesystem::remove_all(plain_dir);
  std::filesystem::remove_all(analytic_dir);
}

TYPED_TEST(AutotuneSweep, StoredPayloadLayout) {
  sim::PlanCache plans(fresh_store());
  const auto res = TypeParam::tune(TypeParam::single(), &plans);
  ASSERT_EQ(res.ranking.size(), 1u);
  std::string payload;
  ASSERT_TRUE(plans.load(TypeParam::key(TypeParam::kSingleDims), payload));

  sim::PlanReader r(payload);
  EXPECT_EQ(r.get_u64(), 1u);  // evaluated
  EXPECT_EQ(r.get_u64(), 0u);  // skipped
  EXPECT_EQ(r.get_u64(), 0u);  // pruned
  EXPECT_EQ(r.get_u32(), 1u);  // entries
  EXPECT_EQ(TypeParam::get(r), res.best.config);
  EXPECT_EQ(r.get_f64(), res.best.gflops);
  EXPECT_TRUE(r.at_end());
}

TYPED_TEST(AutotuneSweep, ForgedRankingIsResweptAndRewritten) {
  // Each forgery has a valid envelope (PlanCache::store), so only the
  // payload checks can reject it; a rejected entry runs the cold sweep,
  // which overwrites it.
  using Stored = StoredRanking<typename TypeParam::Config>;
  sim::PlanCache plans(fresh_store());
  const std::string key = TypeParam::key(TypeParam::kMixedDims);
  const auto cold = TypeParam::tune(TypeParam::mixed(), &plans);
  std::string genuine;
  ASSERT_TRUE(plans.load(key, genuine));
  const Stored good = decode<TypeParam>(genuine);
  ASSERT_EQ(encode<TypeParam>(good), genuine);
  ASSERT_GE(good.ranking.size(), 2u);
  ASSERT_GT(good.ranking.front().gflops, good.ranking.back().gflops);
  ASSERT_GT(good.skipped, 0u);

  std::vector<std::pair<const char*, Stored>> forged;
  const auto forge = [&](const char* what, const auto& edit) {
    Stored s = good;
    edit(s);
    forged.emplace_back(what, s);
  };
  forge("out-of-space tile",
        [](Stored& s) { s.ranking.front().config.block_w = 0; });
  forge("out-of-space vector width",
        [](Stored& s) { s.ranking.front().config.vec_width = 1; });
  forge("illegal member", [](Stored& s) {
    s.ranking.back().config = TypeParam::illegal_member();
  });
  forge("duplicate entry", [](Stored& s) {
    s.ranking.back().config = s.ranking.front().config;
  });
  forge("NaN score", [](Stored& s) {
    s.ranking.front().gflops = std::numeric_limits<double>::quiet_NaN();
  });
  forge("infinite score", [](Stored& s) {
    s.ranking.front().gflops = std::numeric_limits<double>::infinity();
  });
  forge("unsorted scores", [](Stored& s) {
    std::swap(s.ranking.front().gflops, s.ranking.back().gflops);
  });
  forge("counts off by one", [](Stored& s) { ++s.skipped; });
  forge("evaluated != entries", [](Stored& s) {
    --s.skipped;
    ++s.evaluated;
  });
  forge("pruned count on an unpruned key", [](Stored& s) {
    --s.skipped;
    ++s.pruned;
  });

  for (const auto& [what, s] : forged) {
    SCOPED_TRACE(what);
    plans.store(key, encode<TypeParam>(s));
    const auto res = TypeParam::tune(TypeParam::mixed(), &plans);
    EXPECT_FALSE(res.from_plan_cache);
    EXPECT_EQ(res.ranking, cold.ranking);
    std::string rewritten;
    ASSERT_TRUE(plans.load(key, rewritten));
    EXPECT_EQ(rewritten, genuine);
  }
  EXPECT_TRUE(TypeParam::tune(TypeParam::mixed(), &plans).from_plan_cache);
}

}  // namespace
}  // namespace kconv::core
