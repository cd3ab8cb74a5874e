// Counter tables (docs/MODEL.md §1): each KernelStats field is declared
// once with its replay class, and merging, plan I/O, the replay split and
// the identity predicate derive from that declaration. These tests pin
// every derived rule field by field.
#include <array>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/plan_io.hpp"
#include "src/sim/stats.hpp"

namespace kconv {
namespace {

using enum CounterClass;

/// MODEL.md §1's classes, restated apart from the tables: every counter
/// not listed here is Invariant.
const std::map<std::string, CounterClass> kNonInvariant = {
    {"fma_lane_ops", Compute},       {"fma_warp_instrs", Compute},
    {"alu_lane_ops", Compute},       {"alu_warp_instrs", Compute},
    {"max_warp_instrs", Compute},    {"gm_sectors", AddrDep},
    {"gm_sectors_dram", Warmth},     {"const_line_misses", Warmth},
    {"pattern_lookups", Instrument}, {"pattern_hits", Instrument},
    {"blocks_executed", Blocks},
};

constexpr StatsLevel kLevels[] = {StatsLevel::Exact, StatsLevel::Schedule,
                                  StatsLevel::Analytic};

/// Whether each class is compared at each of kLevels.
const std::map<CounterClass, std::array<bool, 3>> kComparedAt = {
    {Compute, {true, true, true}},  {Invariant, {true, true, true}},
    {Blocks, {true, true, true}},   {AddrDep, {true, true, false}},
    {Warmth, {true, false, false}}, {Instrument, {false, false, false}},
};

template <typename S, std::size_t N>
void check_table(const CounterTable<S, N>& table) {
  const S zero;
  S ones, hundreds;
  for (std::size_t i = 0; i < N; ++i) {
    ones.*table[i].member = i + 1;
    hundreds.*table[i].member = 100 * (i + 1);
  }
  S sum = ones;
  sum += hundreds;
  S reversed = hundreds;
  reversed += ones;
  S inv, cmp, addr;
  split_by_class(table, ones, inv, cmp, addr);

  for (std::size_t i = 0; i < N; ++i) {
    const Counter<S>& c = table[i];
    SCOPED_TRACE(c.name);
    const u64 v = i + 1;
    const auto it = kNonInvariant.find(c.name);
    EXPECT_EQ(c.cls, it == kNonInvariant.end() ? Invariant : it->second);
    const bool is_max = std::string(c.name) == "max_warp_instrs";
    EXPECT_EQ(c.max, is_max);
    // Table order is declaration order, which plan I/O relies on.
    EXPECT_EQ(reinterpret_cast<const char*>(&(zero.*c.member)) -
                  reinterpret_cast<const char*>(&zero),
              static_cast<std::ptrdiff_t>(i * sizeof(u64)));
    // += sums every field, except max_warp_instrs, from either side.
    EXPECT_EQ(sum.*c.member, is_max ? 100 * v : 101 * v);
    EXPECT_EQ(reversed.*c.member, sum.*c.member);
    // The replay split routes each counter to its class's slice only.
    EXPECT_EQ(inv.*c.member, c.cls == Invariant ? v : 0u);
    EXPECT_EQ(cmp.*c.member, c.cls == Compute ? v : 0u);
    EXPECT_EQ(addr.*c.member, c.cls == AddrDep || c.cls == Warmth ? v : 0u);
    // The predicate reports a lone bump at exactly its class's levels.
    S bumped;
    bumped.*c.member = 1;
    for (std::size_t l = 0; l < std::size(kLevels); ++l) {
      SCOPED_TRACE(l);
      const std::vector<std::string> mismatches =
          stats_mismatches(zero, bumped, kLevels[l]);
      if (kComparedAt.at(c.cls)[l]) {
        EXPECT_EQ(mismatches,
                  std::vector<std::string>{std::string(c.name) + ": a=0 b=1"});
      } else {
        EXPECT_TRUE(mismatches.empty());
      }
    }
  }
}

TEST(StatsTable, KernelStatsRulesFollowTheTable) {
  check_table(sim::kKernelCounters);
}

TEST(StatsTable, PredicateUsesCallerLabels) {
  sim::KernelStats a, b;
  b.gm_instrs = 7;
  EXPECT_EQ(sim::stats_mismatches(a, b, StatsLevel::Exact, "static", "dynamic"),
            std::vector<std::string>{"gm_instrs: static=0 dynamic=7"});
}

TEST(StatsTable, PlanBytesAreLittleEndianFieldsInOrder) {
  sim::KernelStats s;
  std::string expected;
  for (std::size_t i = 0; i < sim::kKernelCounters.size(); ++i) {
    s.*sim::kKernelCounters[i].member = i + 1;
    for (u32 byte = 0; byte < 8; ++byte) {
      expected += static_cast<char>(((i + 1) >> (8 * byte)) & 0xff);
    }
  }
  ASSERT_EQ(expected.size(), 25u * 8u);
  sim::PlanWriter w;
  sim::save_stats(w, s);
  EXPECT_EQ(w.buf(), expected);

  sim::PlanReader r(w.buf());
  sim::KernelStats back;
  sim::load_stats(r, back);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(std::memcmp(&back, &s, sizeof s), 0);
}

}  // namespace
}  // namespace kconv
