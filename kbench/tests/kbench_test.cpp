// Tests of the benchmark's own arithmetic: percentiles, span self time,
// failure tallies and seeded generation.
#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "kbench/src/gen.hpp"
#include "kbench/src/spans.hpp"
#include "kbench/src/stats.hpp"
#include "src/common/error.hpp"
#include "src/common/rng.hpp"

namespace kbench {
namespace {

// Oracle: sort, then take the element at 1-based rank ceil(q * n).
double oracle(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

TEST(Percentile, MatchesSortedOracle) {
  kconv::Rng rng(42);
  for (std::size_t n : {1u, 2u, 3u, 7u, 10u, 99u, 100u, 101u, 1000u}) {
    std::vector<double> v(n);
    for (double& x : v) x = rng.next_double();
    for (int q : {1, 10, 25, 50, 75, 90, 95, 99, 100}) {
      EXPECT_EQ(percentile(v, q / 100.0), oracle(v, q / 100.0))
          << "n=" << n << " q=" << q;
    }
  }
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW(percentile({}, 0.5), kconv::Error);
  EXPECT_THROW(percentile({1.0}, 0.0), kconv::Error);
  EXPECT_THROW(percentile({1.0}, 1.5), kconv::Error);
}

Span span(const char* name, kconv::i64 b, kconv::i64 e, kconv::i32 parent) {
  return Span{name, b, e, parent, 0};
}

TEST(SelfTime, SubtractsNestedChildren) {
  // root [0, 100) holds a [10, 30) with grandchild [15, 20), and b [50, 60).
  const std::vector<Span> s = {span("root", 0, 100, -1),
                               span("a", 10, 30, 0), span("g", 15, 20, 1),
                               span("b", 50, 60, 0)};
  const std::vector<kconv::i64> self = self_times(s);
  EXPECT_EQ(self[0], 100 - 20 - 10);
  EXPECT_EQ(self[1], 20 - 5);
  EXPECT_EQ(self[2], 5);
  EXPECT_EQ(self[3], 10);
}

TEST(SelfTime, OverlappingAndOverhangingChildrenCountOnce) {
  // Children overlap each other and one overhangs the parent's end.
  const std::vector<Span> s = {span("p", 0, 100, -1), span("c1", 10, 40, 0),
                               span("c2", 30, 50, 0), span("c3", 90, 120, 0)};
  const std::vector<kconv::i64> self = self_times(s);
  EXPECT_EQ(self[0], 100 - 40 - 10);  // [10, 50) and [90, 100) covered
}

TEST(SelfTime, TotalsByName) {
  const std::vector<Span> s = {span("loop", 0, 1'000'000, -1),
                               span("op", 0, 400'000, 0),
                               span("op", 500'000, 700'000, 0)};
  const std::vector<SpanTotal> t = totals_by_name(s);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[1].name, "op");
  EXPECT_EQ(t[1].count, 2u);
  EXPECT_DOUBLE_EQ(t[1].total_ms, 0.6);
  EXPECT_DOUBLE_EQ(t[0].self_ms, 0.4);
}

TEST(Tracer, RecordsParentsAndSkipsWhenDisabled) {
  Tracer on(true);
  {
    ScopedSpan outer(on, "outer", 1);
    ScopedSpan inner(on, "inner", 2);
  }
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_EQ(on.spans()[0].parent, -1);
  EXPECT_EQ(on.spans()[1].parent, 0);
  EXPECT_EQ(on.spans()[1].op, 2u);
  EXPECT_LE(on.spans()[0].start_ns, on.spans()[1].start_ns);
  EXPECT_GE(on.spans()[0].end_ns, on.spans()[1].end_ns);

  Tracer off(false);
  { ScopedSpan s(off, "x", 0); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(Tally, CountsErrorRate) {
  Tally t;
  EXPECT_EQ(t.error_rate(), 0.0);
  for (int i = 0; i < 8; ++i) t.record(true);
  t.record(false);
  t.record(false);
  EXPECT_EQ(t.attempted, 10u);
  EXPECT_EQ(t.failed, 2u);
  EXPECT_DOUBLE_EQ(t.error_rate(), 0.2);
}

TEST(Gen, SameSeedSameOpList) {
  for (kconv::u64 seed : {1ull, 2ull, 977ull}) {
    EXPECT_EQ(conv_layer_shapes(seed), conv_layer_shapes(seed));
    EXPECT_EQ(fleet_ops(seed), fleet_ops(seed));
    EXPECT_EQ(tune_sweeps(seed), tune_sweeps(seed));
    EXPECT_EQ(serve_schedule(seed, 16, 3, 2), serve_schedule(seed, 16, 3, 2));
  }
  EXPECT_NE(conv_layer_shapes(1), conv_layer_shapes(2));
  EXPECT_NE(serve_schedule(1, 16, 3, 2), serve_schedule(2, 16, 3, 2));
}

TEST(Gen, StratifiedDraws) {
  const auto shapes = conv_layer_shapes(5);
  EXPECT_EQ(shapes.size(), 12u);
  for (const ConvShape& s : shapes) EXPECT_TRUE(s.c == 1 || s.c >= 16);
  EXPECT_EQ(fleet_ops(5).size(), 12u);
  EXPECT_EQ(tune_sweeps(5).size(), 8u);

  // Every round holds two or three requests of each network.
  const auto sched = serve_schedule(9, 32, 3, 2);
  ASSERT_EQ(sched.size(), 32u * kRoundSize);
  for (std::size_t r = 0; r < 32; ++r) {
    int count[3] = {0, 0, 0};
    for (std::size_t j = 0; j < kRoundSize; ++j) {
      const ServeRequest& q = sched[r * kRoundSize + j];
      ASSERT_LT(q.net, 3u);
      ASSERT_LT(q.input, 2u);
      ++count[q.net];
    }
    for (int c : count) {
      EXPECT_GE(c, 2);
      EXPECT_LE(c, 3);
    }
  }
}

}  // namespace
}  // namespace kbench
