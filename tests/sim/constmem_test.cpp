#include "src/sim/constmem.hpp"

#include <gtest/gtest.h>

namespace kconv::sim {
namespace {

TEST(ConstMem, FullBroadcastIsOneRequest) {
  std::vector<Access> v(32, Access{Op::LoadConst, 0x40, 4});
  const auto c = analyze_const(v, 64);
  EXPECT_EQ(c.requests, 1u);
  EXPECT_EQ(c.lines_touched, 1u);
}

TEST(ConstMem, BroadcastWithIdleLanesKeepsItsLine) {
  // Predicated-off lanes (bytes 0) do not break a broadcast.
  std::vector<Access> v(32, Access{Op::LoadConst, 0, 0});
  for (u32 i = 3; i < 32; i += 2) v[i] = {Op::LoadConst, 200, 4};
  const auto c = analyze_const(v, 64);
  EXPECT_EQ(c.requests, 1u);
  ASSERT_EQ(c.lines_touched, 1u);
  EXPECT_EQ(c.line_addrs[0], 192u);
  for (u32 i = 1; i < 32; ++i) EXPECT_EQ(c.line_addrs[i], 0u);
}

TEST(ConstMem, DistinctAddressesSerialize) {
  std::vector<Access> v;
  for (u32 i = 0; i < 32; ++i) v.push_back({Op::LoadConst, i * 4ull, 4});
  const auto c = analyze_const(v, 64);
  EXPECT_EQ(c.requests, 32u);
  EXPECT_EQ(c.lines_touched, 2u);  // 128 bytes = 2 x 64B lines
}

TEST(ConstMem, TwoGroupsTwoRequests) {
  std::vector<Access> v;
  for (u32 i = 0; i < 16; ++i) v.push_back({Op::LoadConst, 0, 4});
  for (u32 i = 0; i < 16; ++i) v.push_back({Op::LoadConst, 4, 4});
  const auto c = analyze_const(v, 64);
  EXPECT_EQ(c.requests, 2u);
  EXPECT_EQ(c.lines_touched, 1u);
}

TEST(ConstMem, LineAddressesAreLineAligned) {
  std::vector<Access> v = {{Op::LoadConst, 100, 4}};
  const auto c = analyze_const(v, 64);
  ASSERT_EQ(c.lines_touched, 1u);
  EXPECT_EQ(c.line_addrs[0], 64u);
}

TEST(ConstMem, EmptyWarpStillOneRequestFloor) {
  const auto c = analyze_const({}, 64);
  EXPECT_EQ(c.requests, 1u);
  EXPECT_EQ(c.lines_touched, 0u);
}

}  // namespace
}  // namespace kconv::sim
