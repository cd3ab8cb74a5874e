#include "kbench/src/gen.hpp"

#include <utility>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"

namespace kbench {

namespace {

/// A shape family: the output extent is `out` minus a seeded 0 or 1, which
/// keeps the grid of every family's kernel and moves only edge tiles.
struct ConvStratum {
  i64 c, f, k, out;
};

// Special case (C = 1, Fig. 7 families: many pixels, few filters) and
// general case (C >= 16, Fig. 8 families), sized so that each launch runs
// 16-128 blocks in full at a few tens of host milliseconds.
constexpr ConvStratum kLayerStrata[] = {
    {1, 16, 3, 256},  {1, 2, 3, 512},   {1, 8, 5, 256},
    {1, 4, 5, 384},   {1, 16, 5, 128},  {1, 4, 7, 256},
    {16, 64, 3, 64},  {16, 128, 3, 32}, {32, 128, 3, 32},
    {16, 32, 5, 64},  {16, 64, 5, 48},  {16, 32, 7, 64},
};

// General families shrunk further, to 8- and 4-block grids: conv-fleet runs
// on a serial host.
constexpr ConvStratum kFleetStrata[] = {
    {16, 64, 3, 32},
    {16, 32, 5, 32},
};

struct SweepStratum {
  bool special;
  i64 k, c, f, n;
};

constexpr SweepStratum kSweepStrata[] = {
    {true, 3, 1, 8, 40},   {true, 3, 1, 4, 48},  {true, 5, 1, 8, 40},
    {true, 5, 1, 4, 48},   {false, 3, 4, 64, 20}, {false, 3, 8, 64, 18},
    {false, 5, 4, 32, 20}, {false, 5, 8, 32, 22},
};

template <typename T>
void shuffle(std::vector<T>& v, kconv::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

ConvShape draw(const ConvStratum& s, kconv::Rng& rng) {
  const i64 out = s.out - static_cast<i64>(rng.below(2));
  return ConvShape{s.c, s.f, s.k, out + s.k - 1};
}

}  // namespace

std::vector<ConvShape> conv_layer_shapes(u64 seed) {
  kconv::Rng rng(seed ^ 0xC0417A5Eull);
  std::vector<ConvShape> out;
  for (const ConvStratum& s : kLayerStrata) out.push_back(draw(s, rng));
  shuffle(out, rng);
  return out;
}

std::vector<FleetOp> fleet_ops(u64 seed) {
  using kconv::sim::ShardStrategy;
  kconv::Rng rng(seed ^ 0xF1EE7ull);
  std::vector<FleetOp> out;
  for (const ConvStratum& s : kFleetStrata) {
    const ConvShape shape = draw(s, rng);
    for (const u32 devices : {2u, 4u}) {
      for (const ShardStrategy shard :
           {ShardStrategy::Batch, ShardStrategy::Channel,
            ShardStrategy::Spatial}) {
        out.push_back(FleetOp{shape, devices, shard});
      }
    }
  }
  shuffle(out, rng);
  return out;
}

std::vector<SweepSpec> tune_sweeps(u64 seed) {
  kconv::Rng rng(seed ^ 0x7E57ull);
  std::vector<SweepSpec> out;
  for (const SweepStratum& s : kSweepStrata) {
    // Special proxies grow smoothly with n; a general proxy's winner (and so
    // its modeled time) jumps between neighbouring sizes, so it stays fixed.
    const i64 n = s.special ? s.n + static_cast<i64>(rng.below(3)) : s.n;
    out.push_back(SweepSpec{s.special, s.k, s.c, s.f, n});
  }
  shuffle(out, rng);
  return out;
}

std::vector<ServeRequest> serve_schedule(u64 seed, u32 rounds, u32 nets,
                                         u32 inputs) {
  KCONV_CHECK(nets > 0 && nets <= kRoundSize && inputs > 0,
              "serve_schedule: bad network or input count");
  kconv::Rng rng(seed ^ 0x5E87Eull);
  const u32 per_net = kRoundSize / nets;
  std::vector<u32> order(nets);
  for (u32 net = 0; net < nets; ++net) order[net] = net;
  std::vector<ServeRequest> out;
  out.reserve(static_cast<std::size_t>(rounds) * kRoundSize);
  for (u32 r = 0; r < rounds; ++r) {
    // The slots left after per_net of each go to distinct, uniformly drawn
    // networks: no network runs more than per_net + 1 times in a round.
    shuffle(order, rng);
    std::vector<ServeRequest> round;
    for (u32 i = 0; i < nets; ++i) {
      const u32 count = per_net + (i < kRoundSize - per_net * nets ? 1 : 0);
      round.insert(round.end(), count, ServeRequest{order[i], 0});
    }
    shuffle(round, rng);
    for (ServeRequest& q : round) {
      q.input = static_cast<u32>(rng.below(inputs));
      out.push_back(q);
    }
  }
  return out;
}

}  // namespace kbench
