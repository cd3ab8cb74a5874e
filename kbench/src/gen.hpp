// Seeded workload generation.
//
// Every input the benchmark feeds the library is derived here from the
// workload seed, so one seed always yields one op list. The draws are
// stratified: each op list holds one draw from every stratum (a paper shape
// family, a shard mode, a sweep kind), and the seed picks sizes within a
// stratum from a narrow range and shuffles the order. That keeps the total
// work of a run nearly seed-independent while every seed still sees
// different shapes, so run-to-run spreads measure the program, not the draw.
#pragma once

#include <vector>

#include "src/common/types.hpp"
#include "src/sim/transfer.hpp"

namespace kbench {

using kconv::i64;
using kconv::u32;
using kconv::u64;

/// One convolution problem: input (1, C, N, N), filters (F, C, K, K).
struct ConvShape {
  i64 c = 1;
  i64 f = 1;
  i64 k = 3;
  i64 n = 0;
  bool operator==(const ConvShape&) const = default;
};

/// conv-fleet: one general shape sharded across `devices`.
struct FleetOp {
  ConvShape shape;
  u32 devices = 2;
  kconv::sim::ShardStrategy shard = kconv::sim::ShardStrategy::Batch;
  bool operator==(const FleetOp&) const = default;
};

/// tune-cold: one autotune sweep on a proxy problem (`c` unused when
/// `special`).
struct SweepSpec {
  bool special = false;
  i64 k = 3;
  i64 c = 1;
  i64 f = 8;
  i64 n = 16;
  bool operator==(const SweepSpec&) const = default;
};

/// serve-warm: one request, naming a network and an input of its pool.
struct ServeRequest {
  u32 net = 0;
  u32 input = 0;
  bool operator==(const ServeRequest&) const = default;
};

/// Requests enqueued per serve-warm round before each drain.
inline constexpr u32 kRoundSize = 8;

/// conv-layers: special-case (C = 1) and general-case (C >= 16) shapes of
/// the paper's Fig. 7/8 families, shrunk to grids of 16-128 blocks.
std::vector<ConvShape> conv_layer_shapes(u64 seed);

/// conv-fleet: two general shapes, each crossed with devices {2, 4} and
/// every shard strategy.
std::vector<FleetOp> fleet_ops(u64 seed);

/// tune-cold: special and general sweeps over K in {3, 5}, two proxies each
/// (the seed sizes the special proxies).
std::vector<SweepSpec> tune_sweeps(u64 seed);

/// serve-warm: `rounds` rounds of kRoundSize requests over `nets` networks
/// (kRoundSize / nets of each per round, the remaining slots to distinct,
/// uniformly drawn networks), each naming one of `inputs` pooled inputs.
std::vector<ServeRequest> serve_schedule(u64 seed, u32 rounds, u32 nets,
                                         u32 inputs);

}  // namespace kbench
