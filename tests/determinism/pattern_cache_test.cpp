// Warp access-pattern cache correctness suite (docs/MODEL.md §5c).
//
// The PatternCache memoizes analyze_smem / analyze_gmem on a
// translation-invariant signature of the warp access vector. The contract
// under test:
//   - for any access vector — strided, swizzled, broadcast, descending,
//     predicated, misaligned, mixed-width — the memoized answer equals a
//     fresh run of the direct analyzer, field for field;
//   - translated repeats (same lane deltas, shifted base) are served from
//     the cache, and the rebased gmem sector list still matches the direct
//     analyzer exactly (including bases below the original, exercising the
//     wrapping rebase);
//   - junk addresses on predicated-off lanes don't split patterns and
//     all-predicated groups bypass the cache;
//   - at launch level, Timing runs with the cache on and off produce
//     byte-identical outputs and equal counters — including the
//     cache-warmth-dependent gm_sectors_dram and const_line_misses — on
//     the serial, parallel and trace-replay paths.
#include <cstring>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/kernels/general_conv.hpp"
#include "src/sim/device.hpp"
#include "src/sim/launch.hpp"
#include "src/sim/pattern_cache.hpp"
#include "tests/support/stats_match.hpp"

namespace kconv {
namespace {

struct Geometry {
  u32 banks, bank_bytes, sector_bytes;
};

/// One randomly generated warp access vector plus the recipe that made it,
/// so it can be re-emitted at a translated base to force cache hits.
struct Vec {
  std::vector<sim::Access> acc;
  u64 base = 0;
};

Vec make_vec(Rng& rng, u64 base, sim::Op op) {
  Vec v;
  v.base = base;
  const u32 n = 1 + static_cast<u32>(rng.below(32));
  const u32 widths[] = {1, 2, 4, 8, 16};
  const u32 width = widths[rng.below(5)];
  const u64 kind = rng.below(5);
  const u64 stride = kind == 0 ? width            // perfectly coalesced
                     : 1 + rng.below(256);        // strided / conflicting
  const u64 swizzle = kind == 2 ? rng.below(8) : 0;
  for (u32 i = 0; i < n; ++i) {
    sim::Access a;
    a.op = op;
    const u64 lane = i ^ swizzle;
    switch (kind) {
      case 0:
      case 1:  // ascending (maybe conflicting) stride
        a.addr = base + lane * stride;
        break;
      case 2:  // swizzled lane order
        a.addr = base + lane * stride;
        break;
      case 3:  // descending: later lanes below the first active lane
        a.addr = base + (n - 1 - i) * stride + 4096;
        break;
      default:  // broadcast with per-lane jitter
        a.addr = base + rng.below(4);
        break;
    }
    // Mixed widths within one vector exercise per-lane byte counts.
    a.bytes = rng.below(8) == 0 ? widths[rng.below(5)] : width;
    // The device API computes addresses from element indices, so wide
    // accesses are element-aligned (the analyzers' 128-word scratch
    // assumes as much); 1- and 2-byte lanes keep arbitrary alignment.
    if (a.bytes >= 4) a.addr &= ~u64{3};
    if (rng.below(6) == 0) {
      a.bytes = 0;  // predicated off: junk address must not matter
      a.addr = rng.next_u64();
    }
    v.acc.push_back(a);
  }
  return v;
}

void expect_smem_matches(sim::PatternCache& cache, const Geometry& g,
                         std::span<const sim::Access> acc) {
  const sim::SmemCost got = cache.smem(acc);
  const sim::SmemCost want = sim::analyze_smem(acc, g.banks, g.bank_bytes);
  EXPECT_EQ(got.request_cycles, want.request_cycles);
  EXPECT_EQ(got.unique_bytes, want.unique_bytes);
  EXPECT_EQ(got.lane_bytes, want.lane_bytes);
}

void expect_gmem_matches(sim::PatternCache& cache, const Geometry& g,
                         std::span<const sim::Access> acc) {
  sim::GmemCost got, want;
  cache.gmem(acc, got);
  sim::analyze_gmem(acc, g.sector_bytes, want);
  EXPECT_EQ(got.lane_bytes, want.lane_bytes);
  ASSERT_EQ(got.sectors.size(), want.sectors.size());
  for (std::size_t i = 0; i < got.sectors.size(); ++i) {
    EXPECT_EQ(got.sectors[i], want.sectors[i]) << "sector " << i;
  }
}

TEST(PatternCacheFuzz, MatchesDirectAnalyzers) {
  const Geometry geos[] = {
      {32, 8, 32},  // Kepler 8-byte banks
      {32, 4, 32},  // Kepler compatibility (4-byte) banks
      {16, 4, 128},  // Fermi-style geometry
  };
  for (const Geometry& g : geos) {
    sim::PatternCache cache(g.banks, g.bank_bytes, g.sector_bytes);
    Rng rng(0xC0FFEE ^ g.banks ^ g.bank_bytes ^ g.sector_bytes);
    std::vector<Vec> smem_pool, gmem_pool;
    for (int iter = 0; iter < 3000; ++iter) {
      // Shared memory: small offsets, deliberately misaligned bases.
      if (smem_pool.empty() || rng.below(2) == 0) {
        smem_pool.push_back(make_vec(rng, rng.below(48 * 1024),
                                     sim::Op::LoadShared));
        expect_smem_matches(cache, g, smem_pool.back().acc);
      } else {
        // Translated repeat of an earlier vector: same deltas, new base.
        // A bank_bytes-multiple shift keeps the phase, forcing a hit.
        Vec v = smem_pool[rng.below(smem_pool.size())];
        const u64 shift = g.bank_bytes * rng.below(512);
        for (sim::Access& a : v.acc) {
          if (a.bytes != 0) a.addr += shift;
        }
        expect_smem_matches(cache, g, v.acc);
      }
      // Global memory: large 40-bit bases; translated repeats may also
      // shift *down*, exercising the wrapping sector rebase.
      if (gmem_pool.empty() || rng.below(2) == 0) {
        gmem_pool.push_back(make_vec(rng, (1ull << 33) + rng.below(1ull << 39),
                                     sim::Op::LoadGlobal));
        expect_gmem_matches(cache, g, gmem_pool.back().acc);
      } else {
        Vec v = gmem_pool[rng.below(gmem_pool.size())];
        const u64 shift = g.sector_bytes * rng.below(1u << 20);
        const bool down = rng.below(2) == 0;
        for (sim::Access& a : v.acc) {
          if (a.bytes != 0) a.addr = down ? a.addr - shift : a.addr + shift;
        }
        expect_gmem_matches(cache, g, v.acc);
      }
    }
    // The translated repeats above must actually have exercised the hit
    // path, and the fresh vectors the miss path.
    EXPECT_GT(cache.hits(), 0u);
    EXPECT_GT(cache.lookups(), cache.hits());
  }
}

TEST(PatternCacheFuzz, AllPredicatedBypassesCache) {
  sim::PatternCache cache(32, 8, 32);
  std::vector<sim::Access> acc(7);
  Rng rng(5);
  for (sim::Access& a : acc) {
    a.op = sim::Op::LoadShared;
    a.addr = rng.next_u64();  // junk — must be ignored
    a.bytes = 0;
  }
  const sim::SmemCost c = cache.smem(acc);
  EXPECT_EQ(c.lane_bytes, 0u);
  EXPECT_EQ(cache.lookups(), 0u);
  sim::GmemCost gc;
  for (sim::Access& a : acc) a.op = sim::Op::LoadGlobal;
  cache.gmem(acc, gc);
  EXPECT_EQ(gc.lane_bytes, 0u);
  EXPECT_TRUE(gc.sectors.empty());
  EXPECT_EQ(cache.lookups(), 0u);
}

/// General conv at a shape with interior, edge and corner block classes,
/// run at Timing level so every analyzer and cache counter is live.
kernels::KernelRun run_general(bool pattern_cache, u32 num_threads,
                               bool replay) {
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
  sim::LaunchOptions opt;
  opt.trace = sim::TraceLevel::Timing;
  opt.pattern_cache = pattern_cache;
  opt.num_threads = num_threads;
  opt.replay = replay;
  return kernels::general_conv(dev, img, flt, cfg, opt);
}

TEST(PatternCacheLaunch, CacheOnOffIdenticalAcrossLaunchModes) {
  struct ModeCase {
    const char* name;
    u32 num_threads;
    bool replay;
  };
  const ModeCase modes[] = {
      {"serial", 1, false},
      {"parallel", 4, false},
      {"replay", 1, true},
  };
  for (const ModeCase& m : modes) {
    SCOPED_TRACE(m.name);
    const auto off = run_general(false, m.num_threads, m.replay);
    const auto on = run_general(true, m.num_threads, m.replay);
    ASSERT_TRUE(off.output_valid);
    ASSERT_TRUE(on.output_valid);
    const auto fa = off.output.flat();
    const auto fb = on.output.flat();
    ASSERT_EQ(fa.size(), fb.size());
    EXPECT_EQ(std::memcmp(fa.data(), fb.data(), fa.size() * sizeof(float)),
              0);
    EXPECT_TRUE(test::stats_match(off.launch.stats, on.launch.stats,
                                  StatsLevel::Exact));
    EXPECT_EQ(off.launch.stats.pattern_lookups, 0u);
    EXPECT_GT(on.launch.stats.pattern_lookups, 0u);
    EXPECT_GT(on.launch.stats.pattern_hits, 0u);
    if (m.replay) {
      EXPECT_GT(on.launch.blocks_replayed, 0u);
      EXPECT_EQ(on.launch.blocks_replayed, off.launch.blocks_replayed);
    }
  }
}

}  // namespace
}  // namespace kconv
