#include "src/sim/l2cache.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace kconv::sim {
namespace {

TEST(L2, MissThenHit) {
  L2Cache l2(1024, 32, 2);
  EXPECT_FALSE(l2.access(0));
  EXPECT_TRUE(l2.access(0));
  EXPECT_TRUE(l2.access(16));  // same sector
  EXPECT_EQ(l2.hits(), 2u);
  EXPECT_EQ(l2.misses(), 1u);
}

TEST(L2, DistinctSectorsMissIndependently) {
  L2Cache l2(1024, 32, 2);
  EXPECT_FALSE(l2.access(0));
  EXPECT_FALSE(l2.access(32));
  EXPECT_TRUE(l2.access(0));
  EXPECT_TRUE(l2.access(32));
}

TEST(L2, LruEvictionWithinSet) {
  // 4 sectors capacity, 2 ways -> 2 sets. Sectors 0, 2, 4 (even) map to
  // set 0; the third one evicts the least recently used.
  L2Cache l2(128, 32, 2);
  EXPECT_FALSE(l2.access(0));        // set 0: {0}
  EXPECT_FALSE(l2.access(64));       // set 0: {0, 64}
  EXPECT_TRUE(l2.access(0));         // touch 0 (64 is now LRU)
  EXPECT_FALSE(l2.access(128));      // evicts 64
  EXPECT_TRUE(l2.access(0));
  EXPECT_FALSE(l2.access(64));       // 64 was evicted
}

TEST(L2, InvalidateDropsEverything) {
  L2Cache l2(1024, 32, 2);
  l2.access(0);
  l2.access(32);
  l2.invalidate();
  EXPECT_FALSE(l2.access(0));
  EXPECT_FALSE(l2.access(32));
}

TEST(L2, CounterReset) {
  L2Cache l2(1024, 32, 2);
  l2.access(0);
  l2.access(0);
  l2.reset_counters();
  EXPECT_EQ(l2.hits(), 0u);
  EXPECT_EQ(l2.misses(), 0u);
}

TEST(L2, WorkingSetWithinCapacityAllHitsOnSecondPass) {
  L2Cache l2(64 * 1024, 32, 16);
  for (u64 a = 0; a < 32 * 1024; a += 32) l2.access(a);
  l2.reset_counters();
  for (u64 a = 0; a < 32 * 1024; a += 32) l2.access(a);
  EXPECT_EQ(l2.misses(), 0u);
}

TEST(L2, StreamLargerThanCapacityThrashes) {
  L2Cache l2(1024, 32, 2);
  for (int pass = 0; pass < 2; ++pass) {
    for (u64 a = 0; a < 8 * 1024; a += 32) l2.access(a);
  }
  // A streaming working set 8x the capacity should hit (almost) never.
  EXPECT_LT(static_cast<double>(l2.hits()) / (l2.hits() + l2.misses()), 0.05);
}

// The cache as first written: every way value-initialized up front, an
// explicit valid bit, invalidate() clearing every way.
class EagerL2 {
 public:
  EagerL2(u64 sets, u32 ways, u32 sector_bytes)
      : sector_bytes_(sector_bytes), ways_(ways), sets_(sets),
        lines_(sets * ways) {}
  bool access(u64 addr) {
    const u64 sector = addr / sector_bytes_;
    Way* row = &lines_[(sector & (sets_ - 1)) * ways_];
    ++tick_;
    Way* victim = &row[0];
    for (u32 w = 0; w < ways_; ++w) {
      if (row[w].valid && row[w].tag == sector) {
        row[w].lru = tick_;
        return true;
      }
      if (!row[w].valid) {
        victim = &row[w];
      } else if (victim->valid && row[w].lru < victim->lru) {
        victim = &row[w];
      }
    }
    *victim = {sector, tick_, true};
    return false;
  }
  void invalidate() {
    for (Way& w : lines_) w.valid = false;
  }

 private:
  struct Way {
    u64 tag = 0;
    u64 lru = 0;
    bool valid = false;
  };
  u32 sector_bytes_, ways_;
  u64 sets_, tick_ = 0;
  std::vector<Way> lines_;
};

TEST(L2, LazySetClearingMatchesAnEagerCache) {
  // 8 sets x 4 ways. Addresses span 3x the capacity so sets fill, evict
  // and run partly invalid after an invalidate().
  L2Cache l2(8 * 4 * 32, 32, 4);
  EagerL2 ref(8, 4, 32);
  std::mt19937_64 rng(7);
  u64 hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng() % 500 == 0) {
      l2.invalidate();
      ref.invalidate();
      continue;
    }
    const u64 addr = rng() % (3 * 8 * 4 * 32);
    const bool hit = ref.access(addr);
    ASSERT_EQ(l2.access(addr), hit) << "access " << i;
    hits += hit;
  }
  EXPECT_EQ(l2.hits(), hits);
  EXPECT_GT(hits, 1000u);
  EXPECT_GT(l2.misses(), 1000u);
}

TEST(L2, RejectsSillyGeometry) {
  EXPECT_THROW(L2Cache(16, 32, 1), Error);
  EXPECT_THROW(L2Cache(0, 32, 1), Error);
}

}  // namespace
}  // namespace kconv::sim
