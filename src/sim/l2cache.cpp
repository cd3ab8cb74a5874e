#include "src/sim/l2cache.hpp"

#include <bit>

#include "src/common/error.hpp"

namespace kconv::sim {

L2Cache::L2Cache(u32 capacity_bytes, u32 sector_bytes, u32 ways)
    : sector_bytes_(sector_bytes), ways_(ways) {
  KCONV_CHECK(sector_bytes > 0 && ways > 0 && capacity_bytes >= sector_bytes,
              "invalid L2 geometry");
  const u64 sectors = capacity_bytes / sector_bytes;
  sets_ = sectors / ways < 1 ? 1 : std::bit_floor(sectors / ways);
  // access() indexes sets by masking, which is only a modulo when the set
  // count is a power of two — assert it rather than silently aliasing.
  KCONV_ASSERT(std::has_single_bit(sets_));
  set_epoch_.assign(sets_, 0);
  lines_ = std::make_unique_for_overwrite<Way[]>(sets_ * ways_);
}

bool L2Cache::access(u64 addr) {
  const u64 sector = addr / sector_bytes_;
  const u64 set = sector & (sets_ - 1);
  Way* row = &lines_[set * ways_];
  if (set_epoch_[set] != epoch_) {
    set_epoch_[set] = epoch_;
    for (u32 w = 0; w < ways_; ++w) row[w] = Way{0, 0};
  }
  ++tick_;

  // Ticks start at 1, so a valid way never has lru 0. Victim: the last
  // invalid way, else the least recently used one.
  Way* victim = &row[0];
  for (u32 w = 0; w < ways_; ++w) {
    if (row[w].lru != 0 && row[w].tag == sector) {
      row[w].lru = tick_;
      ++hits_;
      return true;
    }
    if (row[w].lru == 0) {
      victim = &row[w];
    } else if (victim->lru != 0 && row[w].lru < victim->lru) {
      victim = &row[w];
    }
  }
  victim->tag = sector;
  victim->lru = tick_;
  ++misses_;
  return false;
}

void L2Cache::invalidate() { ++epoch_; }

}  // namespace kconv::sim
