#include "src/sim/pattern_cache.hpp"

namespace kconv::sim {

namespace {

// Lane-independent multiply-xor fold. Signature equality in the table is
// exact (full memcmp), so the hash only has to spread buckets — which lets
// each lane be folded independently of the previous one and the CPU overlap
// the multiplies, instead of serializing a per-lane FNV chain.
inline u64 mix_lane(u64 w, std::size_t i) {
  return (w + 0xA24BAED4963EE407ull * static_cast<u64>(i + 1)) *
         0x9FB21C651E98DF25ull;
}

}  // namespace

bool PatternCache::build_sig(std::span<const Access> lanes, u32 period,
                             PatternSig& sig, u64& base, u64& hash) {
  const std::size_t n = lanes.size();
  if (n == 0 || n > PatternSig::kMaxLanes) return false;
  std::size_t lead = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (lanes[i].bytes != 0) {
      lead = i;
      break;
    }
  }
  if (lead == n) return false;  // every lane predicated off
  base = lanes[lead].addr;
  sig.n = static_cast<u32>(n);
  sig.phase = static_cast<u32>(base % period);
  u64 h = ((static_cast<u64>(sig.n) << 32) | sig.phase) *
          0x9E3779B97F4A7C15ull;
  for (std::size_t i = 0; i < n; ++i) {
    const Access& a = lanes[i];
    // Predicated-off lanes normalize to (0, 0) so their junk addresses
    // cannot split otherwise-identical patterns.
    const i64 d = a.bytes == 0 ? 0 : static_cast<i64>(a.addr - base);
    sig.delta[i] = d;
    sig.bytes[i] = a.bytes;
    h ^= mix_lane(static_cast<u64>(d) ^ (static_cast<u64>(a.bytes) << 48), i);
  }
  h *= 0x2545F4914F6CDD1Dull;  // final avalanche: the table masks low bits
  h ^= h >> 32;
  hash = h;
  return true;
}

SmemCost PatternCache::smem(std::span<const Access> lanes) {
  PatternSig sig;
  u64 base = 0, hash = 0;
  if (!build_sig(lanes, bank_bytes_, sig, base, hash)) {
    return analyze_smem(lanes, banks_, bank_bytes_);
  }
  ++lookups_;
  bool hit = false;
  SmemCost* slot = smem_tab_.find_or_insert(sig, hash, hit);
  if (hit) {
    ++hits_;
    return *slot;
  }
  const SmemCost cost = analyze_smem(lanes, banks_, bank_bytes_);
  if (slot != nullptr) *slot = cost;
  return cost;
}

void PatternCache::gmem(std::span<const Access> lanes, GmemCost& out) {
  PatternSig sig;
  u64 base = 0, hash = 0;
  if (!build_sig(lanes, sector_bytes_, sig, base, hash)) {
    analyze_gmem(lanes, sector_bytes_, out);
    return;
  }
  ++lookups_;
  bool hit = false;
  GmemPattern* slot = gmem_tab_.find_or_insert(sig, hash, hit);
  const u64 aligned = base - sig.phase;  // the base lane's sector address
  if (hit) {
    ++hits_;
    out.lane_bytes = slot->lane_bytes;
    out.sectors.resize(slot->rel_sectors.size());
    for (std::size_t i = 0; i < slot->rel_sectors.size(); ++i) {
      out.sectors[i] = aligned + slot->rel_sectors[i];
    }
    return;
  }
  analyze_gmem(lanes, sector_bytes_, out);
  if (slot != nullptr) {
    slot->lane_bytes = out.lane_bytes;
    slot->rel_sectors.resize(out.sectors.size());
    for (std::size_t i = 0; i < out.sectors.size(); ++i) {
      // Wrapping subtraction: a lane below the base keeps the layout exact
      // through two's-complement round trip on rebase.
      slot->rel_sectors[i] = out.sectors[i] - aligned;
    }
  }
}

}  // namespace kconv::sim
