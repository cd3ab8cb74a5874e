#include "src/sim/trace.hpp"

#include <algorithm>

#include "src/common/strutil.hpp"

namespace kconv::sim {

namespace {

/// Tape offsets must fit the entry's 32-bit field; they are relative to the
/// block's own anchor, so only a kernel whose accesses stray gigabytes from
/// its declared origins can overflow.
i32 tape_rel(i64 v, const LaneTapeBuilder& b) {
  if (v < INT32_MIN || v > INT32_MAX) {
    b.unsupported("an access lies too far (>2 GiB) from its declared "
                  "replay origin");
  }
  return static_cast<i32>(v);
}

}  // namespace

Access* WarpEvents::block(u32 b) {
  while (blocks_.size() <= b) {
    blocks_.emplace_back(static_cast<Access*>(
        ::operator new(sizeof(Access) * kRows * width_)));
  }
  return blocks_[b].get();
}

void LaneRecorder::refill() {
  const u32 kept = this->kept();
  // Stream mode folds the cap into the limit: reaching it with the cap's
  // rows kept is the runaway guard. An unbound recorder has a cap of 0.
  const u32 room = replay_ ? WarpEvents::kRows : max_events_ - events_ - kept;
  if (room == 0) overflow();
  // Otherwise the cursor is at the end of its storage block (or has none
  // yet this segment): continue in the next one.
  base_ = log_->block(kept / WarpEvents::kRows) + lane_;
  seg_rows_ = kept;
  cur_ = base_;
  lim_ = base_ + std::min(room, WarpEvents::kRows) * stride_;
}

void LaneRecorder::overflow() const {
  KCONV_CHECK(log_ != nullptr,
              "device memory op on a ThreadCtx with neither a LaneRecorder "
              "nor a LaneTapeBuilder bound");
  if (!replay_) {
    KCONV_CHECK(false,
                strf("device program exceeded %u retired events per lane "
                     "(runaway loop?)",
                     max_events_));
  }
  KCONV_CHECK(false,
              "replay congruence violation: a replayed lane exceeded its "
              "recorded event count — replay_class declared two "
              "non-congruent blocks equivalent");
}

u32 LaneTapeBuilder::alloc(u32 n) {
  KCONV_CHECK(tape_->n_slots + n <= kMaxSlots,
              "dataflow tape exceeded its value-slot capacity "
              "(runaway loop in a replay_origins kernel?)");
  const u32 base = tape_->n_slots;
  tape_->n_slots += n;
  return base;
}

u32 LaneTapeBuilder::slot_of(float v) {
  u32 bits;
  std::memcpy(&bits, &v, sizeof(bits));
  if ((bits & kTagMask) == kTagBits) {
    const u32 payload = bits & kPayloadMask;
    if (payload != 0 && payload <= tape_->n_slots) return payload - 1;
    // A NaN that is not one of our live tags: the kernel transformed a
    // tagged value through arithmetic the tape cannot see.
    unsupported("a value reached the tape in an untraceable form; kernels "
                "declaring replay_origins must route all arithmetic on "
                "loaded values through ThreadCtx::fma");
  }
  const auto it = literals_.find(bits);
  if (it != literals_.end()) return it->second;
  const u32 s = alloc(1);
  literals_.emplace(bits, s);
  tape_->entries.push_back(
      {TapeOp::LoadLit, 0, 1, s, 0, 0, static_cast<i32>(bits)});
  return s;
}

u32 LaneTapeBuilder::run_of(const float* elems, u32 n) {
  const u32 s0 = slot_of(elems[0]);
  bool contiguous = true;
  u32 prev = s0;
  for (u32 i = 1; i < n; ++i) {
    const u32 s = slot_of(elems[i]);
    if (s != prev + 1) contiguous = false;
    // Decode every element first: slot_of may intern literals, and the
    // interpreter must see those LoadLits before the Gather that uses them.
    prev = s;
  }
  if (contiguous) return s0;
  const u32 start = static_cast<u32>(tape_->gather.size());
  for (u32 i = 0; i < n; ++i) tape_->gather.push_back(slot_of(elems[i]));
  const u32 dst = alloc(n);
  tape_->entries.push_back(
      {TapeOp::Gather, 0, static_cast<u16>(n), dst, start, 0, 0});
  return dst;
}

u32 LaneTapeBuilder::origin_index(const void* buf, bool want_const) const {
  for (u32 i = 0; i < origins_->count; ++i) {
    const ReplayOrigins::Entry& e = origins_->entries[i];
    if (e.id == buf && e.is_const == want_const) return i;
  }
  unsupported("the kernel touched a buffer its replay_origins hook did not "
              "declare");
}

u32 LaneTapeBuilder::note_load_gm(const void* buf, u64 addr, u32 n,
                                  bool pred) {
  TapeEntry e{TapeOp::LoadGm, 0, static_cast<u16>(n), 0, 0, 0, 0};
  if (pred) {
    e.a = origin_index(buf, false);
    e.rel = tape_rel(
        static_cast<i64>(addr) -
            static_cast<i64>(origins_->entries[e.a].addr),
        *this);
  } else {
    e.flags = kTapeMasked;
  }
  e.dst = alloc(n);
  tape_->entries.push_back(e);
  return e.dst;
}

u32 LaneTapeBuilder::note_load_const(const void* buf, u64 addr, u32 n) {
  const u32 o = origin_index(buf, true);
  const i32 rel = tape_rel(
      static_cast<i64>(addr) - static_cast<i64>(origins_->entries[o].addr),
      *this);
  const u32 dst = alloc(n);
  tape_->entries.push_back(
      {TapeOp::LoadConst, 0, static_cast<u16>(n), dst, o, 0, rel});
  return dst;
}

u32 LaneTapeBuilder::note_load_sm(u64 byte_off, u32 n) {
  // Back-to-back shared loads of adjacent bytes widen the previous entry
  // (the kernels' row-staging loops), like note_axpy's merge window.
  if (last_merge_ != SIZE_MAX && last_merge_ + 1 == tape_->entries.size() &&
      last_merge_dst_end_ == tape_->n_slots) {
    TapeEntry& p = tape_->entries[last_merge_];
    if (p.op == TapeOp::LoadSm &&
        p.rel + 4ll * p.width == static_cast<i64>(byte_off) &&
        static_cast<u32>(p.width) + n <= 0xFFFF) {
      const u32 dst = alloc(n);
      p.width = static_cast<u16>(p.width + n);
      last_merge_dst_end_ = tape_->n_slots;
      return dst;
    }
  }
  const u32 dst = alloc(n);
  tape_->entries.push_back({TapeOp::LoadSm, 0, static_cast<u16>(n), dst, 0, 0,
                            tape_rel(static_cast<i64>(byte_off), *this)});
  last_merge_ = tape_->entries.size() - 1;
  last_merge_dst_end_ = tape_->n_slots;
  return dst;
}

void LaneTapeBuilder::note_store_gm(const void* buf, u64 addr,
                                    const float* elems, u32 n, bool pred) {
  TapeEntry e{TapeOp::StoreGm, 0, static_cast<u16>(n), 0, 0, 0, 0};
  if (pred) {
    e.a = origin_index(buf, false);
    e.rel = tape_rel(
        static_cast<i64>(addr) -
            static_cast<i64>(origins_->entries[e.a].addr),
        *this);
    e.b = run_of(elems, n);
  } else {
    e.flags = kTapeMasked;
  }
  tape_->entries.push_back(e);
}

void LaneTapeBuilder::note_store_sm(u64 byte_off, const float* elems, u32 n,
                                    bool pred) {
  TapeEntry e{TapeOp::StoreSm, 0, static_cast<u16>(n), 0, 0, 0,
              tape_rel(static_cast<i64>(byte_off), *this)};
  if (pred) {
    e.b = run_of(elems, n);
  } else {
    e.flags = kTapeMasked;
  }
  tape_->entries.push_back(e);
}

u32 LaneTapeBuilder::note_axpy(const float* xs, float w, const float* acc,
                               u32 n) {
  const u32 sx = run_of(xs, n);
  const u32 sw = slot_of(w);
  const u32 sa = run_of(acc, n);
  // Consecutive multiply-adds with the same scalar weight over adjacent
  // slot runs fuse into one wide entry (the kernels' per-pixel unrolls),
  // which is what lets the interpreter vectorize. Only legal while the
  // previous Axpy is still the last entry AND the last allocation — the
  // merged entry's destination run must stay contiguous.
  if (last_merge_ != SIZE_MAX && last_merge_ + 1 == tape_->entries.size() &&
      last_merge_dst_end_ == tape_->n_slots) {
    TapeEntry& p = tape_->entries[last_merge_];
    if (p.op == TapeOp::Axpy && p.a == sw && p.b + p.width == sx &&
        static_cast<u32>(p.rel) + p.width == sa &&
        static_cast<u32>(p.width) + n <= 0xFFFF) {
      const u32 dst = alloc(n);
      p.width = static_cast<u16>(p.width + n);
      last_merge_dst_end_ = tape_->n_slots;
      return dst;
    }
  }
  const u32 dst = alloc(n);
  tape_->entries.push_back({TapeOp::Axpy, 0, static_cast<u16>(n), dst, sw, sx,
                            static_cast<i32>(sa)});
  last_merge_ = tape_->entries.size() - 1;
  last_merge_dst_end_ = tape_->n_slots;
  return dst;
}

u32 LaneTapeBuilder::note_fma_vec(const float* xs, const float* ys,
                                  const float* acc, u32 n) {
  const u32 sx = run_of(xs, n);
  const u32 sy = run_of(ys, n);
  const u32 sa = run_of(acc, n);
  const u32 dst = alloc(n);
  tape_->entries.push_back({TapeOp::FmaVec, 0, static_cast<u16>(n), dst, sx,
                            sy, static_cast<i32>(sa)});
  return dst;
}

u32 LaneTapeBuilder::note_bias_relu(const float* xs, float bias, u32 n) {
  const u32 sx = run_of(xs, n);
  const u32 sb = slot_of(bias);
  const u32 dst = alloc(n);
  tape_->entries.push_back(
      {TapeOp::BiasRelu, 0, static_cast<u16>(n), dst, sx, sb, 0});
  return dst;
}

void LaneTapeBuilder::note_sync() {
  tape_->entries.push_back({TapeOp::Sync, 0, 0, 0, 0, 0, 0});
}

void LaneTapeBuilder::unsupported(const char* what) const {
  throw Error(strf("functional tape capture failed: %s", what));
}

// --- Register compaction --------------------------------------------------
//
// The builder allocates SSA-style: every produced value takes fresh slots,
// so a lane's register file grows with the tape's length even though values
// die almost immediately (an accumulator chain keeps only its newest link
// live). This pass renames slots to recycle dead ones.
//
// The one constraint is contiguity: operand runs address consecutive slots,
// and a run may span several entries' destination runs (the builder's merge
// windows and the kernels' window shuffles produce such bridges). Renaming
// therefore works on *groups* — maximal chains of destination runs bridged
// by some operand run. Group members are consecutive in the original slot
// space (a bridging run is itself contiguous there), so relocating the
// whole group by one offset preserves every operand run inside it.
//
// Recycling uses exact-size free lists: the tape's steady state repeats the
// same few run shapes every row/filter iteration, so freed blocks are
// reclaimed by identical requests and fragmentation never builds up.
void compact_lane_tape(LaneTape& lt) {
  const u32 n_old = lt.n_slots;
  const u32 n_e = static_cast<u32>(lt.entries.size());
  if (n_old == 0 || n_e == 0) return;

  // Destination runs ("units") in allocation order; old slot -> unit.
  struct Unit {
    u32 entry;
    u32 base;
    u32 width;
  };
  std::vector<Unit> units;
  std::vector<u32> unit_of(n_old);
  for (u32 i = 0; i < n_e; ++i) {
    const TapeEntry& e = lt.entries[i];
    if (!tape_op_allocates(e.op)) continue;
    for (u32 j = 0; j < e.width; ++j) {
      unit_of[e.dst + j] = static_cast<u32>(units.size());
    }
    units.push_back({i, e.dst, e.width});
  }
  const u32 n_u = static_cast<u32>(units.size());

  // Operand runs fuse the units they span and extend those units' lives.
  std::vector<u8> fuse(n_u, 0);  // fuse[u]: units u and u+1 share a group
  std::vector<u32> last_use(n_u, 0);
  const auto touch = [&](u32 s, u32 w, u32 at) {
    const u32 u1 = unit_of[s];
    const u32 u2 = unit_of[s + w - 1];
    for (u32 u = u1; u < u2; ++u) fuse[u] = 1;
    for (u32 u = u1; u <= u2; ++u) last_use[u] = std::max(last_use[u], at);
  };
  for (u32 i = 0; i < n_e; ++i) {
    const TapeEntry& e = lt.entries[i];
    switch (e.op) {
      case TapeOp::Axpy:
        touch(e.a, 1, i);
        touch(e.b, e.width, i);
        touch(static_cast<u32>(e.rel), e.width, i);
        break;
      case TapeOp::FmaVec:
        touch(e.a, e.width, i);
        touch(e.b, e.width, i);
        touch(static_cast<u32>(e.rel), e.width, i);
        break;
      case TapeOp::Gather:
        for (u32 j = 0; j < e.width; ++j) touch(lt.gather[e.a + j], 1, i);
        break;
      case TapeOp::BiasRelu:
        touch(e.a, e.width, i);
        touch(e.b, 1, i);
        break;
      case TapeOp::StoreGm:
      case TapeOp::StoreSm:
        if ((e.flags & kTapeMasked) == 0) touch(e.b, e.width, i);
        break;
      default:
        break;
    }
  }

  // Groups: maximal fused chains, contiguous in old slot space. A group is
  // released after its last operand use — or after its last member's
  // allocation, for values that are produced but never read (masked lanes).
  struct Group {
    u32 old_base;
    u32 size;
    u32 death;
    u32 new_base = 0;
  };
  std::vector<Group> groups;
  std::vector<u32> group_of(n_u);
  for (u32 u = 0; u < n_u;) {
    Group g{units[u].base, 0, 0};
    u32 v = u;
    for (; v < n_u; ++v) {
      group_of[v] = static_cast<u32>(groups.size());
      g.size += units[v].width;
      g.death = std::max({g.death, last_use[v], units[v].entry});
      if (!fuse[v]) break;
    }
    groups.push_back(g);
    u = v + 1;
  }

  // Bucket releases by the entry after which they happen.
  std::vector<u32> free_head(n_e, UINT32_MAX);
  std::vector<u32> free_next(groups.size(), UINT32_MAX);
  for (u32 g = 0; g < groups.size(); ++g) {
    free_next[g] = free_head[groups[g].death];
    free_head[groups[g].death] = g;
  }

  // Rename in program order: operands reference already-renamed slots;
  // destinations acquire from the free list (exact size match) or extend
  // the register file.
  std::vector<u32> new_of(n_old);
  std::unordered_map<u32, std::vector<u32>> freelist;  // size -> bases
  u32 next_new = 0;
  for (u32 i = 0; i < n_e; ++i) {
    TapeEntry& e = lt.entries[i];
    switch (e.op) {
      case TapeOp::Axpy:
        e.a = new_of[e.a];
        e.b = new_of[e.b];
        e.rel = static_cast<i32>(new_of[static_cast<u32>(e.rel)]);
        break;
      case TapeOp::FmaVec:
        e.a = new_of[e.a];
        e.b = new_of[e.b];
        e.rel = static_cast<i32>(new_of[static_cast<u32>(e.rel)]);
        break;
      case TapeOp::Gather:
        for (u32 j = 0; j < e.width; ++j) {
          lt.gather[e.a + j] = new_of[lt.gather[e.a + j]];
        }
        break;
      case TapeOp::BiasRelu:
        e.a = new_of[e.a];
        e.b = new_of[e.b];
        break;
      case TapeOp::StoreGm:
      case TapeOp::StoreSm:
        if ((e.flags & kTapeMasked) == 0) e.b = new_of[e.b];
        break;
      default:
        break;
    }
    if (tape_op_allocates(e.op)) {
      Group& g = groups[group_of[unit_of[e.dst]]];
      if (e.dst == g.old_base) {  // first member: acquire the group's base
        auto& fl = freelist[g.size];
        if (fl.empty()) {
          g.new_base = next_new;
          next_new += g.size;
        } else {
          g.new_base = fl.back();
          fl.pop_back();
        }
      }
      const u32 nb = g.new_base + (e.dst - g.old_base);
      for (u32 j = 0; j < e.width; ++j) new_of[e.dst + j] = nb + j;
      e.dst = nb;
    }
    for (u32 g = free_head[i]; g != UINT32_MAX; g = free_next[g]) {
      freelist[groups[g].size].push_back(groups[g].new_base);
    }
  }
  lt.n_slots = next_new;
}

}  // namespace kconv::sim
