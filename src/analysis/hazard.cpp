#include "src/analysis/hazard.hpp"

#include <algorithm>

#include "src/common/error.hpp"

namespace kconv::analysis {

namespace {
/// Ceiling on hazards carried in one AnalysisReport (totals stay exact).
constexpr std::size_t kMaxReportedHazards = 1024;
}  // namespace

// --- GmemWriteMap ----------------------------------------------------------

void GmemWriteMap::begin_block(u64 flat_id, sim::Dim3 block) {
  cur_flat_ = flat_id;
  cur_block_ = block;
  staged_.clear();
}

void GmemWriteMap::note(u64 addr, u32 bytes) {
  if (bytes == 0) return;  // predicated off
  // Lane order usually walks contiguous addresses — extend the last run.
  if (!staged_.empty() && staged_.back().end == addr) {
    staged_.back().end = addr + bytes;
    return;
  }
  staged_.push_back({addr, addr + bytes, cur_flat_, cur_block_});
}

void GmemWriteMap::seal_block() {
  if (staged_.empty()) return;
  std::sort(staged_.begin(), staged_.end(),
            [](const Interval& a, const Interval& b) {
              return a.addr < b.addr || (a.addr == b.addr && a.end < b.end);
            });
  // Merge runs within the block: a block overwriting its own bytes is not
  // a cross-block hazard, and merging keeps the global sweep linear.
  Interval cur = staged_.front();
  for (std::size_t i = 1; i < staged_.size(); ++i) {
    const Interval& nxt = staged_[i];
    if (nxt.addr <= cur.end) {
      cur.end = std::max(cur.end, nxt.end);
    } else {
      sealed_.push_back(cur);
      cur = nxt;
    }
  }
  sealed_.push_back(cur);
  staged_.clear();
}

void GmemWriteMap::append(GmemWriteMap&& o) {
  sealed_.insert(sealed_.end(), o.sealed_.begin(), o.sealed_.end());
  o.sealed_.clear();
}

void GmemWriteMap::detect(std::vector<HazardRecord>& out, u64& overlaps_total,
                          std::size_t cap) {
  if (sealed_.empty()) return;
  // Global order is independent of which chunk produced each interval, so
  // the verdict is deterministic across serial, parallel and fleet
  // launches.
  std::sort(sealed_.begin(), sealed_.end(),
            [](const Interval& a, const Interval& b) {
              if (a.addr != b.addr) return a.addr < b.addr;
              if (a.end != b.end) return a.end < b.end;
              return a.flat < b.flat;
            });
  // Sweep keeping the active interval with the furthest end: every interval
  // overlapping any earlier block's writes is flagged at least once.
  Interval active = sealed_.front();
  for (std::size_t i = 1; i < sealed_.size(); ++i) {
    const Interval& nxt = sealed_[i];
    if (nxt.addr < active.end && nxt.flat != active.flat) {
      ++overlaps_total;
      if (out.size() < cap) {
        HazardRecord r;
        r.kind = HazardKind::GmemBlockOverlap;
        r.block = nxt.block;
        r.other_block = active.block;
        r.addr = nxt.addr;
        r.bytes = std::min(active.end, nxt.end) - nxt.addr;
        r.first.op = sim::Op::StoreGlobal;
        r.second.op = sim::Op::StoreGlobal;
        out.push_back(r);
      }
    }
    if (nxt.end > active.end) active = nxt;
  }
}

// --- BlockChecker ----------------------------------------------------------

BlockChecker::BlockChecker(const sim::LaunchConfig& cfg, u32 warp_size)
    : shadow_(cfg.shared_bytes), grid_(cfg.grid), warp_size_(warp_size) {
  KCONV_ASSERT(warp_size_ > 0);
  // The reader set is a warp bitmask; every supported arch caps blocks at
  // 32 warps (1024 threads, warp size 32).
  KCONV_CHECK(ceil_div(static_cast<i64>(cfg.block.count()),
                       static_cast<i64>(warp_size_)) <= 32,
              "hazard checker supports at most 32 warps per block");
}

u64 BlockChecker::flat_id(sim::Dim3 b) const {
  return b.x + static_cast<u64>(grid_.x) *
                   (b.y + static_cast<u64>(grid_.y) * b.z);
}

void BlockChecker::begin_block(sim::Dim3 block) {
  // Epochs never repeat across blocks, so stale shadow entries can never
  // alias a fresh block — the whole shadow resets in O(1).
  ++epoch_;
  cur_block_ = block;
  block_records_ = 0;
  gm_.begin_block(flat_id(block), block);
}

void BlockChecker::on_barrier() { ++epoch_; }

void BlockChecker::end_block() {
  gm_.seal_block();
  ++blocks_checked_;
}

void BlockChecker::report(HazardKind kind, u64 byte, const sim::Access& a,
                          u32 lane, u32 round, u64 op_index,
                          const HazardOp& first) {
  if (block_records_ >= kMaxRecordsPerBlock ||
      records_.size() >= kMaxRecords) {
    return;
  }
  ++block_records_;
  HazardRecord r;
  r.kind = kind;
  r.block = cur_block_;
  r.addr = byte;
  r.bytes = a.bytes;
  r.epoch = epoch_;
  r.first = first;
  r.second = HazardOp{a.op, lane / warp_size_, lane, round, op_index};
  records_.push_back(r);
}

void BlockChecker::on_access(u32 lane, u32 round, u64 op_index,
                             const sim::Access& a) {
  if (a.bytes == 0) return;  // predicated-off lane: no memory touched
  switch (a.op) {
    case sim::Op::StoreGlobal:
      gm_.note(a.addr, a.bytes);
      return;
    case sim::Op::LoadShared:
    case sim::Op::StoreShared:
      break;
    default:
      return;
  }
  KCONV_ASSERT(a.addr + a.bytes <= shadow_.size());
  const u32 warp = lane / warp_size_;
  const bool is_write = a.op == sim::Op::StoreShared;
  // One report per racing access (the first conflicting byte), but the
  // shadow is updated for the full range so later hazards stay precise.
  bool raced = false;
  for (u64 byte = a.addr; byte < a.addr + a.bytes; ++byte) {
    Shadow& s = shadow_[byte];
    if (!raced && s.write_epoch == epoch_) {
      const u32 w_warp = s.w_lane / warp_size_;
      if (w_warp != warp) {
        report(is_write ? HazardKind::SmemWaw : HazardKind::SmemRaw, byte, a,
               lane, round, op_index,
               HazardOp{s.w_kind, w_warp, s.w_lane, s.w_round, s.w_op});
        raced = true;
      } else if (s.w_round == round && s.w_lane != lane) {
        // Same warp instruction split into divergent subgroups: no
        // ordering edge between the lanes.
        report(HazardKind::SmemIntraWarp, byte, a, lane, round, op_index,
               HazardOp{s.w_kind, w_warp, s.w_lane, s.w_round, s.w_op});
        raced = true;
      }
    }
    if (!raced && is_write && s.read_epoch == epoch_) {
      const u32 other_warps = s.reader_warps & ~(1u << warp);
      const u32 r0_warp = s.r0_lane / warp_size_;
      if (other_warps != 0) {
        // Report a reader from another warp: r0 if it qualifies, else r1
        // (which by construction is from a different warp than r0).
        if (r0_warp != warp) {
          report(HazardKind::SmemWar, byte, a, lane, round, op_index,
                 HazardOp{s.r0_kind, r0_warp, s.r0_lane, s.r0_round,
                          s.r0_op});
        } else {
          report(HazardKind::SmemWar, byte, a, lane, round, op_index,
                 HazardOp{s.r1_kind, s.r1_lane / warp_size_, s.r1_lane,
                          s.r1_round, s.r1_op});
        }
        raced = true;
      } else if (s.r0_round == round && s.r0_lane != lane) {
        report(HazardKind::SmemIntraWarp, byte, a, lane, round, op_index,
               HazardOp{s.r0_kind, r0_warp, s.r0_lane, s.r0_round, s.r0_op});
        raced = true;
      }
    }
    if (is_write) {
      s.write_epoch = epoch_;
      s.w_lane = lane;
      s.w_round = round;
      s.w_op = op_index;
      s.w_kind = a.op;
    } else {
      if (s.read_epoch != epoch_) {
        s.read_epoch = epoch_;
        s.reader_warps = 0;
      }
      if (s.reader_warps != 0 && s.r0_lane / warp_size_ != warp) {
        s.r1_lane = s.r0_lane;
        s.r1_round = s.r0_round;
        s.r1_op = s.r0_op;
        s.r1_kind = s.r0_kind;
      }
      s.r0_lane = lane;
      s.r0_round = round;
      s.r0_op = op_index;
      s.r0_kind = a.op;
      s.reader_warps |= 1u << warp;
    }
  }
  if (raced) ++races_total_;
}

void finalize_hazards(std::vector<BlockChecker*> checkers,
                      AnalysisReport& rep) {
  rep.hazard_checked = true;
  GmemWriteMap all_writes;
  for (BlockChecker* c : checkers) {
    if (c == nullptr) continue;
    rep.blocks_checked += c->blocks_checked();
    rep.races_total += c->races_total();
    for (const HazardRecord& r : c->records()) {
      if (rep.hazards.size() < kMaxReportedHazards) rep.hazards.push_back(r);
    }
    all_writes.append(std::move(c->writes()));
  }
  all_writes.detect(rep.hazards, rep.gm_overlaps_total, kMaxReportedHazards);
}

}  // namespace kconv::analysis
