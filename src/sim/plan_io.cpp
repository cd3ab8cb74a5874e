#include "src/sim/plan_io.hpp"

#include <cstring>
#include <type_traits>

#include "src/common/strutil.hpp"

namespace kconv::sim {

namespace {

// Every count read from the payload is sanity-capped against the bytes
// actually remaining, so a corrupted length can at worst fail a read — it
// can never drive a multi-gigabyte resize before the reader notices.
bool fits(const PlanReader& r, u64 n, u64 elem_bytes) {
  return n <= r.remaining() / (elem_bytes == 0 ? 1 : elem_bytes);
}

// The bulk vectors (tape entries, transaction lane lists, congruence
// hashes) dominate a plan payload; element-wise put/get loops were the
// serialization bottleneck, so they move as single memcpys. The byte
// layout equals the element-wise little-endian stream for these types
// (packed fields, natural alignment), asserted where it matters.
template <typename T>
void save_vec(PlanWriter& w, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  w.put_u64(v.size());
  w.raw(v.data(), v.size() * sizeof(T));
}

template <typename T>
bool load_vec(PlanReader& r, std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const u64 n = r.get_u64();
  if (!r.ok() || !fits(r, n, sizeof(T))) return false;
  v.resize(n);
  return n == 0 || r.raw(v.data(), n * sizeof(T));
}

void save_trace(PlanWriter& w, const BlockTrace& t) {
  save_stats(w, t.invariant);
  save_stats(w, t.compute);
  for (const Counter<KernelStats>& c : kKernelCounters) {
    if (address_dependent(c.cls)) w.put_u64(t.addr_dep.*c.member);
  }
  w.put_u64(t.txs.size());
  for (const ReplayTx& tx : t.txs) {
    w.put_u8(static_cast<u8>(tx.op));
    w.put_u32(tx.lane_begin);
    w.put_u32(tx.lane_count);
  }
  save_vec(w, t.tx_lanes);
  save_vec(w, t.lane_hash);
  save_vec(w, t.lane_events);
  w.put_u32(t.captured_block.x);
  w.put_u32(t.captured_block.y);
  w.put_u32(t.captured_block.z);
}

bool load_trace(PlanReader& r, u64 n_lanes, BlockTrace& t) {
  load_stats(r, t.invariant);
  load_stats(r, t.compute);
  for (const Counter<KernelStats>& c : kKernelCounters) {
    if (address_dependent(c.cls)) t.addr_dep.*c.member = r.get_u64();
  }
  const u64 n_txs = r.get_u64();
  if (!r.ok() || !fits(r, n_txs, 9)) return false;
  t.txs.resize(n_txs);
  for (ReplayTx& tx : t.txs) {
    const u8 op = r.get_u8();
    if (op != static_cast<u8>(Op::LoadGlobal) &&
        op != static_cast<u8>(Op::StoreGlobal) &&
        op != static_cast<u8>(Op::LoadConst)) {
      return false;
    }
    tx.op = static_cast<Op>(op);
    tx.lane_begin = r.get_u32();
    tx.lane_count = r.get_u32();
  }
  if (!load_vec(r, t.tx_lanes)) return false;
  for (const u32 l : t.tx_lanes) {
    if (l >= n_lanes) return false;
  }
  for (const ReplayTx& tx : t.txs) {
    if (tx.lane_count == 0 ||
        static_cast<u64>(tx.lane_begin) + tx.lane_count > t.tx_lanes.size()) {
      return false;
    }
  }
  if (!load_vec(r, t.lane_hash) || t.lane_hash.size() != n_lanes) {
    return false;
  }
  if (!load_vec(r, t.lane_events) || t.lane_events.size() != n_lanes) {
    return false;
  }
  t.captured_block.x = r.get_u32();
  t.captured_block.y = r.get_u32();
  t.captured_block.z = r.get_u32();
  return r.ok();
}

// A TapeEntry's in-memory layout (packed u8/u8/u16/u32/u32/u32/i32, natural
// alignment, no padding) is byte-identical to its field-by-field
// little-endian stream, so whole entry vectors move as one memcpy.
static_assert(sizeof(TapeEntry) == 20);
static_assert(std::is_trivially_copyable_v<TapeEntry>);

// Tape entries dominate the sidecar payload (and therefore the warm
// launch's read+checksum+parse bill), and almost all of their 32-bit slot
// fields hold small values: a lane whose widths fit a byte and whose slot
// indices fit 16 bits stores 12 bytes per entry instead of 20. `rel` stays
// full-width (global-memory entries hold anchor-relative byte offsets).
// The raw layout remains as a per-lane fallback, so packing is purely a
// size optimization — never a capture constraint.
constexpr u8 kLanePacked = 0;
constexpr u8 kLaneRaw = 1;
constexpr u8 kPackedMaskBit = 0x80;
constexpr std::size_t kPackedEntryBytes = 12;

bool lane_packable(const LaneTape& lt) {
  for (const TapeEntry& e : lt.entries) {
    if (e.width > 0xFF || e.dst > 0xFFFF || e.a > 0xFFFF || e.b > 0xFFFF ||
        (e.flags & ~kTapeMasked) != 0 ||
        static_cast<u8>(e.op) >= kPackedMaskBit) {
      return false;
    }
  }
  return true;
}

void save_entries(PlanWriter& w, const LaneTape& lt) {
  if (!lane_packable(lt)) {
    w.put_u8(kLaneRaw);
    save_vec(w, lt.entries);
    return;
  }
  w.put_u8(kLanePacked);
  w.put_u64(lt.entries.size());
  std::string buf(lt.entries.size() * kPackedEntryBytes, '\0');
  char* p = buf.data();
  for (const TapeEntry& e : lt.entries) {
    const u8 op = static_cast<u8>(static_cast<u8>(e.op) |
                                  (e.flags != 0 ? kPackedMaskBit : 0));
    const u8 width = static_cast<u8>(e.width);
    const u16 dst = static_cast<u16>(e.dst);
    const u16 a = static_cast<u16>(e.a);
    const u16 b = static_cast<u16>(e.b);
    std::memcpy(p, &op, 1);
    std::memcpy(p + 1, &width, 1);
    std::memcpy(p + 2, &dst, 2);
    std::memcpy(p + 4, &a, 2);
    std::memcpy(p + 6, &b, 2);
    std::memcpy(p + 8, &e.rel, 4);
    p += kPackedEntryBytes;
  }
  w.raw(buf.data(), buf.size());
}

bool load_entries(PlanReader& r, LaneTape& lt) {
  const u8 mode = r.get_u8();
  if (!r.ok()) return false;
  if (mode == kLaneRaw) return load_vec(r, lt.entries);
  if (mode != kLanePacked) return false;
  const u64 n = r.get_u64();
  if (!r.ok() || !fits(r, n, kPackedEntryBytes)) return false;
  lt.entries.resize(n);
  const char* p = r.view(n * kPackedEntryBytes);
  if (p == nullptr) return false;
  for (TapeEntry& e : lt.entries) {
    u8 op, width;
    u16 dst, a, b;
    std::memcpy(&op, p, 1);
    std::memcpy(&width, p + 1, 1);
    std::memcpy(&dst, p + 2, 2);
    std::memcpy(&a, p + 4, 2);
    std::memcpy(&b, p + 6, 2);
    std::memcpy(&e.rel, p + 8, 4);
    e.op = static_cast<TapeOp>(op & ~kPackedMaskBit);
    e.flags = (op & kPackedMaskBit) != 0 ? kTapeMasked : 0;
    e.width = width;
    e.dst = dst;
    e.a = a;
    e.b = b;
    p += kPackedEntryBytes;
  }
  return true;
}

void save_tape(PlanWriter& w, const FuncTape& tape) {
  w.put_u64(tape.lanes.size());
  for (const LaneTape& lt : tape.lanes) {
    save_entries(w, lt);
    save_vec(w, lt.gather);
    w.put_u32(lt.n_slots);
  }
  for (u32 i = 0; i < ReplayOrigins::kMaxOrigins; ++i) {
    const FuncTape::OriginSpan& sp = tape.spans[i];
    w.put_i64(sp.min_rel);
    w.put_i64(sp.max_rel_end);
    w.put_u32(sp.widths);
    w.put_u8(sp.used ? 1 : 0);
    w.put_u8(sp.has_store ? 1 : 0);
  }
  w.put_u32(tape.max_slots);
}

/// Per-entry slot/offset validation mirroring what capture guarantees by
/// construction, so the unchecked batched interpreter can trust a loaded
/// tape exactly as far as it trusts a captured one.
bool tape_entry_valid(const TapeEntry& e, const LaneTape& lt,
                      u32 shared_bytes) {
  const u64 slots = lt.n_slots;
  const u64 dst_end = static_cast<u64>(e.dst) + e.width;
  const bool masked = (e.flags & kTapeMasked) != 0;
  switch (e.op) {
    case TapeOp::LoadGm:
    case TapeOp::LoadConst:
      return e.a < ReplayOrigins::kMaxOrigins && dst_end <= slots;
    case TapeOp::StoreGm:
      return e.a < ReplayOrigins::kMaxOrigins &&
             static_cast<u64>(e.b) + e.width <= slots;
    case TapeOp::LoadSm:
      return dst_end <= slots &&
             (masked || (e.rel >= 0 && static_cast<u64>(e.rel) +
                                               4ull * e.width <=
                                           shared_bytes));
    case TapeOp::StoreSm:
      return static_cast<u64>(e.b) + e.width <= slots &&
             (masked || (e.rel >= 0 && static_cast<u64>(e.rel) +
                                               4ull * e.width <=
                                           shared_bytes));
    case TapeOp::LoadLit:
      return dst_end <= slots;
    case TapeOp::Axpy:
      return dst_end <= slots && e.a < slots &&
             static_cast<u64>(e.b) + e.width <= slots &&
             static_cast<u64>(static_cast<u32>(e.rel)) + e.width <= slots;
    case TapeOp::FmaVec:
      return dst_end <= slots && static_cast<u64>(e.a) + e.width <= slots &&
             static_cast<u64>(e.b) + e.width <= slots &&
             static_cast<u64>(static_cast<u32>(e.rel)) + e.width <= slots;
    case TapeOp::Gather:
      return dst_end <= slots &&
             static_cast<u64>(e.a) + e.width <= lt.gather.size();
    case TapeOp::BiasRelu:
      return dst_end <= slots && static_cast<u64>(e.a) + e.width <= slots &&
             e.b < slots;
    case TapeOp::Sync:
      return true;
  }
  return false;
}

bool load_tape(PlanReader& r, u64 n_lanes, u32 shared_bytes, FuncTape& tape) {
  const u64 n_tapes = r.get_u64();
  if (!r.ok() || n_tapes != n_lanes) return false;
  tape.lanes.resize(n_tapes);
  for (LaneTape& lt : tape.lanes) {
    if (!load_entries(r, lt)) return false;
    if (!load_vec(r, lt.gather)) return false;
    lt.n_slots = r.get_u32();
    if (!r.ok() || lt.n_slots > LaneTapeBuilder::kMaxSlots) return false;
    for (const u32 g : lt.gather) {
      if (g >= lt.n_slots) return false;
    }
    for (const TapeEntry& e : lt.entries) {
      if (static_cast<u8>(e.op) > static_cast<u8>(TapeOp::BiasRelu)) {
        return false;
      }
      if (!tape_entry_valid(e, lt, shared_bytes)) return false;
    }
  }
  for (u32 i = 0; i < ReplayOrigins::kMaxOrigins; ++i) {
    FuncTape::OriginSpan& sp = tape.spans[i];
    sp.min_rel = r.get_i64();
    sp.max_rel_end = r.get_i64();
    sp.widths = r.get_u32();
    sp.used = r.get_u8() != 0;
    sp.has_store = r.get_u8() != 0;
  }
  tape.max_slots = r.get_u32();
  if (!r.ok() || tape.max_slots > LaneTapeBuilder::kMaxSlots) return false;
  for (const LaneTape& lt : tape.lanes) {
    if (lt.n_slots > tape.max_slots) return false;
  }
  return true;
}

}  // namespace

void save_stats(PlanWriter& w, const KernelStats& s) {
  for (const Counter<KernelStats>& c : kKernelCounters) w.put_u64(s.*c.member);
}

void load_stats(PlanReader& r, KernelStats& s) {
  for (const Counter<KernelStats>& c : kKernelCounters) {
    s.*c.member = r.get_u64();
  }
}

std::string arch_fingerprint(const Arch& arch) {
  // Exactly the parameters that shape what a capture records: warp/bank/
  // sector geometry, cache shapes and line sizes. Clock/bandwidth numbers
  // only scale the timing estimate and deliberately stay out.
  return strf("%s/w%u/b%ux%u/sec%u/cl%u/cc%u/l2%u", arch.name.c_str(),
              arch.warp_size, arch.smem_banks, arch.smem_bank_bytes,
              arch.gm_sector_bytes, arch.const_line_bytes,
              arch.const_cache_per_sm, arch.l2_capacity);
}

std::string plan_store_key(std::string_view kernel_key, const Arch& arch,
                           const LaunchConfig& cfg, TraceLevel level) {
  return strf("%.*s|%s|grid=%ux%ux%u|block=%ux%ux%u|smem=%u|regs=%u|%s",
              static_cast<int>(kernel_key.size()), kernel_key.data(),
              arch_fingerprint(arch).c_str(), cfg.grid.x, cfg.grid.y,
              cfg.grid.z, cfg.block.x, cfg.block.y, cfg.block.z,
              cfg.shared_bytes, cfg.regs_per_thread,
              level == TraceLevel::Timing ? "timing" : "functional");
}

std::string plan_tape_key(const std::string& store_key) {
  return store_key + "|tapes";
}

std::string serialize_plan(const LaunchPlan& plan) {
  PlanWriter w;
  w.put_str(plan.arch);
  w.put_u8(plan.trace_level);
  w.put_u32(plan.cfg.grid.x);
  w.put_u32(plan.cfg.grid.y);
  w.put_u32(plan.cfg.grid.z);
  w.put_u32(plan.cfg.block.x);
  w.put_u32(plan.cfg.block.y);
  w.put_u32(plan.cfg.block.z);
  w.put_u32(plan.cfg.shared_bytes);
  w.put_u32(plan.cfg.regs_per_thread);
  w.put_u64(plan.static_signature);
  w.put_u64(plan.classes.size());
  for (const PlanClass& pc : plan.classes) {
    w.put_u64(pc.id);
    save_trace(w, pc.trace);
  }
  w.put_str(plan.pattern_blob);
  return w.take();
}

bool deserialize_plan(std::string_view payload, LaunchPlan& out,
                      std::string* why) {
  const auto fail = [&](const char* reason) {
    out = LaunchPlan{};
    if (why != nullptr) *why = reason;
    return false;
  };
  PlanReader r(payload);
  out = LaunchPlan{};
  out.arch = r.get_str();
  out.trace_level = r.get_u8();
  out.cfg.grid.x = r.get_u32();
  out.cfg.grid.y = r.get_u32();
  out.cfg.grid.z = r.get_u32();
  out.cfg.block.x = r.get_u32();
  out.cfg.block.y = r.get_u32();
  out.cfg.block.z = r.get_u32();
  out.cfg.shared_bytes = r.get_u32();
  out.cfg.regs_per_thread = r.get_u32();
  out.static_signature = r.get_u64();
  if (!r.ok() || out.cfg.block.count() == 0 ||
      out.cfg.block.count() > (1u << 20)) {
    return fail("corrupt-payload");
  }
  const u64 n_lanes = out.cfg.block.count();
  const u64 n_classes = r.get_u64();
  if (!r.ok() || !fits(r, n_classes, 8)) return fail("corrupt-payload");
  out.classes.resize(n_classes);
  for (PlanClass& pc : out.classes) {
    pc.id = r.get_u64();
    if (!load_trace(r, n_lanes, pc.trace)) return fail("corrupt-payload");
  }
  out.pattern_blob = r.get_str();
  if (!r.at_end()) return fail("corrupt-payload");
  return true;
}

std::string serialize_tapes(const LaunchPlan& plan) {
  u64 n = 0;
  for (const PlanClass& pc : plan.classes) n += pc.has_tape ? 1 : 0;
  if (n == 0) return {};
  PlanWriter w;
  w.put_u64(n);
  for (const PlanClass& pc : plan.classes) {
    if (!pc.has_tape) continue;
    w.put_u64(pc.id);
    w.put_u8(pc.validated ? 1 : 0);
    save_tape(w, pc.tape);
  }
  return w.take();
}

bool deserialize_tapes(std::string_view payload, LaunchPlan& plan,
                       std::string* why) {
  const auto fail = [&](const char* reason) {
    for (PlanClass& pc : plan.classes) {
      pc.tape = FuncTape{};
      pc.has_tape = false;
      pc.validated = false;
    }
    if (why != nullptr) *why = reason;
    return false;
  };
  const u64 n_lanes = plan.cfg.block.count();
  PlanReader r(payload);
  const u64 n = r.get_u64();
  if (!r.ok() || n > plan.classes.size()) return fail("corrupt-tapes");
  for (u64 i = 0; i < n; ++i) {
    const u64 id = r.get_u64();
    const bool validated = r.get_u8() != 0;
    PlanClass* pc = nullptr;
    for (PlanClass& cand : plan.classes) {
      if (cand.id == id) {
        pc = &cand;
        break;
      }
    }
    // A tape for a class the plan does not know is a cross-write between
    // store entries; nothing in this sidecar is trustworthy.
    if (pc == nullptr || pc->has_tape) return fail("stale-tapes");
    if (!load_tape(r, n_lanes, plan.cfg.shared_bytes, pc->tape)) {
      return fail("corrupt-tapes");
    }
    pc->has_tape = true;
    pc->validated = validated;
  }
  if (!r.at_end()) return fail("corrupt-tapes");
  if (why != nullptr) *why = "hit";
  return true;
}

bool plan_matches(const LaunchPlan& plan, const Arch& arch,
                  const LaunchConfig& cfg, TraceLevel level,
                  std::string* why) {
  const auto fail = [&](const char* reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  if (plan.arch != arch_fingerprint(arch)) return fail("stale-arch");
  if (plan.trace_level != static_cast<u8>(level)) return fail("stale-trace-level");
  if (plan.cfg.grid.x != cfg.grid.x || plan.cfg.grid.y != cfg.grid.y ||
      plan.cfg.grid.z != cfg.grid.z || plan.cfg.block.x != cfg.block.x ||
      plan.cfg.block.y != cfg.block.y || plan.cfg.block.z != cfg.block.z ||
      plan.cfg.shared_bytes != cfg.shared_bytes) {
    return fail("stale-config");
  }
  return true;
}

}  // namespace kconv::sim
