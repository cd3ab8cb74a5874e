// Memory / synchronization events published by device threads.
//
// Every memory operation and barrier of a device-thread coroutine records
// one Access in the lane's recorder. The BlockExecutor groups the per-lane
// Accesses of a warp into a single warp transaction and feeds it to the
// space-specific analyzer (bank model, coalescing model, constant broadcast
// model).
#pragma once

#include "src/common/types.hpp"
#include "src/profile/phase.hpp"

namespace kconv::sim {

/// Operation kinds a lane records.
enum class Op : u8 {
  LoadGlobal,
  StoreGlobal,
  LoadShared,
  StoreShared,
  LoadConst,
  Sync,
};

constexpr const char* op_name(Op op) {
  switch (op) {
    case Op::LoadGlobal: return "ld.global";
    case Op::StoreGlobal: return "st.global";
    case Op::LoadShared: return "ld.shared";
    case Op::StoreShared: return "st.shared";
    case Op::LoadConst: return "ld.const";
    case Op::Sync: return "sync";
  }
  return "?";
}

constexpr bool is_smem(Op op) {
  return op == Op::LoadShared || op == Op::StoreShared;
}
constexpr bool is_gmem(Op op) {
  return op == Op::LoadGlobal || op == Op::StoreGlobal;
}

/// One lane's contribution to a warp transaction.
///
/// `addr` is a byte address: flat device address for global/constant space,
/// block-local byte offset for shared space. `bytes` is the full width of
/// the lane's access unit (e.g. 8 for a float2 — vector accesses are the
/// paper's mechanism for matching W_CD to W_SMB).
///
/// 16 bytes on purpose: the executor writes one per lane per memory op and
/// retires them a warp row at a time (docs/MODEL.md §5). The constructor
/// keeps the `Access{op, addr, bytes[, phase]}` spelling.
struct Access {
  u64 addr = 0;
  u32 bytes = 0;
  Op op = Op::Sync;
  /// Kernel phase the issuing lane was in (kconv-prof, docs/MODEL.md §7).
  /// Always stamped by ThreadCtx — Phase::Other unless the kernel opened a
  /// ProfilePhase scope — so execution never branches on profiling state.
  profile::Phase phase = profile::Phase::Other;

  constexpr Access() = default;
  constexpr Access(Op op_, u64 addr_, u32 bytes_,
                   profile::Phase phase_ = profile::Phase::Other)
      : addr(addr_), bytes(bytes_), op(op_), phase(phase_) {}
};
static_assert(sizeof(Access) == 16);

}  // namespace kconv::sim
