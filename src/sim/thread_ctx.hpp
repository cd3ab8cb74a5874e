// ThreadCtx — the device-side programming interface of the simulator.
//
// A kernel body receives `ThreadCtx& t` (its blockIdx/threadIdx plus the
// operations a CUDA thread would have):
//
//   float v = t.ld_global(img, i);           // scalar load
//   vec2f u = t.ld_shared<vec2f>(sh, j);     // matched 8B unit load
//   t.st_global(out, i, t.fma(u[0], w, a));  // FMA is free-running
//   co_await t.sync();                       // __syncthreads()
//
// Every ThreadCtx runs bound to a LaneRecorder (execution and replay) or a
// LaneTapeBuilder (tagging): loads and stores are plain calls that apply
// their functional effect and note one event there — a cursor write into
// the lane's column of its warp's event log — so a lane runs from barrier
// to barrier in one resume. Only sync() suspends and is awaited, so staging
// loops may live in plain helper functions. The executor retires the log's
// rows as warp transactions afterwards (block_exec.cpp).
// Arithmetic only bumps per-lane counters. Vector units (Vec<T,N>) are how a
// kernel matches its computation data width W_CD to the shared-memory bank
// width W_SMB, per the paper's Eq. (1).
#pragma once

#include <algorithm>

#include "src/common/types.hpp"
#include "src/profile/phase.hpp"
#include "src/sim/dim.hpp"
#include "src/sim/memory.hpp"
#include "src/sim/shared.hpp"
#include "src/sim/task.hpp"
#include "src/sim/trace.hpp"

namespace kconv::sim {

class ThreadCtx {
 public:
  // Launch geometry (same names as CUDA built-ins).
  Dim3 block_idx;
  Dim3 thread_idx;
  Dim3 block_dim;
  Dim3 grid_dim;

  /// Flattened thread index within the block (x fastest).
  u32 flat_tid() const {
    return thread_idx.x + block_dim.x * (thread_idx.y + block_dim.y * thread_idx.z);
  }

  // --- Arithmetic (non-suspending; counted for the timing model) -----------

  /// Scalar fused multiply-add: returns a*b + c, charges one FMA lane-op.
  float fma(float a, float b, float c) {
    charge_fma(1);
    if (tape_ != nullptr) [[unlikely]] {
      return LaneTapeBuilder::tag_value(tape_->note_axpy(&a, b, &c, 1));
    }
    return a * b + c;
  }

  /// Vector FMA with a scalar multiplier: out[i] = x[i]*w + acc[i].
  /// Charges N lane-ops — a thread computing n pixels per unit does n times
  /// the arithmetic per instruction, which is exactly the point.
  template <int N>
  Vec<float, N> fma(const Vec<float, N>& x, float w,
                    const Vec<float, N>& acc) {
    charge_fma(N);
    if (tape_ != nullptr) [[unlikely]] {
      return tape_tagged<Vec<float, N>>(
          tape_->note_axpy(&x[0], w, &acc[0], N));
    }
    Vec<float, N> out;
    for (int i = 0; i < N; ++i) out[i] = x[i] * w + acc[i];
    return out;
  }

  /// Elementwise vector FMA: out[i] = x[i]*y[i] + acc[i].
  template <int N>
  Vec<float, N> fma(const Vec<float, N>& x, const Vec<float, N>& y,
                    const Vec<float, N>& acc) {
    charge_fma(N);
    if (tape_ != nullptr) [[unlikely]] {
      return tape_tagged<Vec<float, N>>(
          tape_->note_fma_vec(&x[0], &y[0], &acc[0], N));
    }
    Vec<float, N> out;
    for (int i = 0; i < N; ++i) out[i] = x[i] * y[i] + acc[i];
    return out;
  }

  /// Register-tile FMA over a rows x cols tile:
  ///   acc[i][c] = x[c]*w[i] + acc[i][c]   for i < rows, c < cols
  /// — the WT x FT data-sharing loop of Algorithm 2 (lines 10-15) and the
  /// GEMM micro-tile. Exactly equivalent to calling the vector fma<N> above
  /// on every N-wide slice of every row: it charges the same rows*cols FMA
  /// lane-ops (once, to the current phase), produces bit-identical values,
  /// and in tagging mode issues the same per-slice note_axpy sequence.
  /// `cols` must be a multiple of N; `x` must not alias `acc`.
  template <int N, std::size_t Stride>
  void fma_tile(float (*acc)[Stride], const float* x, const float* w,
                i64 rows, i64 cols) {
    KCONV_ASSERT(cols % N == 0 && cols <= static_cast<i64>(Stride));
    charge_fma(static_cast<u64>(rows * cols));
    if (tape_ != nullptr) [[unlikely]] {
      for (i64 i = 0; i < rows; ++i) {
        for (i64 c = 0; c < cols; c += N) {
          const u32 base = tape_->note_axpy(x + c, w[i], &acc[i][c], N);
          for (int j = 0; j < N; ++j) {
            acc[i][c + j] = LaneTapeBuilder::tag_value(base + j);
          }
        }
      }
      return;
    }
    for (i64 i = 0; i < rows; ++i) {
      const float wi = w[i];
      float* a = acc[i];
      for (i64 c = 0; c < cols; ++c) a[c] = x[c] * wi + a[c];
    }
  }

  /// Fused bias+ReLU epilogue: out = max(0, x + bias). Charges 2 ALU
  /// lane-ops (one add, one clamp — the same cost the standalone
  /// bias_relu kernel charges per element), and is tape-recordable so
  /// fused kernels keep their coroutine-free replay path.
  float bias_relu(float x, float bias) {
    charge_alu(2);
    if (tape_ != nullptr) [[unlikely]] {
      return LaneTapeBuilder::tag_value(tape_->note_bias_relu(&x, bias, 1));
    }
    return std::max(0.0f, x + bias);
  }

  /// Vector fused bias+ReLU: out[i] = max(0, x[i] + bias).
  template <int N>
  Vec<float, N> bias_relu(const Vec<float, N>& x, float bias) {
    charge_alu(2 * N);
    if (tape_ != nullptr) [[unlikely]] {
      return tape_tagged<Vec<float, N>>(tape_->note_bias_relu(&x[0], bias, N));
    }
    Vec<float, N> out;
    for (int i = 0; i < N; ++i) out[i] = std::max(0.0f, x[i] + bias);
    return out;
  }

  /// Charges `n` generic ALU lane-ops (index arithmetic a real kernel would
  /// spend instructions on but that host C++ does for free).
  void alu(u64 n = 1) { charge_alu(n); }

  // --- Global memory ---------------------------------------------------------

  template <typename V, typename T>
  V ld_global(const BufferView<T>& view, i64 idx) {
    charge_alu(1);  // address computation a real kernel spends an IADD on
    const u64 addr = view.addr_of(idx);
    if (tape_ != nullptr) [[unlikely]] {
      return tape_load<V>(view.buffer(), addr, true);
    }
    const V v = view.template read<V>(idx);
    record(Op::LoadGlobal, addr, sizeof(V));
    return v;
  }
  template <typename T>
  T ld_global(const BufferView<T>& view, i64 idx) {
    return ld_global<T, T>(view, idx);
  }

  /// Predicated load: like `pred ? value : V{}` on hardware — the lane
  /// still occupies its slot in the warp instruction (keeping the warp in
  /// lockstep) but an inactive lane touches no memory and costs nothing.
  /// Use at divergence sites (boundary handling) instead of a load under
  /// `if (...)`, which would let lanes drift out of phase.
  template <typename V, typename T>
  V ld_global_if(bool pred, const BufferView<T>& view, i64 idx) {
    if (!pred) {
      if (tape_ != nullptr) [[unlikely]] {
        return tape_load<V>(nullptr, 0, false);
      }
      record(Op::LoadGlobal, 0, 0);
      return V{};
    }
    return ld_global<V, T>(view, idx);
  }
  template <typename T>
  T ld_global_if(bool pred, const BufferView<T>& view, i64 idx) {
    return ld_global_if<T, T>(pred, view, idx);
  }

  template <typename T, typename V>
  void st_global(const BufferView<T>& view, i64 idx, const V& value) {
    charge_alu(1);
    const u64 addr = view.addr_of(idx);
    if (tape_ != nullptr) [[unlikely]] {
      tape_store(value, [&](const float* e, u32 n) {
        tape_->note_store_gm(view.buffer(), addr, e, n, true);
      });
      return;
    }
    view.template write<V>(idx, value);
    record(Op::StoreGlobal, addr, sizeof(V));
  }

  /// Predicated store (see ld_global_if).
  template <typename T, typename V>
  void st_global_if(bool pred, const BufferView<T>& view, i64 idx,
                    const V& value) {
    if (!pred) {
      if (tape_ != nullptr) [[unlikely]] {
        tape_store(value, [&](const float* e, u32 n) {
          tape_->note_store_gm(nullptr, 0, e, n, false);
        });
        return;
      }
      record(Op::StoreGlobal, 0, 0);
      return;
    }
    st_global(view, idx, value);
  }

  // --- Shared memory ----------------------------------------------------------

  /// Materializes a typed view over this block's shared memory.
  template <typename T>
  SharedView<T> shared(u32 byte_off, i64 count) {
    return SharedView<T>(smem_base_, smem_bytes_, byte_off, count);
  }

  template <typename V, typename T>
  V ld_shared(const SharedView<T>& view, i64 idx) {
    charge_alu(1);
    const u64 addr = view.addr_of(idx);
    if (tape_ != nullptr) [[unlikely]] {
      if constexpr (kTapeFloatElems<V>) {
        constexpr u32 n = sizeof(V) / sizeof(float);
        return tape_tagged<V>(tape_->note_load_sm(addr, n));
      } else {
        tape_->unsupported("non-float shared load");
      }
    }
    const V v = view.template read<V>(idx);
    record(Op::LoadShared, addr, sizeof(V));
    return v;
  }
  template <typename T>
  T ld_shared(const SharedView<T>& view, i64 idx) {
    return ld_shared<T, T>(view, idx);
  }

  template <typename T, typename V>
  void st_shared(const SharedView<T>& view, i64 idx, const V& value) {
    charge_alu(1);
    const u64 addr = view.addr_of(idx);
    if (tape_ != nullptr) [[unlikely]] {
      tape_store(value, [&](const float* e, u32 n) {
        tape_->note_store_sm(addr, e, n, true);
      });
      return;
    }
    view.template write<V>(idx, value);
    record(Op::StoreShared, addr, sizeof(V));
  }

  /// Predicated shared store (see ld_global_if).
  template <typename T, typename V>
  void st_shared_if(bool pred, const SharedView<T>& view, i64 idx,
                    const V& value) {
    if (!pred) {
      if (tape_ != nullptr) [[unlikely]] {
        tape_store(value, [&](const float* e, u32 n) {
          tape_->note_store_sm(0, e, n, false);
        });
        return;
      }
      record(Op::StoreShared, 0, 0);
      return;
    }
    st_shared(view, idx, value);
  }

  // --- Constant memory ---------------------------------------------------------

  template <typename V, typename T>
  V ld_const(const ConstView<T>& view, i64 idx) {
    const u64 addr = view.addr_of(idx);
    if (tape_ != nullptr) [[unlikely]] {
      if constexpr (kTapeFloatElems<V>) {
        constexpr u32 n = sizeof(V) / sizeof(float);
        return tape_tagged<V>(tape_->note_load_const(view.buffer(), addr, n));
      } else {
        tape_->unsupported("non-float constant load");
      }
    }
    const V v = view.template read<V>(idx);
    record(Op::LoadConst, addr, sizeof(V));
    return v;
  }
  template <typename T>
  T ld_const(const ConstView<T>& view, i64 idx) {
    return ld_const<T, T>(view, idx);
  }

  // --- Synchronization -----------------------------------------------------------

  /// __syncthreads(): suspends until every live lane of the block arrives.
  /// The barrier is the one suspension point — the executor's segment
  /// boundary — but it is also recorded like any other event so the
  /// congruence hash covers sync placement.
  detail::SyncAwait sync() {
    if (tape_ != nullptr) [[unlikely]] {
      tape_->note_sync();
      return {};
    }
    // Barriers are attributed automatically; kernels never annotate them.
    record_as(Op::Sync, 0, 0, profile::Phase::Sync);
    return {};
  }

  // --- Executor interface ----------------------------------------------------------

  void bind_smem(std::byte* base, u32 bytes) {
    smem_base_ = base;
    smem_bytes_ = bytes;
  }
  /// Execution and replay (MODEL.md §5, §5b): memory ops apply their
  /// functional effect and note one event in `rec`, so a lane runs
  /// barrier-to-barrier in one resume. A lane must have a recorder or a
  /// tape bound before it issues its first memory op or barrier; one with
  /// neither fails that op with kconv::Error.
  void bind_recorder(LaneRecorder* rec) { recorder_ = rec; }
  /// Tagging mode (MODEL.md §5b): while a tape builder is bound, loads
  /// return NaN-boxed value slots, fma records the dataflow, and stores
  /// record which slots leave the block — no functional memory is touched.
  /// As with a recorder, only sync() suspends.
  void bind_tape(LaneTapeBuilder* tape) { tape_ = tape; }
  /// Profiling mode (MODEL.md §7): while a lane profile is bound, fma/alu
  /// charges are additionally attributed to the lane's current phase. The
  /// base counters are maintained either way, so binding one never changes
  /// simulation results.
  void bind_profile(profile::LaneProfile* p) { profile_ = p; }
  u64 fma_ops() const { return fma_ops_; }
  u64 alu_ops() const { return alu_ops_; }

  /// Current phase, stamped into every Access this lane issues. Kernels
  /// set it via ProfilePhase scopes; stamping is unconditional so traces
  /// and hashes are independent of whether profiling is enabled.
  profile::Phase phase() const { return phase_; }
  void set_phase(profile::Phase p) { phase_ = p; }

 private:
  /// Notes one event, stamped with the current phase, in the bound
  /// recorder. The fields travel in registers: building an Access on the
  /// stack and copying it onward stalls on store forwarding in this path.
  /// No null check: an unbound lane's recorder is LaneRecorder::unbound,
  /// whose first note fails.
  void record(Op op, u64 addr, u32 bytes) {
    record_as(op, addr, bytes, phase_);
  }
  void record_as(Op op, u64 addr, u32 bytes, profile::Phase phase) {
    recorder_->note(op, addr, bytes, phase);
  }

  /// A value of type V whose float elements are the tags of `width`
  /// consecutive slots starting at `base`.
  template <typename V>
  V tape_tagged(u32 base) {
    static_assert(kTapeFloatElems<V>);
    if constexpr (std::is_same_v<V, float>) {
      return LaneTapeBuilder::tag_value(base);
    } else {
      V out;
      for (u32 i = 0; i < sizeof(V) / sizeof(float); ++i) {
        out[static_cast<int>(i)] = LaneTapeBuilder::tag_value(base + i);
      }
      return out;
    }
  }

  /// Tag-mode global load: records the entry, returns fresh tags.
  template <typename V>
  V tape_load(const DeviceBuffer* buf, u64 addr, bool pred) {
    if constexpr (kTapeFloatElems<V>) {
      constexpr u32 n = sizeof(V) / sizeof(float);
      return tape_tagged<V>(tape_->note_load_gm(buf, addr, n, pred));
    } else {
      tape_->unsupported("non-float global load");
    }
  }

  /// Tag-mode store: decomposes V into float elements and hands them to the
  /// builder (which resolves each element's slot).
  template <typename V, typename F>
  void tape_store(const V& value, F&& note) {
    if constexpr (kTapeFloatElems<V>) {
      constexpr u32 n = sizeof(V) / sizeof(float);
      if constexpr (std::is_same_v<V, float>) {
        note(&value, n);
      } else {
        note(&value[0], n);
      }
    } else {
      tape_->unsupported("non-float store");
    }
  }

  void charge_fma(u64 n) {
    fma_ops_ += n;
    if (profile_ != nullptr) [[unlikely]] {
      profile_->fma[profile::phase_index(phase_)] += n;
    }
  }
  void charge_alu(u64 n) {
    alu_ops_ += n;
    if (profile_ != nullptr) [[unlikely]] {
      profile_->alu[profile::phase_index(phase_)] += n;
    }
  }

  std::byte* smem_base_ = nullptr;
  u32 smem_bytes_ = 0;
  u64 fma_ops_ = 0;
  u64 alu_ops_ = 0;
  // Unbound lanes note into a recorder that fails their first op.
  LaneRecorder* recorder_ = &LaneRecorder::unbound;
  LaneTapeBuilder* tape_ = nullptr;
  profile::LaneProfile* profile_ = nullptr;
  profile::Phase phase_ = profile::Phase::Other;
};

/// RAII phase scope (MODEL.md §7): tags everything the lane does while the
/// scope is alive — loads, stores, fma/alu — with `p`, restoring the
/// enclosing phase on exit. Nesting works (inner scope wins); barriers are
/// always attributed to Phase::Sync regardless of the open scope.
class ProfilePhase {
 public:
  ProfilePhase(ThreadCtx& t, profile::Phase p) : t_(&t), prev_(t.phase()) {
    t.set_phase(p);
  }
  ~ProfilePhase() { t_->set_phase(prev_); }
  ProfilePhase(const ProfilePhase&) = delete;
  ProfilePhase& operator=(const ProfilePhase&) = delete;

 private:
  ThreadCtx* t_;
  profile::Phase prev_;
};

}  // namespace kconv::sim
