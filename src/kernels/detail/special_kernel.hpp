// Device-side implementation of the paper's Algorithm 1 and its one host
// runner, shared between the fp32 special-case kernel (special_conv.cpp)
// and the short-data-type extension kernels (short_dtype_conv.cpp). Both
// launch a plan from plan_special.
//
// Template parameters: T = storage element (float, f16, i8q), N = elements
// per thread unit (the computation data width the paper matches against the
// SM bank width: N * sizeof(T) == W_SMB in the matched configuration).
// Arithmetic is fp32 regardless of T; loads/stores convert at the edges,
// as a real mixed-precision pipeline would.
//
// Boundary handling uses the simulator's predicated memory operations
// (ld_global_if / st_*_if): inactive lanes keep their slot in the warp
// instruction, exactly like hardware predication, so warps stay in
// lockstep and constant reads stay broadcast at image edges.
#pragma once

#include <algorithm>
#include <concepts>
#include <memory>

#include "src/kernels/special_conv.hpp"
#include "src/sim/sim.hpp"

namespace kconv::kernels::detail {

/// Register-window capacity: K <= 7 and N <= 8 (rounded-up window columns).
inline constexpr i64 kSpecialKernelMaxK = 7;
inline constexpr i64 kSpecialKernelMaxWinCols = 24;

/// Algorithm 1 over its plan (`fused`: the write-back applies
/// max(0, acc + bias[f])); n == N.
template <typename T, int N>
class SpecialKernelT : public SpecialPlan {
 public:
  explicit SpecialKernelT(const SpecialPlan& p) : SpecialPlan(p) {}

  PlanesViewT<T> in;           // (1, Hi, Wi)
  PlanesViewT<T> out;          // (F, Ho, Wo)
  sim::ConstView<float> filt;  // F*K*K, filter-major
  sim::ConstView<float> bias;  // F scalars; read only when fused

  /// Block equivalence class for trace replay (docs/MODEL.md §5b). Lane
  /// predicates here are per-thread constants (main_ok / tail_ok /
  /// write_ok) plus the row count, and because lanes are ordered by column
  /// each predicate is characterized by its count of active lanes. Packing
  /// the exact counts — rather than edge/interior flags — matters: the
  /// tail loads of the second-to-last column can clip at the image edge
  /// too, so "last block" alone would not determine the masks.
  u64 replay_class(sim::Dim3 b) const {
    const auto active = [](i64 base, i64 bound, i64 cap) {
      // Lanes with base + lane*N < bound, lane in [0, cap).
      if (bound <= base) return i64{0};
      return std::min(cap, ceil_div(bound - base, i64{N}));
    };
    const i64 main_n = active(b.x * W, Wi, nthreads);
    const i64 tail_n = active(b.x * W + W, Wi, n_tail);
    const i64 write_n = active(b.x * W, Wo, nthreads);
    const i64 rows = std::min<i64>(H, Ho - static_cast<i64>(b.y) * H);
    return static_cast<u64>(main_n) | (static_cast<u64>(tail_n) << 16) |
           (static_cast<u64>(write_n) << 32) | (static_cast<u64>(rows) << 48);
  }

  /// Per-block buffer anchors for coroutine-free functional replay
  /// (docs/MODEL.md §5b): image accesses are affine in the tile's top-left
  /// pixel, and the constant filter bank is block-independent. Declared for
  /// the fp32 instantiation only — the short-dtype variants convert on
  /// load/store, which the tape's float value slots cannot represent, so
  /// they keep the coroutine fast-forward path.
  void replay_origins(sim::Dim3 b, sim::ReplayOrigins& o) const
      requires std::same_as<T, float>
  {
    const i64 row0 = static_cast<i64>(b.y) * H;
    const i64 col0 = static_cast<i64>(b.x) * W;
    o.add(in.buf, in.idx(0, row0, col0));
    o.add(out.buf, out.idx(0, row0, col0));
    o.add(filt, 0);
    if (fused) o.add(bias, 0);
  }

  sim::ThreadProgram operator()(sim::ThreadCtx& t) const {
    using VecN = Vec<T, N>;
    const i64 tid = t.thread_idx.x;
    const i64 bx = t.block_idx.x;
    const i64 by = t.block_idx.y;
    const i64 row0 = by * H;
    const i64 col0 = bx * W + tid * N;  // leftmost output col of this thread
    const i64 rows = std::min<i64>(H, Ho - row0);
    auto sh = t.shared<T>(sh_off, K * sh_stride);

    // Lane predicates for the cooperative row loads (constant per thread).
    const bool main_ok = col0 < Wi;
    const i64 tail_col = bx * W + W + tid * N;
    const bool tail_ok = tid < n_tail && tail_col < Wi;

    // Register window: K rows x (K+N-1) pixels (padded to whole N-units) —
    // the vertical data-sharing store of §3.1. Converted to fp32 once, on
    // load, so the compute loop is dtype-agnostic.
    float win[kSpecialKernelMaxK][kSpecialKernelMaxWinCols] = {};

    // Algorithm 1, line 1: stage the first K input rows in shared memory.
    // Phase scopes only re-label the accesses for kconv-prof; the access
    // order is exactly the unannotated kernel's.
    for (i64 r = 0; r < K; ++r) {
      const i64 ir = row0 + r;  // always < Hi for a valid convolution
      VecN v{}, v2{};
      {
        sim::ProfilePhase phase(t, profile::Phase::GmLoad);
        v = t.template ld_global_if<VecN>(
            main_ok, in.buf, main_ok ? in.idx(0, ir, col0) : 0);
      }
      {
        sim::ProfilePhase phase(t, profile::Phase::SmemStage);
        t.st_shared_if(main_ok, sh, r * sh_stride + tid * N, v);
      }
      {
        sim::ProfilePhase phase(t, profile::Phase::GmLoad);
        v2 = t.template ld_global_if<VecN>(
            tail_ok, in.buf, tail_ok ? in.idx(0, ir, tail_col) : 0);
      }
      {
        sim::ProfilePhase phase(t, profile::Phase::SmemStage);
        t.st_shared_if(tail_ok, sh, r * sh_stride + W + tid * N, v2);
      }
    }
    co_await t.sync();

    // Line 3: first K-1 rows into the register window.
    {
      sim::ProfilePhase phase(t, profile::Phase::SmemStage);
      for (i64 r = 0; r + 1 < K; ++r) {
        for (i64 i = 0; i < rows_wcols; i += N) {
          VecN v = t.template ld_shared<VecN>(
              sh, r * sh_stride + tid * N + i);
          for (int j = 0; j < N; ++j) win[r][i + j] = static_cast<float>(v[j]);
        }
      }
    }

    // Lines 4-11: one output row per iteration.
    for (i64 rr = 0; rr < rows; ++rr) {
      const i64 orow = row0 + rr;

      // Line 6: latest row from SM into the window's last row.
      const i64 slot = (rr + K - 1) % K;
      {
        sim::ProfilePhase phase(t, profile::Phase::SmemStage);
        for (i64 i = 0; i < rows_wcols; i += N) {
          VecN v = t.template ld_shared<VecN>(
              sh, slot * sh_stride + tid * N + i);
          for (int j = 0; j < N; ++j)
            win[K - 1][i + j] = static_cast<float>(v[j]);
        }
      }

      // Lines 7-8: N convolutions per filter, entirely from registers and
      // broadcast constant reads; results written straight to GM. Lanes
      // stay uniform here (stores are predicated), so every constant read
      // is a single warp broadcast — the best case of §3.3.
      const bool write_ok = col0 < Wo;
      for (i64 f = 0; f < F; ++f) {
        Vec<float, N> acc{};
        {
          sim::ProfilePhase phase(t, profile::Phase::Compute);
          for (i64 dy = 0; dy < K; ++dy) {
            for (i64 dx = 0; dx < K; ++dx) {
              const float wv =
                  t.ld_const(filt, (f * K + dy) * K + dx);
              Vec<float, N> xs;
              for (int j = 0; j < N; ++j) xs[j] = win[dy][dx + j];
              acc = t.fma(xs, wv, acc);
            }
          }
        }
        if (fused) {
          // `fused` is launch-uniform and f is warp-uniform, so the bias
          // read stays a single constant-memory broadcast per filter.
          sim::ProfilePhase phase(t, profile::Phase::Writeback);
          const float bv = t.ld_const(bias, f);
          acc = t.bias_relu(acc, bv);
        }
        VecN sv;
        for (int j = 0; j < N; ++j) sv[j] = T(acc[j]);
        {
          sim::ProfilePhase phase(t, profile::Phase::Writeback);
          t.st_global_if(write_ok, out.buf,
                                  write_ok ? out.idx(f, orow, col0) : 0, sv);
        }
      }

      // Line 5: prefetch the next input row into registers. The paper
      // issues these loads before the compute to overlap their latency; in
      // the simulator that overlap is captured by the timing model's
      // pipe-max combiner, so issue order inside the segment is free.
      const bool pf = rr + 1 < rows;
      const i64 ir = row0 + rr + K;
      VecN pf_main{}, pf_tail{};
      {
        sim::ProfilePhase phase(t, profile::Phase::Prefetch);
        pf_main = t.template ld_global_if<VecN>(
            pf && main_ok, in.buf, pf && main_ok ? in.idx(0, ir, col0) : 0);
        pf_tail = t.template ld_global_if<VecN>(
            pf && tail_ok, in.buf,
            pf && tail_ok ? in.idx(0, ir, tail_col) : 0);
      }
      co_await t.sync();  // line 9

      // Line 10: publish the prefetched row to its SM slot.
      {
        sim::ProfilePhase phase(t, profile::Phase::SmemStage);
        t.st_shared_if(pf && main_ok, sh,
                                (rr % K) * sh_stride + tid * N, pf_main);
        t.st_shared_if(pf && tail_ok, sh,
                                (rr % K) * sh_stride + W + tid * N, pf_tail);
      }
      co_await t.sync();  // line 11

      // Slide the register window down one row.
      for (i64 r = 0; r + 1 < K; ++r) {
        for (i64 i = 0; i < rows_wcols; ++i) win[r][i] = win[r + 1][i];
      }
    }
  }
};

/// The one Algorithm 1 runner behind special_conv (T = float) and
/// short_dtype_conv: uploads, holds `plan` in the kernel and launches
/// through launch_plan. `bias` is the fused epilogue's F floats (empty
/// unless plan.fused); `make_model` is the xray describer, if any.
template <typename T>
KernelRun run_special(sim::Device& dev, const SpecialPlan& plan,
                      const tensor::Tensor& input,
                      const tensor::Tensor& filters,
                      const sim::LaunchOptions& opt,
                      std::span<const float> bias,
                      const std::function<xray::KernelModel()>& make_model) {
  const auto run = [&]<int N>() {
    DevicePlanesT<T> d_in(dev, 1, plan.Hi, plan.Wi);
    d_in.upload(input);
    DevicePlanesT<T> d_out(dev, plan.F, plan.Ho, plan.Wo);
    const auto flat = flatten_filters(filters);
    auto d_filt = dev.alloc_const<float>(flat);
    SpecialKernelT<T, N> k(plan);
    k.in = d_in.view();
    k.out = d_out.view();
    k.filt =
        sim::ConstView<float>(d_filt.get(), 0, static_cast<i64>(flat.size()));
    // The fused bias rides in constant memory next to the filters: f is
    // warp-uniform in the write-back, so each read is a broadcast.
    std::unique_ptr<sim::ConstBuffer> d_bias;
    if (plan.fused) {
      d_bias = dev.alloc_const<float>(bias);
      k.bias = sim::ConstView<float>(d_bias.get(), 0,
                                     static_cast<i64>(bias.size()));
    }
    return launch_plan(dev, k, opt, d_out, make_model);
  };
  switch (plan.n) {
    case 1: return run.template operator()<1>();
    case 2: return run.template operator()<2>();
    case 4: return run.template operator()<4>();
    default: return run.template operator()<8>();
  }
}

}  // namespace kconv::kernels::detail
