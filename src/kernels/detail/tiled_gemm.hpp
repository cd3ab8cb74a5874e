// Device-side body of the tiled SGEMM that both gemm() (gemm_kernels.cpp)
// and the implicit-GEMM convolution (implicit_gemm_conv.cpp) run. maxDNN
// builds its convolution the same way, by re-addressing one GEMM kernel's
// B operand.
//
// `Ops` derives from GemmTiling and says where the operands live:
//
//   float load_a(sim::ThreadCtx&, const GemmTiling::Elem&) const;
//   float load_b(sim::ThreadCtx&, const GemmTiling::Elem&) const;
//   void store_c(sim::ThreadCtx&, bool ok, i64 row, i64 col, float v) const;
//
// Each is one predicated memory op plus whatever ALU work its addressing
// costs. Everything else, the staging decodes, the double buffering, the
// fragment loads and the micro-tile FMAs, is written once here.
#pragma once

#include "src/kernels/gemm_kernels.hpp"
#include "src/sim/sim.hpp"

namespace kconv::kernels::detail {

/// The tiled GEMM over `Ops`' tiling and addressing; fragments are N
/// floats wide.
template <int N, typename Ops>
class TiledGemm : public Ops {
 public:
  explicit TiledGemm(const Ops& ops) : Ops(ops) {}

  /// One lane's GM->SM staging of both panels over the tiling's decodes.
  /// `stage(k)` loads the K-slab at depth k and stores it to SM: the
  /// initial fill and, without prefetch, each reload. `fetch(k)` only loads
  /// it into registers and `publish()` stores those registers. Out-of-range
  /// elements stage zeros so the accumulate loop needs no predicates.
  /// kconv-prof scopes re-label accesses only; issue order is untouched.
  struct Stager {
    const TiledGemm& k;
    sim::ThreadCtx& t;
    i64 tid, m0, n0;
    sim::SharedView<float> sh_a, sh_b;
    float pf_a[kGemmMaxStage] = {}, pf_b[kGemmMaxStage] = {};

    GemmTiling::Elem a(i64 it, i64 kbase) const {
      return k.a_elem(tid + it * k.nthreads, m0, kbase);
    }
    GemmTiling::Elem b(i64 it, i64 kbase) const {
      return k.b_elem(tid + it * k.nthreads, n0, kbase);
    }

    void stage(i64 kbase) {
      for (i64 it = 0; it < k.a_iters; ++it) {
        const GemmTiling::Elem e = a(it, kbase);
        float v = 0.0f;
        {
          sim::ProfilePhase phase(t, profile::Phase::GmLoad);
          v = k.load_a(t, e);
        }
        sim::ProfilePhase phase(t, profile::Phase::SmemStage);
        t.st_shared_if(e.any, sh_a, e.sm, v);
      }
      for (i64 it = 0; it < k.b_iters; ++it) {
        const GemmTiling::Elem e = b(it, kbase);
        float v = 0.0f;
        {
          sim::ProfilePhase phase(t, profile::Phase::GmLoad);
          v = k.load_b(t, e);
        }
        sim::ProfilePhase phase(t, profile::Phase::SmemStage);
        t.st_shared_if(e.any, sh_b, e.sm, v);
      }
    }
    void fetch(i64 kbase) {
      sim::ProfilePhase phase(t, profile::Phase::Prefetch);
      for (i64 it = 0; it < k.a_iters; ++it) {
        pf_a[it] = k.load_a(t, a(it, kbase));
      }
      for (i64 it = 0; it < k.b_iters; ++it) {
        pf_b[it] = k.load_b(t, b(it, kbase));
      }
    }
    void publish() {
      sim::ProfilePhase phase(t, profile::Phase::SmemStage);
      for (i64 it = 0; it < k.a_iters; ++it) {
        const GemmTiling::Elem e = a(it, 0);
        t.st_shared_if(e.any, sh_a, e.sm, pf_a[it]);
      }
      for (i64 it = 0; it < k.b_iters; ++it) {
        const GemmTiling::Elem e = b(it, 0);
        t.st_shared_if(e.any, sh_b, e.sm, pf_b[it]);
      }
    }
  };

  sim::ThreadProgram operator()(sim::ThreadCtx& t) const {
    using VecN = Vec<float, N>;
    const i64 tx = t.thread_idx.x;
    const i64 ty = t.thread_idx.y;
    const i64 m0 = t.block_idx.y * this->BM;
    const i64 n0 = t.block_idx.x * this->BN;
    const i64 BK = this->BK, TM = this->TM, TN = this->TN;
    const i64 TXg = this->TXg, TYg = this->TYg;
    const i64 stride_a = this->stride_a, stride_b = this->stride_b;

    auto sh_a = t.shared<float>(this->a_off, BK * stride_a);
    auto sh_b = t.shared<float>(this->b_off, BK * stride_b);
    Stager st{*this, t, tx + TXg * ty, m0, n0, sh_a, sh_b};

    float acc[kGemmMaxMicro][kGemmMaxMicro] = {};
    float fa[kGemmMaxMicro], fb[kGemmMaxMicro];

    st.stage(0);
    co_await t.sync();

    for (i64 s = 0; s < this->steps; ++s) {
      const i64 kb = s * BK;
      const bool has_next = s + 1 < this->steps;

      if (this->prefetch && has_next) st.fetch(kb + BK);

      // The rank-BK update: per k, TM/N + TN/N fragment loads feed TM*TN
      // FMAs. Fragment rows/cols are strided by the thread grid so that
      // contiguous threads touch contiguous N-wide units (conflict-free,
      // and full bank bandwidth exactly when N matches the bank width).
      {
        sim::ProfilePhase phase(t, profile::Phase::Compute);
        for (i64 k = 0; k < BK; ++k) {
          for (i64 u = 0; u * N < TM; ++u) {
            VecN v = t.template ld_shared<VecN>(
                sh_a, k * stride_a + (ty + u * TYg) * N);
            for (int jj = 0; jj < N; ++jj) fa[u * N + jj] = v[jj];
          }
          for (i64 u = 0; u * N < TN; ++u) {
            VecN v = t.template ld_shared<VecN>(
                sh_b, k * stride_b + (tx + u * TXg) * N);
            for (int jj = 0; jj < N; ++jj) fb[u * N + jj] = v[jj];
          }
          t.template fma_tile<N>(acc, fb, fa, TM, TN);
        }
      }
      co_await t.sync();

      if (has_next) {
        if (this->prefetch) {
          st.publish();
        } else {
          st.stage(kb + BK);
        }
      }
      co_await t.sync();
    }

    // Write the micro-tile back (strided fragment layout).
    sim::ProfilePhase phase(t, profile::Phase::Writeback);
    for (i64 i = 0; i < TM; ++i) {
      const i64 row = m0 + (ty + (i / N) * TYg) * N + (i % N);
      for (i64 j = 0; j < TN; ++j) {
        const i64 col = n0 + (tx + (j / N) * TXg) * N + (j % N);
        this->store_c(t, row < this->M && col < this->Ncols, row, col,
                      acc[i][j]);
      }
    }
  }
};

}  // namespace kconv::kernels::detail
