// Blocked single-precision GEMM kernels on the simulator (Fig. 2).
//
// One parameterized kernel family covers the paper's three contenders:
//  - gemm_cublas_like(): large 96x96 tiles, 6x6 micro-tiles, matched
//    (float2) SM fragments, double-buffered GM staging — a stand-in for the
//    cuBLAS Kepler SGEMM.
//  - gemm_magma_fermi(): the MAGMA Fermi kernel [19] — 64x64 tiles, 4x4
//    micro-tiles, SCALAR (float) SM fragments. Matched on Fermi's 4-byte
//    banks, mismatched on Kepler's 8-byte banks, where each request cycle
//    moves only half the available SM bandwidth.
//  - gemm_magma_mod(): the paper's modification — same kernel, fragments
//    read as float2 so W_CD = W_SMB again.
//
// A tiles are stored transposed in SM (shA[k][m]) with one bank word of
// padding per row to keep the transposing stores conflict-free.
//
// The same tiled body (detail/tiled_gemm.hpp) runs the implicit-GEMM
// convolution, which only re-addresses B and C.
#pragma once

#include <string>

#include "src/common/types.hpp"
#include "src/sim/launch.hpp"
#include "src/tensor/im2col.hpp"

namespace kconv::kernels {

struct GemmConfig {
  i64 bm = 64;  ///< C-tile rows per thread block
  i64 bn = 64;  ///< C-tile columns per thread block
  i64 bk = 16;  ///< K-depth staged per iteration
  i64 tm = 4;   ///< micro-tile rows per thread
  i64 tn = 4;   ///< micro-tile columns per thread
  /// SM fragment width in floats; 0 = match the bank width, 1 = scalar.
  i64 vec_width = 0;
  bool prefetch = true;
  bool pad_a = true;  ///< pad transposed A rows by one bank word
};

/// Register ceilings of the tiled body: the micro-tile extents tm, tn and
/// the elements each thread stages per operand per K-slab.
inline constexpr i64 kGemmMaxMicro = 8;
inline constexpr i64 kGemmMaxStage = 16;

/// The tiling of a blocked SGEMM C = A * B, with A M x Kdim and B
/// Kdim x Ncols. Each block owns a BM x BN C-tile and walks Kdim in BK-deep
/// K-slabs staged through shared memory, A transposed into padded rows and
/// B copied straight. Each thread accumulates a TM x TN micro-tile.
struct GemmTiling {
  i64 M = 0, Ncols = 0, Kdim = 0;              ///< problem extents
  i64 BM = 0, BN = 0, BK = 0, TM = 0, TN = 0;  ///< tile and micro-tile
  bool prefetch = true;  ///< double-buffer K-slabs through registers
  i64 TXg = 0, TYg = 0, nthreads = 0;  ///< block = TXg x TYg threads
  i64 steps = 0;                       ///< ceil(Kdim / BK)
  /// Panel staging splits and their padded per-thread trip counts.
  i64 a_elems = 0, b_elems = 0, a_iters = 0, b_iters = 0;
  i64 stride_a = 0, stride_b = 0;  ///< SM panel strides (floats)
  u32 a_off = 0, b_off = 0, smem_bytes = 0;

  /// Fills the tiling from `cfg` for fragments `n` floats wide (its
  /// vec_width is the caller's to resolve). Returns the first violated
  /// constraint, or "".
  std::string tile(const sim::Arch& arch, i64 m, i64 ncols, i64 kdim,
                   const GemmConfig& cfg, i64 n);

  /// A staged panel element: element `e` of one K-slab's per-thread
  /// staging split, for the tile at C-row m0 or C-column n0.
  /// `any` (it exists) predicates the SM store; `ok` (it also lies
  /// inside the operand) predicates the GM load.
  struct Elem {
    i64 row = 0, col = 0;  ///< its operand coordinates (A: m, k; B: k, n)
    i64 sm = 0;            ///< its SM index (floats) within the panel
    bool any = false;
    bool ok = false;
  };
  Elem a_elem(i64 e, i64 m0, i64 kbase) const {
    const i64 m = (e / BK) % BM, k = e % BK;
    Elem r{m0 + m, kbase + k, k * stride_a + m, e < a_elems, false};
    r.ok = r.any && r.row < M && r.col < Kdim;
    return r;
  }
  Elem b_elem(i64 e, i64 n0, i64 kbase) const {
    const i64 k = (e / BN) % BK, col = e % BN;
    Elem r{kbase + k, n0 + col, k * stride_b + col, e < b_elems, false};
    r.ok = r.any && r.row < Kdim && r.col < Ncols;
    return r;
  }

  /// The launch geometry: one block per C-tile. `extra_regs` is the
  /// caller's addressing overhead on top of the accumulators, fragments
  /// and staging registers.
  sim::LaunchConfig launch_config(const sim::Arch& arch, i64 extra_regs) const;
};

GemmConfig gemm_cublas_like();
GemmConfig gemm_magma_fermi();
GemmConfig gemm_magma_mod();

/// gemm_magma_mod() with its tile fitted to an m x n output (a dense
/// layer's M x 1). Each extent under the 64-wide tile shrinks to its next
/// power of two, at least 2; any shrink drops the micro-tile to 2 x 2 (one
/// float2 fragment a side, so W_CD = W_SMB still holds on 8-byte banks)
/// and bk to what the per-thread staging registers hold. The block count
/// is magma's, and C is bit-identical: each output is still summed by one
/// thread over k in order. For 10 x 1 this is one block of 8 threads
/// (bm=16, bn=2, bk=8) instead of magma's 256 over a 99.8%-padding tile.
/// The dense node of serve::run_graph takes its config from here.
GemmConfig gemm_fitted(i64 m, i64 n);

struct GemmRun {
  sim::LaunchResult launch;
  tensor::Matrix c;
  bool output_valid = false;
};

/// C = A * B on the simulator (row-major host matrices).
GemmRun gemm(sim::Device& dev, const tensor::Matrix& a,
             const tensor::Matrix& b, const GemmConfig& cfg = {},
             const sim::LaunchOptions& opt = {});

}  // namespace kconv::kernels
