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
#pragma once

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
