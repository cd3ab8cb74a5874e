// Winograd F(2x2, 3x3) convolution on the simulator — the fast-algorithm
// alternative the paper's related work discusses ([15, 16]): 36/16 = 2.25x
// fewer multiplications per output than direct convolution, at the cost of
// a transformed-domain workspace and filter-size-specific processing.
//
// Pipeline (three device stages, like cuDNN's WINOGRAD algo):
//   1. input transform:  V[tap][c][tile]  = (B^T d B) per 4x4 tile
//   2. 16 batched GEMMs: M[tap] = U[tap] (F x C) * V[tap] (C x tiles)
//      (U is the host-side filter transform, uploaded once)
//   3. output transform: Y = A^T M A, scattered to the output planes
//
// Included to complete the algorithm landscape the paper positions itself
// in; bench_ext_winograd compares it against the paper's direct kernel.
#pragma once

#include "src/kernels/gemm_kernels.hpp"
#include "src/kernels/kernel_run.hpp"
#include "src/sim/launch.hpp"

namespace kconv::kernels {

/// GEMM tiling adapted to Winograd's tap matrices: M = F is often small,
/// so the default 96x96 tile would drown in padding; this shrinks the
/// M-tile to fit.
GemmConfig winograd_gemm_config(i64 f);

/// input (1, C, Hi, Wi), 3x3 filters (F, C, 3, 3) -> valid output.
/// Throws kconv::Error unless K == 3. `gemm_cfg.bm == 0` (the default)
/// selects winograd_gemm_config(F) automatically. Stages `input_tf`,
/// `gemm` (16 launches) and `output_tf`; workspace_bytes is the
/// transformed-domain V + M buffers, the memory cost the paper's
/// related-work section calls out.
KernelRun winograd_conv(sim::Device& dev, const tensor::Tensor& input,
                        const tensor::Tensor& filters,
                        const GemmConfig& gemm_cfg = GemmConfig{.bm = 0},
                        const sim::LaunchOptions& opt = {});

}  // namespace kconv::kernels
