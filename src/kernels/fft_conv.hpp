// FFT-based convolution on the simulator — the paper's method category (3)
// ([12-14] Mathieu/Vasilache/Highlander).
//
// Pipeline (all stages are device kernels):
//   1. pad: image channels and FLIPPED filters into P x Q complex planes
//      (P, Q = next powers of two — the "filters need to be padded to the
//      same size as the input image" memory cost the paper criticizes)
//   2. forward 2D FFT per plane: batched row FFT -> tiled transpose ->
//      batched row FFT (twiddle factors ride in constant memory; complex
//      values are 8-byte units, i.e. naturally matched to Kepler's banks)
//   3. pointwise complex multiply-accumulate over channels
//   4. inverse 2D FFT per output plane, extract + scale the valid region
//
// The arithmetic crossover vs direct convolution is K-dependent (wins for
// large K, loses for 3x3) — bench_ext_fft measures it.
#pragma once

#include "src/kernels/kernel_run.hpp"
#include "src/sim/launch.hpp"

namespace kconv::kernels {

/// input (1, C, Hi, Wi), filters (F, C, K, K) -> valid output (1, F, ...).
/// Works for any square K (cross-correlation semantics, like every other
/// kernel in this library). Thirteen launches (the pipeline-depth cost of
/// the FFT route) in stages `pad` (2), `image_fft` (3), `filter_fft` (3),
/// `mac` (1) and `inverse` (4: inverse FFT + extract). The filter
/// transforms are reusable across a batch — "in order to reuse the Fourier
/// transform of the filters, the batch size should be big enough" (paper
/// §1) — so the run's seconds less `filter_fft`'s model that steady state.
/// workspace_bytes is the complex image, filter and accumulator planes.
KernelRun fft_conv(sim::Device& dev, const tensor::Tensor& input,
                   const tensor::Tensor& filters,
                   const sim::LaunchOptions& opt = {});

}  // namespace kconv::kernels
