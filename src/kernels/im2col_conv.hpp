// Explicit im2col + GEMM convolution — the Caffe default [7, 18].
//
// Two launches: (1) an im2col kernel materializes the (C*K*K) x (Ho*Wo)
// patch matrix in global memory — the "huge amount of additional memory"
// the paper calls out — then (2) the blocked GEMM kernel multiplies the
// flattened filter bank against it. Reported time is the sum of both
// launches; workspace_bytes quantifies the extra allocation.
#pragma once

#include "src/kernels/gemm_kernels.hpp"
#include "src/kernels/kernel_run.hpp"
#include "src/sim/launch.hpp"

namespace kconv::kernels {

/// input (1, C, Hi, Wi), filters (F, C, K, K) -> valid output. Stages
/// `im2col` and `gemm`; workspace_bytes is the patch matrix.
KernelRun im2col_gemm_conv(sim::Device& dev, const tensor::Tensor& input,
                           const tensor::Tensor& filters,
                           const GemmConfig& gemm_cfg = gemm_cublas_like(),
                           const sim::LaunchOptions& opt = {});

/// Materializes the TRANSPOSED patch matrix im2col(input)^T of shape
/// (Ho*Wo) x (C*K*K) on the device. Building block for the weight-gradient
/// convolution: dW = dY_flat x im2col(X)^T.
struct Im2colTRun {
  sim::LaunchResult launch;
  tensor::Matrix cols_t;
  bool output_valid = false;
};
Im2colTRun im2col_transposed(sim::Device& dev, const tensor::Tensor& input,
                             i64 k, const sim::LaunchOptions& opt = {});

}  // namespace kconv::kernels
