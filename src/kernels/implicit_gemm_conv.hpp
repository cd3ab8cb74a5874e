// cuDNN-style implicit-GEMM convolution (the paper's baseline [8]).
//
// Convolution as GEMM: M = F filters, N' = Ho*Wo output pixels,
// Kdim = C*K*K. Instead of materializing the im2col patch matrix, each
// thread block builds its BK x BN sub-block of it in shared memory on the
// fly ("sub-blocks of the input matrices are constructed in on-chip memory
// at run-time, and thus no additional memory is needed" — cuDNN [8]).
//
// This is a competent Kepler kernel: matched float2 SM fragments,
// conflict-free padded staging, register double-buffering. It runs gemm()'s
// tiled body (detail/tiled_gemm.hpp) with B and C re-addressed. What it
// cannot avoid — and what the paper's kernels eliminate — is re-reading
// every input pixel up to K*K times from global memory (softened by L2) and
// spending index arithmetic on the im2col address decode.
//
// `plan_implicit_gemm` derives the tiling, SM panel layout, LaunchConfig,
// plan key and the tiling's GM bound once; `implicit_gemm_check`,
// `implicit_gemm_conv` and `implicit_gemm_xray` all consume that one plan.
// The plan declares no fleet shard axes, so conv2d refuses multi-device
// launches of this kernel.
#pragma once

#include "src/analysis/static/xray.hpp"
#include "src/common/types.hpp"
#include "src/kernels/gemm_kernels.hpp"
#include "src/kernels/kernel_run.hpp"
#include "src/sim/launch.hpp"

namespace kconv::kernels {

struct ImplicitGemmConfig {
  i64 bm = 64;  ///< filters per tile
  i64 bn = 64;  ///< output pixels per tile
  i64 bk = 8;   ///< im2col depth per stage
  i64 tm = 4;   ///< micro-tile rows (filters) per thread
  i64 tn = 4;   ///< micro-tile cols (pixels) per thread
  i64 vec_width = 0;
  bool prefetch = true;
};

/// Tile selection mimicking cuDNN v5's fixed kernel menu: K-depth is
/// always staged in slabs of 32 (zero-padded when C*K*K is smaller — the
/// big waste in the C=1 special case), and the filter-tile is 128 or 64
/// rows depending on F. This rigidity is faithful: cuDNN ships a handful
/// of pre-compiled SASS tiles and pads every problem into them.
ImplicitGemmConfig implicit_gemm_auto_config(i64 f, i64 c, i64 k);

/// The tiled GEMM's launch plan (see ConvPlan): filters in GM after the
/// image and output planes. The GEMM is M = F filters by Ncols = Ho*Wo
/// output pixels, of depth Kdim = C*K*K.
struct ImplicitGemmPlan : ConvPlan, GemmTiling {
  /// The input pixel that implicit-B element (row, col) reads: GEMM depth
  /// `row` is the tap (c, dy, dx) and column `col` the output pixel
  /// (oy, ox), so the pixel is (c, oy + dy, ox + dx). This im2col decode
  /// is what the explicit pipeline pays memory for; here it costs index
  /// arithmetic instead.
  struct Pixel {
    i64 c = 0, y = 0, x = 0;
  };
  Pixel im2col(i64 row, i64 col) const {
    const i64 kk2 = K * K;
    return {row / kk2, col / Wo + (row % kk2) / K, col % Wo + row % K};
  }
};

/// Plans a (K, C, F, Hi, Wi) problem.
ImplicitGemmPlan plan_implicit_gemm(const sim::Arch& arch, i64 k, i64 c,
                                    i64 f, i64 hi, i64 wi,
                                    const ImplicitGemmConfig& cfg);

/// Cheap legality probe: the plan's error — empty when
/// `implicit_gemm_conv` with the same parameters would launch, otherwise
/// the reason it would be rejected (micro-tile capacity, divisibility,
/// staging-register capacity, shared-memory or occupancy limits). Runs no
/// simulation and allocates nothing.
std::string implicit_gemm_check(const sim::Arch& arch, i64 k, i64 c, i64 f,
                                i64 hi, i64 wi,
                                const ImplicitGemmConfig& cfg);

/// The kernel's access-site descriptor for kconv-xray (docs/MODEL.md §10):
/// the tiled-GEMM instruction stream (including the im2col decode) walked
/// symbolically over the kernel's own plan, without a Device. Throws the
/// plan's error for configurations `implicit_gemm_check` rejects.
xray::KernelModel implicit_gemm_xray(const sim::Arch& arch, i64 k, i64 c,
                                     i64 f, i64 hi, i64 wi,
                                     const ImplicitGemmConfig& cfg);

/// Runs the implicit-GEMM convolution: input (1, C, Hi, Wi), filters
/// (F, C, K, K) -> valid output (1, F, Ho, Wo). Works for any C >= 1
/// (including the special case, where the GEMM depth K*K is tiny and the
/// kernel's efficiency collapses — Fig. 7).
KernelRun implicit_gemm_conv(sim::Device& dev, const tensor::Tensor& input,
                             const tensor::Tensor& filters,
                             const ImplicitGemmConfig& cfg = {},
                             const sim::LaunchOptions& opt = {});

}  // namespace kconv::kernels
