// The paper's general-case convolution kernel (§4, Algorithm 2): multiple
// input channels, filters too large for constant memory.
//
// Structure (inspired by blocked GEMM [19], with the paper's data-sharing
// twists):
//  - 2D grid: X over groups of FTB filters, Y over spatial H x W image
//    blocks; each thread block iterates over ALL C channels, staging CSH
//    channels of image block (with halo) and filters in shared memory at a
//    time, double-buffered through registers (prefetch).
//  - Filters are stored TRANSPOSED in SM — (channel, tap) rows of FTB
//    values — with one bank-word of padding per row to keep the transposing
//    stores conflict-free (the paper's gray box; `pad_filters=false`
//    reproduces the conflict for the ablation).
//  - Each thread computes WT *contiguous* output pixels x FT filters. The
//    contiguity is the paper's key departure from blocked GEMM: one row of
//    WT+K-1 pixels in registers serves K rounds of computation, cutting SM
//    image traffic by (WT+K-1)/(WT*K).
//  - All SM accesses move n-wide units (n = W_SMB / W_CD, float2 on
//    Kepler); TX contiguous threads read identical image addresses
//    (broadcast) and contiguous filter units (conflict-free).
//
// `plan_general` derives all of that once — vector width, thread-block
// geometry, staging splits, SM strides and offsets, LaunchConfig, plan key,
// fleet hints and the §4 bounds. `general_conv_check`, `general_conv` and
// `general_conv_xray` all consume that one plan.
#pragma once

#include <span>

#include "src/analysis/static/xray.hpp"
#include "src/common/types.hpp"
#include "src/kernels/kernel_run.hpp"
#include "src/sim/launch.hpp"

namespace kconv::kernels {

/// Tuning parameters (the paper's Table 1 dimensions) plus ablation
/// switches.
struct GeneralConvConfig {
  i64 block_w = 32;  ///< W: image-block width in output pixels
  i64 block_h = 4;   ///< H: image-block height in output rows
  i64 ftb = 64;      ///< FTB: filters per thread block
  i64 wt = 16;       ///< WT: contiguous output pixels per thread
  i64 ft = 4;        ///< FT: filters per thread
  i64 csh = 2;       ///< CSH: channels staged in shared memory
  /// 0 = match the bank width (paper), 1 = unmatched ablation.
  i64 vec_width = 0;
  /// Pad transposed filter rows in SM by one bank word (ablation A2).
  bool pad_filters = true;
  /// Double-buffer GM loads through registers (ablation A1).
  bool prefetch = true;

  bool operator==(const GeneralConvConfig&) const = default;
};

/// The paper's Table 1: best configuration per filter size on Kepler K40m.
GeneralConvConfig table1_config(i64 k);

/// Hard ceilings imposed by the fixed-size register arrays in the kernel.
inline constexpr i64 kGeneralMaxK = 7;
inline constexpr i64 kGeneralMaxWT = 16;
inline constexpr i64 kGeneralMaxFT = 8;

/// Algorithm 2's launch plan (see ConvPlan): filters and the fused bias in
/// GM after the image and output planes.
struct GeneralPlan : ConvPlan {
  i64 W = 0, H = 0, FTB = 0, WT = 0, FT = 0, CSH = 0;  ///< Table 1 tiling
  bool prefetch = true;
  i64 TX = 0, TY = 0, nthreads = 0;  ///< block = TX x TY threads
  i64 nbx = 0;                       ///< column tiles (grid.y folds them)
  i64 rows_halo = 0, cols_halo = 0;  ///< staged image block with halo
  /// Cooperative staging splits and their padded per-thread trip counts.
  i64 units_per_row = 0, total_img_units = 0, total_flt = 0;
  i64 img_iters = 0, flt_iters = 0;
  i64 stride_img = 0, stride_flt = 0;  ///< SM row strides (floats)
  u32 img_off = 0, flt_off = 0;

  /// Image staging unit `u` (Alg. 2 lines 4/8/17) of the spatial tile
  /// (sx, sy): n pixels of halo row `ry` of staged channel `ci`.
  struct ImgUnit {
    i64 ci = 0;          ///< channel within the staged CSH
    i64 iy = 0, ix = 0;  ///< input pixel of the unit's first element
    i64 sm = 0;          ///< SM index (floats) of the unit
    bool any = false;    ///< the unit exists in every tile
    bool ok = false;     ///< ... and lies inside the image in this one
  };
  ImgUnit img_unit(i64 u, i64 sx, i64 sy) const {
    ImgUnit r;
    r.ci = (u / (rows_halo * units_per_row)) % CSH;
    const i64 rem = u % (rows_halo * units_per_row);
    const i64 ry = rem / units_per_row;
    const i64 cu = rem % units_per_row;
    r.iy = sy * H + ry;
    r.ix = sx * W + cu * n;
    r.sm = (r.ci * rows_halo + ry) * stride_img + cu * n;
    r.any = u < total_img_units;
    r.ok = r.any && r.iy < Hi && r.ix < Wi;
    return r;
  }

  /// Filter staging element `e` of filter group `fblk`: one scalar, stored
  /// transposed in SM as (channel, tap) rows of FTB filters (Fig. 6).
  struct FltElem {
    i64 gm = 0;       ///< filter index at channel base 0; add cbase*K*K
    i64 sm = 0;       ///< SM index (floats)
    bool ok = false;  ///< the element exists (block-invariant)
  };
  FltElem flt_elem(i64 e, i64 fblk) const {
    const i64 kk2 = K * K;
    FltElem r;
    r.ok = e < total_flt;
    const i64 f = r.ok ? e / (CSH * kk2) : 0;
    const i64 rem = r.ok ? e % (CSH * kk2) : 0;
    r.gm = ((fblk * FTB + f) * C + rem / kk2) * kk2 + rem % kk2;
    r.sm = rem * stride_flt + f;
    return r;
  }
};

/// Plans a (K, C, F, Hi, Wi) problem; `fused` mirrors a non-empty
/// `fuse_bias_relu`.
GeneralPlan plan_general(const sim::Arch& arch, i64 k, i64 c, i64 f, i64 hi,
                         i64 wi, const GeneralConvConfig& cfg,
                         bool fused = false);

/// Cheap legality probe: the plan's error — empty when `general_conv` with
/// the same parameters would launch, otherwise the reason it would be
/// rejected (divisibility, register/staging capacity, shared-memory or
/// occupancy limits). Runs no simulation and allocates nothing — autotuner
/// sweeps use it to skip illegal points without exceptions as control flow.
std::string general_conv_check(const sim::Arch& arch, i64 k, i64 c, i64 f,
                               i64 hi, i64 wi, const GeneralConvConfig& cfg);

/// The kernel's access-site descriptor for kconv-xray (docs/MODEL.md §10):
/// Algorithm 2's instruction stream walked symbolically over the kernel's
/// own plan — its layout, tiling and predicates — without a Device. Throws
/// the plan's error for configurations `general_conv_check` rejects.
xray::KernelModel general_conv_xray(const sim::Arch& arch, i64 k, i64 c,
                                    i64 f, i64 hi, i64 wi,
                                    const GeneralConvConfig& cfg,
                                    bool fused = false);

/// Runs the general-case kernel: `input` is (1, C, Hi, Wi), `filters` is
/// (F, C, K, K); output is the valid convolution (1, F, Ho, Wo).
///
/// A non-empty `fuse_bias_relu` (F entries) folds the bias-add + ReLU
/// epilogue into the write-back: out = max(0, conv + bias[f]). Bit-identical
/// to a separate `bias_relu` pass over the unfused output (both compute
/// std::max(0.0f, v + b) on the same fp32 values), but the intermediate
/// never round-trips global memory.
///
/// Constraints (checked, throwing kconv::Error): K odd sizes up to 7,
/// F % FTB == 0, C % CSH == 0, FTB % FT == 0, (W*H) % WT == 0,
/// W % WT == 0, WT and FT multiples of the vector width.
KernelRun general_conv(sim::Device& dev, const tensor::Tensor& input,
                       const tensor::Tensor& filters,
                       const GeneralConvConfig& cfg = {},
                       const sim::LaunchOptions& opt = {},
                       std::span<const float> fuse_bias_relu = {});

}  // namespace kconv::kernels
