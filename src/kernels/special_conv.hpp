// The paper's special-case convolution kernel (§3, Algorithm 1): single
// input channel, filters resident in constant memory.
//
// Thread layout: the output is tiled into H x W blocks; one thread block of
// W/n threads computes each tile, where n is the vector width that matches
// the computation data width W_CD to the shared-memory bank width W_SMB
// (n = 2 via float2 on Kepler; n = 1 reproduces the paper's "unmatched"
// ablation kernel of Fig. 7b).
//
// Data movement per tile row (Algorithm 1):
//   - one cooperative, coalesced GM read stages the next image row in SM
//     (prefetched one iteration ahead to overlap with compute);
//   - horizontally, threads share row pixels through SM;
//   - vertically, each thread carries a K x (K+n-1) register window so a
//     row read from GM serves the convolutions of K output rows.
// Every in-tile pixel is read from GM exactly once — the communication
// lower bound; only inter-tile halo columns/rows are re-read.
//
// `plan_special` derives all of that once — vector width, tile geometry,
// the SM row-slot layout, LaunchConfig, plan key, fleet hints and the §3
// bound. `special_conv_check`, `special_conv`, `special_conv_xray` and the
// short-dtype runner all consume that one plan.
#pragma once

#include <optional>
#include <span>

#include "src/analysis/static/xray.hpp"
#include "src/common/types.hpp"
#include "src/kernels/kernel_run.hpp"
#include "src/sim/launch.hpp"

namespace kconv::kernels {

/// Tuning parameters for the special-case kernel.
struct SpecialConvConfig {
  /// Tile width in output pixels (threads per block = block_w / vec_width).
  i64 block_w = 256;
  /// Tile height in output rows.
  i64 block_h = 8;
  /// Computation data width in floats per thread unit; 0 = match the
  /// architecture's bank width (the paper's Eq. 1), 1 = unmatched ablation.
  i64 vec_width = 0;

  bool operator==(const SpecialConvConfig&) const = default;
};

/// Maximum filter size the register window supports (paper evaluates up to
/// 5x5 in the special case; 7 keeps the general-case sizes available too).
inline constexpr i64 kSpecialMaxK = 7;

/// Algorithm 1's launch plan (see ConvPlan): C = 1, filters (and the fused
/// bias) in constant space.
struct SpecialPlan : ConvPlan {
  i64 W = 0, H = 0;     ///< tile extents
  i64 nthreads = 0;     ///< threads per block, W / n
  i64 n_tail = 0;       ///< threads loading the right halo piece
  i64 rows_wcols = 0;   ///< register-window columns, whole n-units
  i64 sh_stride = 0;    ///< storage elements per SM row slot
  u32 sh_off = 0;
};

/// Plans a (K, F, Hi, Wi) single-channel problem. `fused` mirrors a
/// non-empty `fuse_bias_relu` (its F floats share constant memory with the
/// filters). `short_dtype` plans the short-storage variant
/// (short_dtype_conv.hpp): its element size sets Eq. 1's width, the image
/// and output layout and the bounds, width 8 becomes legal, and the plan
/// key is the "short_dtype" one.
SpecialPlan plan_special(const sim::Arch& arch, i64 k, i64 f, i64 hi, i64 wi,
                         const SpecialConvConfig& cfg, bool fused = false,
                         std::optional<DType> short_dtype = std::nullopt);

/// Cheap legality probe: the plan's error — empty when `special_conv` with
/// the same parameters (`fused` for a non-empty bias) would launch,
/// otherwise the reason it would be rejected (filter size, tile shape,
/// constant-memory capacity, occupancy). Runs no simulation and allocates
/// nothing — autotuner sweeps use it to skip illegal points without
/// exceptions as control flow.
std::string special_conv_check(const sim::Arch& arch, i64 k, i64 f, i64 hi,
                               i64 wi, const SpecialConvConfig& cfg,
                               bool fused = false);

/// The kernel's access-site descriptor for kconv-xray (docs/MODEL.md §10):
/// Algorithm 1's instruction stream walked symbolically over the kernel's
/// own plan — its layout, tiling and predicates — without a Device. Throws
/// the plan's error for configurations `special_conv_check` rejects.
xray::KernelModel special_conv_xray(const sim::Arch& arch, i64 k, i64 f,
                                    i64 hi, i64 wi,
                                    const SpecialConvConfig& cfg,
                                    bool fused = false);

/// Runs the special-case kernel: `input` is (1, 1, Hi, Wi), `filters` is
/// (F, 1, K, K), output is the valid convolution (1, F, Hi-K+1, Wi-K+1).
///
/// A non-empty `fuse_bias_relu` (F entries, staged in constant memory next
/// to the filters) folds the bias-add + ReLU epilogue into the write-back:
/// out = max(0, conv + bias[f]). Bit-identical to a separate `bias_relu`
/// pass over the unfused output, without the intermediate's GM round-trip.
///
/// Throws kconv::Error on invalid shapes/configs (C != 1, K even or > 7,
/// filters (+ fused bias) exceeding constant memory, misaligned tile sizes).
KernelRun special_conv(sim::Device& dev, const tensor::Tensor& input,
                       const tensor::Tensor& filters,
                       const SpecialConvConfig& cfg = {},
                       const sim::LaunchOptions& opt = {},
                       std::span<const float> fuse_bias_relu = {});

}  // namespace kconv::kernels
