// The public convolution API — the front door of the library.
//
//   sim::Device dev(sim::kepler_k40m());
//   auto out = core::conv2d(dev, input, filters).output;
//
// conv2d picks the algorithm (the paper's special-case kernel for C = 1,
// the general-case kernel otherwise, each with sane default tilings) and
// handles `same` padding by staging a zero-padded input. Every algorithm
// is also individually selectable for comparisons.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "src/analysis/static/xray.hpp"
#include "src/kernels/kernel_run.hpp"
#include "src/sim/launch.hpp"

namespace kconv::core {

enum class Algo : u8 {
  Auto,          ///< special kernel when C==1, general kernel otherwise
  Special,       ///< the paper's Algorithm 1 (requires C == 1)
  General,       ///< the paper's Algorithm 2
  ImplicitGemm,  ///< cuDNN-style baseline
  Im2colGemm,    ///< Caffe-style explicit im2col + GEMM baseline
  NaiveDirect,   ///< one thread per output pixel
  Winograd,      ///< F(2x2,3x3) transform pipeline (3x3 filters only)
  Fft,           ///< frequency-domain pipeline (filters padded to image size)
};

const char* algo_name(Algo a);
/// The Algo whose algo_name is `name`; false (and `out` untouched) for
/// any other string.
bool parse_algo(const std::string& name, Algo& out);

enum class Padding : u8 {
  Valid,  ///< output (Hi-K+1) x (Wi-K+1)
  Same,   ///< output Hi x Wi (zero-padded input; odd K only)
};

struct ConvOptions {
  Algo algo = Algo::Auto;
  Padding padding = Padding::Valid;
  /// Forwarded to the chosen kernel; 0 keeps each kernel's default.
  i64 vec_width = 0;
  /// Non-empty (F entries, caller keeps the storage alive for the call):
  /// fold out = max(0, conv + bias[f]) into the kernel's write-back instead
  /// of a separate bias_relu launch. Bit-identical to the two-launch
  /// sequence; the intermediate never round-trips simulated GM. Supported by
  /// the Special and General algorithms (Auto resolves to one of them);
  /// other algorithms reject it.
  std::span<const float> fuse_bias_relu;
  sim::LaunchOptions launch;
};

struct ConvResult {
  tensor::Tensor output;
  bool output_valid = false;
  Algo algo_used = Algo::Auto;
  /// Timing and traffic of every launch the algorithm made. With one stage
  /// this is that stage's launch, whole. With more (im2col-gemm, winograd,
  /// fft) it holds sums only: counters, blocks, seconds and
  /// seconds-weighted rates (sim::fold_launch); pipes, bound, occupancy
  /// and plan-store status live per stage in `stages`.
  sim::LaunchResult launch;
  /// The launches as named stages in issue order (kernels::KernelRun).
  std::vector<sim::LaunchStage> stages;
  double total_seconds = 0.0;
  /// Effective performance: useful convolution flops / total time.
  double effective_gflops = 0.0;
};

/// Convolves input (1, C, Hi, Wi) with filters (F, C, K, K).
/// Throws kconv::Error for invalid shapes or configurations.
ConvResult conv2d(sim::Device& dev, const tensor::Tensor& input,
                  const tensor::Tensor& filters,
                  const ConvOptions& opt = {});

/// Batched convolution: input (N, C, Hi, Wi) -> output (N, F, Ho, Wo).
/// Images are independent, so the batch runs as N back-to-back conv2d
/// calls. `launch` is the fold of the images' launches (sim::fold_launch)
/// and each entry of `stages` the fold of that stage over the images;
/// under batch sharding `launch.fleet` is the batch's fleet report. The
/// paper evaluates batch-1 direct convolution; this is the convenience
/// wrapper a CNN framework would call.
ConvResult conv2d_batched(sim::Device& dev, const tensor::Tensor& input,
                          const tensor::Tensor& filters,
                          const ConvOptions& opt = {});

/// Useful flops of a valid convolution (2 per MAC).
double conv_flops(i64 c, i64 f, i64 k, i64 ho, i64 wo);

/// Why conv2d would refuse to shard a (1, C, Hi, Wi) x (F, C, K, K) launch
/// as `opt.launch.fleet` asks, or "" when it would not: the shard axes come
/// from the chosen kernel's plan (docs/MODEL.md §9). conv2d throws this
/// reason before allocating anything; kconv_cli exits 2 with it.
std::string conv2d_shard_error(const sim::Arch& arch, i64 c, i64 f, i64 k,
                               i64 hi, i64 wi, const ConvOptions& opt = {});

/// The kconv-xray model (docs/MODEL.md §10) of the exact kernel launch
/// conv2d would make for a (1, C, Hi, Wi) input and (F, C, K, K) filters:
/// same algorithm resolution, same `same`-padding staging, same tiling
/// shrinks and filter-count padding — derived without a Device and without
/// executing a block. Supported for the Special, General and ImplicitGemm
/// algorithms (Auto resolves as conv2d does); throws kconv::Error for
/// algorithms without a static describer or configurations the kernel
/// would reject.
xray::KernelModel conv2d_xray_model(const sim::Arch& arch, i64 c, i64 f,
                                    i64 k, i64 hi, i64 wi,
                                    const ConvOptions& opt = {});

}  // namespace kconv::core
