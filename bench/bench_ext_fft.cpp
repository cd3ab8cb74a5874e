// Extension E3 — FFT-based convolution vs direct (ours), the K-dependent
// crossover.
//
// Paper §1 on FFT methods: they "can reduce the arithmetic complexity
// compared with direct methods. However, the filters need to be padded to
// the same size as the input image, which incurs additional memory and
// computation time." This harness measures both sides: effective GFlop/s
// across filter sizes (direct scales with K^2, FFT is K-independent) and
// the padded-workspace bill.
#include "bench/bench_util.hpp"
#include "src/kernels/fft_conv.hpp"
#include "src/kernels/general_conv.hpp"

using namespace kconv;

int main() {
  bench::header("Extension E3 — FFT-based convolution vs direct (ours)");
  std::printf("  N=64, C=32, F=64, filter size sweep:\n");
  std::printf("  %-4s %12s %12s %14s %12s %14s\n", "K", "direct", "fft",
              "fft(amortized)", "amort/direct", "fft workspace");
  sim::LaunchOptions opt;
  opt.sample_max_blocks = 2;
  for (const i64 k : {3, 5, 7}) {
    const auto img = bench::make_image(32, 64, 64);
    const auto flt = bench::make_filters(64, 32, k);

    sim::Device d1(sim::kepler_k40m());
    const auto direct =
        kernels::general_conv(d1, img, flt, kernels::table1_config(k), opt);
    const double gf_direct = bench::effective_gflops(
        32, 64, k, 64, direct.launch.timing.seconds);

    sim::Device d2(sim::kepler_k40m());
    const auto fft = kernels::fft_conv(d2, img, flt, opt);
    const double gf_fft =
        bench::effective_gflops(32, 64, k, 64, fft.launch.timing.seconds);
    // Filter transforms amortized over a large batch: every other stage.
    double amortized = 0.0;
    for (const sim::LaunchStage& s : fft.stages) {
      if (s.name != "filter_fft") amortized += s.launch.timing.seconds;
    }
    const double gf_amort =
        bench::effective_gflops(32, 64, k, 64, amortized);

    std::printf("  %-4lld %9.1f GF %9.1f GF %11.1f GF %11.2fx %13s\n",
                static_cast<long long>(k), gf_direct, gf_fft, gf_amort,
                gf_amort / gf_direct,
                human_bytes(static_cast<double>(fft.workspace_bytes))
                    .c_str());
  }

  std::printf("\n  time breakdown for K=7 (N=64, C=32, F=64):\n");
  {
    const auto img = bench::make_image(32, 64, 64);
    const auto flt = bench::make_filters(64, 32, 7);
    sim::Device dev(sim::kepler_k40m());
    const auto fft = kernels::fft_conv(dev, img, flt, opt);
    const auto ms = [&](const char* stage) {
      return fft.stage(stage).launch.timing.seconds * 1e3;
    };
    const auto dram = [&](const char* stage) {
      return human_bytes(fft.stage(stage).launch.dram_bytes());
    };
    u32 launches = 0;
    for (const sim::LaunchStage& s : fft.stages) launches += s.launches;
    std::printf("    pad %.3f ms, image FFT %.3f ms, filter FFT %.3f ms "
                "(amortizable), MAC %.3f ms, inverse %.3f ms (%u launches)\n",
                ms("pad"), ms("image_fft"), ms("filter_fft"), ms("mac"),
                ms("inverse"), launches);
    std::printf("    DRAM: pad %s, image FFT %s, filter FFT %s, MAC %s, "
                "inverse %s\n",
                dram("pad").c_str(), dram("image_fft").c_str(),
                dram("filter_fft").c_str(), dram("mac").c_str(),
                dram("inverse").c_str());
  }
  bench::footnote(
      "Paper §1: FFT reduces arithmetic but pays filter padding to image "
      "size, and filter-transform reuse needs a large batch. FFT gains "
      "with K, direct work grows with K^2 — hence the crossover.");
  return 0;
}
