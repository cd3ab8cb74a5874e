// Extension E2 — Winograd F(2x2, 3x3) vs the paper's direct kernel.
//
// The paper positions direct convolution against the fast algorithms its
// related work surveys: "the Winograd algorithm can significantly reduce
// the arithmetic complexity for the 3x3 filter, at the cost of increased
// memory usage and filter size dependent specialized processing." This
// harness quantifies both halves of that sentence on the simulator.
#include "bench/bench_util.hpp"
#include "src/kernels/general_conv.hpp"
#include "src/kernels/winograd_conv.hpp"

using namespace kconv;

int main() {
  bench::header("Extension E2 — Winograd F(2x2,3x3) vs direct (ours)");
  std::printf("  %-16s %10s %12s %12s %14s   %s\n", "(N, C, F)", "direct",
              "winograd", "wino/direct", "workspace",
              "DRAM input_tf / gemm / output_tf");
  sim::LaunchOptions opt;
  opt.sample_max_blocks = 2;
  struct Point { i64 n, c, f; };
  for (const Point p : {Point{64, 32, 64}, Point{64, 64, 128},
                        Point{128, 64, 128}, Point{128, 128, 256}}) {
    const auto img = bench::make_image(p.c, p.n, p.n);
    const auto flt = bench::make_filters(p.f, p.c, 3);

    sim::Device d1(sim::kepler_k40m());
    const auto direct =
        kernels::general_conv(d1, img, flt, kernels::table1_config(3), opt);
    const double gf_direct = bench::effective_gflops(
        p.c, p.f, 3, p.n, direct.launch.timing.seconds);

    sim::Device d2(sim::kepler_k40m());
    const auto wino = kernels::winograd_conv(d2, img, flt,
                                             kernels::GemmConfig{.bm = 0},
                                             opt);
    const double gf_wino = bench::effective_gflops(
        p.c, p.f, 3, p.n, wino.launch.timing.seconds);
    const auto dram = [&](const char* stage) {
      return human_bytes(wino.stage(stage).launch.dram_bytes());
    };

    std::printf("  (%3lld,%3lld,%3lld) %8.1f GF %9.1f GF %11.2fx %13s   "
                "%s / %s / %s\n",
                static_cast<long long>(p.n), static_cast<long long>(p.c),
                static_cast<long long>(p.f), gf_direct, gf_wino,
                gf_wino / gf_direct,
                human_bytes(static_cast<double>(wino.workspace_bytes))
                    .c_str(),
                dram("input_tf").c_str(), dram("gemm").c_str(),
                dram("output_tf").c_str());
  }
  bench::footnote(
      "Paper §1: Winograd reduces 3x3 arithmetic 2.25x at the cost of "
      "memory and specialization; direct stays the universal baseline. "
      "Effective GF > direct peak is the arithmetic reduction at work.");
  return 0;
}
