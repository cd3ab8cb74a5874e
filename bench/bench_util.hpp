// Shared helpers for the experiment harnesses.
//
// Each bench binary regenerates one table or figure from the paper
// (DESIGN.md §3.3 maps experiment ids to binaries). Numbers are model
// estimates from the kconv simulator; the paper's measured trends are
// quoted in each binary's footer for side-by-side reading, and
// EXPERIMENTS.md records the comparison.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/strutil.hpp"
#include "src/core/conv_api.hpp"
#include "src/sim/sim.hpp"
#include "src/tensor/tensor.hpp"

namespace kconv::bench {

/// Deterministic random image/filter factories (contents don't affect the
/// timing model, but keep everything reproducible anyway).
inline tensor::Tensor make_image(i64 c, i64 h, i64 w, u64 seed = 1) {
  Rng rng(seed);
  tensor::Tensor t = tensor::Tensor::image(c, h, w);
  t.fill_random(rng);
  return t;
}

inline tensor::Tensor make_filters(i64 f, i64 c, i64 k, u64 seed = 2) {
  Rng rng(seed);
  tensor::Tensor t = tensor::Tensor::filters(f, c, k);
  t.fill_random(rng);
  return t;
}

/// Effective GFlop/s: useful convolution flops over model-estimated time.
inline double effective_gflops(i64 c, i64 f, i64 k, i64 n, double seconds) {
  const i64 o = n - k + 1;
  return core::conv_flops(c, f, k, o, o) / seconds / 1e9;
}

/// Wall-clock seconds one call of `f` takes.
template <typename F>
double wall_seconds(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One entry's timed runs: the median and the fastest.
struct RunTimes {
  double median = 0.0;
  double min = 0.0;
};

/// Round-robin timing: one untimed warm-up run of every entry, then
/// `repeats` rounds that each run entries 0 .. n - 1 in order, so host
/// drift hits every entry alike. `run(i)` performs one run of entry i and
/// returns the seconds it took (the entry decides what its clock covers).
template <typename Run>
std::vector<RunTimes> time_round_robin(std::size_t n, int repeats,
                                       Run&& run) {
  for (std::size_t i = 0; i < n; ++i) (void)run(i);
  std::vector<std::vector<double>> samples(n);
  for (int rep = 0; rep < repeats; ++rep) {
    for (std::size_t i = 0; i < n; ++i) samples[i].push_back(run(i));
  }
  std::vector<RunTimes> out;
  for (std::vector<double>& s : samples) {
    std::sort(s.begin(), s.end());
    out.push_back({s[s.size() / 2], s.front()});
  }
  return out;
}

inline void header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void footnote(const std::string& text) {
  std::printf("--- %s\n", text.c_str());
}

/// Byte-identical functional outputs (both runs materialized them).
inline bool outputs_identical(const kernels::KernelRun& a,
                              const kernels::KernelRun& b) {
  const auto fa = a.output.flat();
  const auto fb = b.output.flat();
  return a.output_valid && b.output_valid && fa.size() == fb.size() &&
         std::memcmp(fa.data(), fb.data(), fa.size() * sizeof(float)) == 0;
}

/// True when `level` finds no counter mismatch between two launches
/// (sim::stats_mismatches); each mismatch is reported on stderr.
inline bool counters_match(const sim::KernelStats& a,
                           const sim::KernelStats& b, StatsLevel level) {
  const std::vector<std::string> mismatches =
      sim::stats_mismatches(a, b, level);
  for (const std::string& m : mismatches) {
    std::fprintf(stderr, "counter mismatch: %s\n", m.c_str());
  }
  return mismatches.empty();
}

/// Identity verdicts (outputs identical, counters equal) fail the run:
/// print each one through verdict() and return exit_status() from main,
/// so scripts/check_bench_regression.sh rejects the artifact. Performance
/// verdicts are informational and are printed directly instead.
inline bool& identity_failed() {
  static bool failed = false;
  return failed;
}

inline const char* verdict(bool ok) {
  if (!ok) identity_failed() = true;
  return ok ? "true" : "false";
}

inline int exit_status() { return identity_failed() ? 1 : 0; }

}  // namespace kconv::bench
