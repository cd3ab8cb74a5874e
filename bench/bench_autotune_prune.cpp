// kconv-xray autotune pruning (docs/MODEL.md §10).
//
// Measures, per shape, what the static pre-pass buys a tuning sweep: the
// full sweep simulates every legal candidate; the pruned sweep first ranks
// all of them with the symbolic analyzer (no execution) and simulates only
// the top half. The contract is that the winner is unchanged — the static
// counters are the very numbers the timing model consumes — so the bench
// gates two deterministic ratios:
//
//   candidates_sim_speedup   full.evaluated / pruned.evaluated  (>= 2.0)
//   winner_agreement_speedup 1.0 when both sweeps pick the same config
//                            (0.0 = disagreement, a contract break)
//
// Both end in "speedup" so check_bench_regression.sh gates them against
// the committed baseline; both are candidate *counts*, not wall clock, so
// they are exact on any host. Wall-clock and process-CPU seconds are
// reported for context under names the checker ignores: the full sweep,
// the pruned sweep and the pruned sweep into an empty plan store (the
// kbench tune-cold op), the pre-pass share of the pruned sweep's wall
// clock, and `pruned_cpu_ratio` = pruned / full process-CPU seconds (below
// 1.0 when the pre-pass saves more than it costs). Each is one reading per
// side, so read it over repeated runs before calling a verdict.
#include <unistd.h>

#include <chrono>
#include <ctime>
#include <filesystem>
#include <string>

#include "bench/bench_util.hpp"
#include "src/core/autotune.hpp"

using namespace kconv;

namespace {

struct Shape {
  const char* name;
  i64 c, f, k, n;
};

struct Sweep {
  i64 evaluated = 0;
  i64 pruned = 0;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  double prepass_seconds = 0.0;
  core::ScoredGeneralConfig best;
};

/// Process CPU seconds, pool workers included.
double cpu_now() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

Sweep run_sweep(const Shape& s, bool static_prune,
                sim::PlanCache* plans = nullptr) {
  sim::Device dev(sim::kepler_k40m());
  const double c0 = cpu_now();
  const auto t0 = std::chrono::steady_clock::now();
  const auto res =
      core::autotune_general(dev, s.k, s.c, s.f, s.n, {}, /*sample_blocks=*/2,
                             /*num_threads=*/0, plans, /*analytic=*/false,
                             static_prune);
  Sweep out;
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out.cpu_seconds = cpu_now() - c0;
  out.prepass_seconds = res.prepass_seconds;
  out.evaluated = res.evaluated;
  out.pruned = res.pruned;
  out.best = res.best;
  return out;
}

/// The pruned sweep into an empty plan store, private to this process.
Sweep run_stored_sweep(const Shape& s) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("kconv_bench_autotune_prune." + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  Sweep out;
  {
    sim::PlanCache plans(dir.string());
    out = run_sweep(s, true, &plans);
  }
  std::filesystem::remove_all(dir);
  return out;
}

void report(const Shape& s, bool first) {
  const Sweep full = run_sweep(s, false);
  const Sweep pruned = run_sweep(s, true);
  const Sweep stored = run_stored_sweep(s);
  const bool agree = full.best == pruned.best && stored.best == pruned.best;
  std::printf(
      "%s    {\"name\": \"%s\", \"c\": %lld, \"f\": %lld, \"k\": %lld, "
      "\"n\": %lld,\n"
      "     \"full_evaluated\": %lld, \"pruned_evaluated\": %lld, "
      "\"pruned_out\": %lld,\n"
      "     \"full_seconds\": %.4f, \"pruned_seconds\": %.4f,\n"
      "     \"full_cpu_seconds\": %.4f, \"pruned_cpu_seconds\": %.4f, "
      "\"pruned_store_cpu_seconds\": %.4f,\n"
      "     \"prepass_share\": %.3f, \"pruned_cpu_ratio\": %.3f,\n"
      "     \"best_gflops\": %.6g,\n"
      "     \"candidates_sim_speedup\": %.2f, "
      "\"winner_agreement_speedup\": %.1f}",
      first ? "" : ",\n", s.name, static_cast<long long>(s.c),
      static_cast<long long>(s.f), static_cast<long long>(s.k),
      static_cast<long long>(s.n), static_cast<long long>(full.evaluated),
      static_cast<long long>(pruned.evaluated),
      static_cast<long long>(pruned.pruned), full.seconds, pruned.seconds,
      full.cpu_seconds, pruned.cpu_seconds, stored.cpu_seconds,
      pruned.prepass_seconds / pruned.seconds,
      pruned.cpu_seconds / full.cpu_seconds,
      pruned.best.gflops,
      static_cast<double>(full.evaluated) /
          static_cast<double>(pruned.evaluated),
      agree ? 1.0 : 0.0);
}

}  // namespace

int main() {
  // The default GeneralSpace over paper-scale shapes: big enough that the
  // sweep cost is real, small enough that the bench stays seconds-scale.
  const Shape shapes[] = {
      {"vgg_c16_f32_k3_n32", 16, 32, 3, 32},
      {"wide_c8_f64_k3_n40", 8, 64, 3, 40},
      {"k5_c16_f32_k5_n34", 16, 32, 5, 34},
  };
  std::printf("{\"bench\": \"autotune_prune\", \"sample_blocks\": 2,\n");
  std::printf(" \"shapes\": [\n");
  bool first = true;
  for (const Shape& s : shapes) {
    report(s, first);
    first = false;
  }
  std::printf("\n]}\n");
  return 0;
}
