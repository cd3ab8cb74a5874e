// kbench: runs one benchmark workload and prints its metrics.
//
//   kbench --workload NAME --seed N --seconds S --trace 0|1
//          [--out-dir DIR] [--commit SHA]
//
// Prints the host facts, one `metric` line per metric with its unit, and
// as the last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 they are the per-layer ones, and the spans go to
// DIR/spans-<workload>-seed<N>.json. Every run also writes its full
// result, host facts included, to DIR/result-<workload>-seed<N>-trace<T>.json.
// Exits 1 when any op failed (after printing a repro line per failure) and 2
// on bad arguments.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "kbench/src/workloads.hpp"
#include "src/common/strutil.hpp"

namespace {

using kbench::Metric;
using kconv::strf;

int usage(const char* why) {
  std::fprintf(stderr,
               "kbench: %s\nusage: kbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--commit SHA]\n",
               why);
  return 2;
}

/// Parses a whole non-negative decimal number; false on anything else.
bool parse_u64(const char* s, unsigned long long& out) {
  if (s == nullptr || *s < '0' || *s > '9') return false;
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return *end == '\0';
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (const Metric& m : ms) {
    out += strf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                out.size() > 1 ? ", " : "", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  return out + "}";
}

std::string host_json(const kbench::RunResult& r, const std::string& commit) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  return strf(
      "{\"nproc\": %d, \"hardware_concurrency\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"commit\": \"%s\", \"threads\": %s}",
      nproc, std::thread::hardware_concurrency(), KBENCH_COMPILER,
      KBENCH_BUILD_TYPE, commit.c_str(), r.threads_json.c_str());
}

void print_metrics(const char* kind, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("%s %-40s %.6g %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  kbench::RunConfig cfg;
  std::string commit = "unknown";
  unsigned long long seed = 0, seconds = 0, trace = 0;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) return usage(("missing value for " + flag).c_str());
    ++i;
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      have_seed = parse_u64(value, seed);
      if (!have_seed) return usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      have_seconds = parse_u64(value, seconds) && seconds > 0;
      if (!have_seconds) return usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      have_trace = parse_u64(value, trace) && trace <= 1;
      if (!have_trace) return usage("--trace takes 0 or 1");
    } else if (flag == "--out-dir") {
      cfg.out_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& w : kbench::workload_names()) known |= w == cfg.workload;
  if (!known) return usage("--workload must name a workload");
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  cfg.seed = seed;
  cfg.seconds = static_cast<double>(seconds);
  cfg.trace = trace == 1;

  std::error_code ec;
  std::filesystem::create_directories(cfg.out_dir, ec);
  if (ec) return usage(("cannot create " + cfg.out_dir).c_str());

  kbench::Tracer tracer(cfg.trace);
  kbench::RunResult r;
  try {
    r = kbench::run_workload(cfg, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kbench: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    std::printf("kbench repro: python3 kbench/run.py --workload %s --seed %llu "
                "(set-up or probe)\n",
                cfg.workload.c_str(), seed);
    return 1;
  }

  const std::string host = host_json(r, commit);
  std::printf("kbench workload=%s seed=%llu seconds=%llu trace=%llu\n",
              cfg.workload.c_str(), seed, seconds, trace);
  std::printf("host %s\n", host.c_str());
  std::printf("latency samples %llu\n",
              static_cast<unsigned long long>(r.latency_samples));
  std::printf("setup wall seconds");
  for (const double s : r.setup_wall_s) std::printf(" %.4f", s);
  std::printf("\n");
  print_metrics("metric", r.end_to_end);
  print_metrics("metric", r.printed);
  if (cfg.trace) {
    print_metrics("layer", r.per_layer);
    for (const kbench::SpanTotal& t : kbench::totals_by_name(tracer.spans())) {
      std::printf("span %-32s count %-6llu total_ms %.3f self_ms %.3f\n",
                  t.name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_ms, t.self_ms);
    }
    std::ofstream(strf("%s/spans-%s-seed%llu.json", cfg.out_dir.c_str(),
                       cfg.workload.c_str(), seed))
        << kbench::spans_json(tracer.spans());
  }
  for (const std::string& line : r.repros) std::printf("%s\n", line.c_str());

  std::ofstream(strf("%s/result-%s-seed%llu-trace%llu.json",
                     cfg.out_dir.c_str(), cfg.workload.c_str(), seed, trace))
      << strf("{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %llu, "
              "\"trace\": %llu, \"host\": %s, \"attempted\": %llu, "
              "\"failed\": %llu, \"latency_samples\": %llu,\n"
              " \"end_to_end\": %s,\n \"wall_clock\": %s,\n"
              " \"per_layer\": %s}\n",
              cfg.workload.c_str(), seed, seconds, trace, host.c_str(),
              static_cast<unsigned long long>(r.tally.attempted),
              static_cast<unsigned long long>(r.tally.failed),
              static_cast<unsigned long long>(r.latency_samples),
              metrics_json(r.end_to_end).c_str(),
              metrics_json(r.printed).c_str(),
              metrics_json(r.per_layer).c_str());

  // error_rate is zero on a healthy run, so the result line carries it as
  // attempted/failed rather than as a metric.
  const std::vector<Metric>& reported = cfg.trace ? r.per_layer : r.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.tally.attempted),
              static_cast<unsigned long long>(r.tally.failed),
              metrics_json(reported).c_str());
  return r.tally.failed == 0 ? 0 : 1;
}
