// kconv_cli — run any convolution configuration from the command line.
//
//   kconv_cli [--algo auto|special|general|implicit-gemm|im2col-gemm|naive]
//             [--arch kepler|kepler4b|fermi|maxwell]
//             [--c C] [--f F] [--k K] [--n N] [--vec n] [--same]
//             [--sample B] [--threads T] [--replay] [--no-pattern-cache]
//             [--plan-cache DIR] [--analytic] [--autotune] [--static-prune]
//             [--serve --network NAME [--requests N] [--no-fuse]
//                      [--telemetry-out DIR]]
//             [--check] [--profile] [--xray] [--trace-out FILE] [--json]
//
// Prints the performance report (or JSON with --json) and verifies against
// the CPU reference when the launch ran every block. With --check, runs the
// kconv-check hazard detector and efficiency linter (docs/MODEL.md §6) and
// exits 3 when the launch is not clean. With --profile, runs kconv-prof
// phase accounting (docs/MODEL.md §7) and appends the per-phase/roofline
// breakdown to the report (or the "profile" block to the JSON);
// --trace-out additionally writes a Chrome trace-event / Perfetto JSON
// timeline of the first executed blocks. --plan-cache persists launch plans
// across processes (docs/MODEL.md §5d); --analytic serves counters straight
// from class traces without materializing outputs; --autotune sweeps the
// kernel's tiling space for the given shape instead of running one
// convolution. --serve runs the layer-graph serving driver instead: it
// queues --requests inference requests against the named network and
// reports batch/temperature/fusion statistics (docs/MODEL.md §8).
// --xray runs the kconv-xray symbolic analyzer (docs/MODEL.md §10): alone
// it derives the kernel's bank-conflict/coalescing/race report without
// executing a single block (exit 3 when not clean); combined with
// --check/--profile/--analytic it also runs the launch, cross-validates
// the static counters against the dynamic ones (exit 3 on any mismatch),
// and appends the static_analysis block to the report. --static-prune adds
// the xray pre-pass to --autotune: dominated candidates are never
// simulated.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/core/autotune.hpp"
#include "src/core/conv_api.hpp"
#include "src/obs/telemetry_report.hpp"
#include "src/obs/unified_trace.hpp"
#include "src/serve/serving.hpp"
#include "src/profile/trace_export.hpp"
#include "src/sim/report.hpp"
#include "src/tensor/compare.hpp"
#include "src/tensor/conv_ref.hpp"

using namespace kconv;

namespace {

void print_usage(std::FILE* to, const char* argv0) {
  std::fprintf(
      to,
      "usage: %s [--algo auto|special|general|implicit-gemm|im2col-gemm|\n"
      "                  naive|winograd|fft]\n"
      "          [--arch kepler|kepler4b|fermi|maxwell]\n"
      "          [--c C] [--f F] [--k K] [--n N] [--vec n] [--same]\n"
      "          [--sample BLOCKS] [--threads T] [--replay]\n"
      "          [--devices N] [--shard batch|channel|spatial]\n"
      "          [--no-pattern-cache] [--plan-cache DIR] [--analytic]\n"
      "          [--autotune] [--static-prune] [--check] [--profile]\n"
      "          [--xray]\n"
      "          [--serve --network NAME [--requests N] [--no-fuse]\n"
      "                   [--telemetry-out DIR]]\n"
      "          [--trace-out FILE] [--json] [--help]\n"
      "  --threads T   host threads simulating blocks (0 = all cores;\n"
      "                default 1 = exact-legacy serial semantics)\n"
      "  --devices N   shard the launch across N simulated devices\n"
      "                (MODEL.md §9): outputs and invariant counters stay\n"
      "                identical to N=1; the report gains a fleet block\n"
      "                with modeled staging/halo traffic and Demmel-Dinh\n"
      "                bound verdicts\n"
      "  --shard S     fleet shard strategy: batch (default; flat block\n"
      "                slabs), channel (filter-group axis), or spatial\n"
      "                (output-row slabs with halo exchange)\n"
      "  --replay      trace-replay repeated block classes (MODEL.md \u00a75b);\n"
      "                ignored under --check and --profile, which execute\n"
      "                every block\n"
      "  --no-pattern-cache\n"
      "                disable warp access-pattern memoization (MODEL.md\n"
      "                \u00a75c; results are bit-identical either way)\n"
      "  --plan-cache DIR\n"
      "                persist launch plans (traces, tapes, autotune\n"
      "                rankings) under DIR; a repeated launch replays\n"
      "                every block from the store (MODEL.md \u00a75d)\n"
      "  --analytic    serve counters straight from class traces: no lane\n"
      "                coroutines, no output tensors; invariant/compute\n"
      "                counters exact, gm/const-miss counters approximate;\n"
      "                exits 2 with --check or --profile\n"
      "  --autotune    sweep the kernel's tiling parameters for the given\n"
      "                K/C/F/N instead of running one convolution; with\n"
      "                --plan-cache a warm call reuses the stored ranking\n"
      "  --static-prune\n"
      "                with --autotune: rank candidates with the kconv-xray\n"
      "                symbolic pass first and simulate only the top half\n"
      "                (MODEL.md §10; the winner is unchanged)\n"
      "  --xray        kconv-xray static analysis (MODEL.md §10): derive\n"
      "                bank conflicts, coalescing, traffic-vs-bound and\n"
      "                barrier-interval races symbolically, with zero block\n"
      "                execution; exit 3 when not clean. With --check,\n"
      "                --profile or --analytic, also runs the launch and\n"
      "                cross-validates static against dynamic counters\n"
      "                (exit 3 on any mismatch)\n"
      "  --serve       run the layer-graph serving driver instead of one\n"
      "                convolution: queues --requests requests against\n"
      "                --network (lenet | lenet-wide | vgg-tiny) and reports\n"
      "                batching, cold/warm/analytic counts, and fusion\n"
      "                savings (MODEL.md §8); honors --threads,\n"
      "                --plan-cache, --analytic, and --json\n"
      "  --network NAME\n"
      "                network served by --serve (lenet | lenet-wide |\n"
      "                vgg-tiny)\n"
      "  --requests N  requests to queue in --serve mode (default 4)\n"
      "  --no-fuse     disable the fused conv+bias+ReLU epilogue in --serve\n"
      "                mode (outputs are bit-identical either way)\n"
      "  --telemetry-out DIR\n"
      "                kconv-scope (MODEL.md §11), --serve only: write\n"
      "                request-scoped events.jsonl + metrics.jsonl and a\n"
      "                unified serving/device/block Perfetto trace.json\n"
      "                under DIR, and append the telemetry/health summary.\n"
      "                Purely observational: outputs are byte-identical\n"
      "                with or without it. Composes with --devices,\n"
      "                --plan-cache and --analytic\n"
      "  --check       kconv-check: shared-memory race detection +\n"
      "                memory-efficiency lints (MODEL.md \u00a76); exit 3\n"
      "                when the kernel is not clean\n"
      "  --profile     kconv-prof: per-phase counters and roofline\n"
      "                bottleneck attribution (MODEL.md \u00a77); purely\n"
      "                observational, outputs are bit-identical\n"
      "  --trace-out FILE\n"
      "                write a Chrome trace-event / Perfetto JSON timeline\n"
      "                (implies --profile; open in ui.perfetto.dev)\n"
      "  --help        print this message and exit\n",
      argv0);
}

[[noreturn]] void usage(const char* argv0) {
  print_usage(stderr, argv0);
  std::exit(2);
}

/// The value of integer flag `flag`: the whole of `arg` must be a decimal
/// integer, else exit 2 naming the flag ("abc" must not read as 0, nor
/// "2x" as 2).
i64 int_flag(const char* flag, const char* arg) {
  i64 v = 0;
  const char* end = arg + std::strlen(arg);
  const auto [p, ec] = std::from_chars(arg, end, v);
  if (ec != std::errc{} || p != end) {
    std::fprintf(stderr, "error: %s expects a decimal integer (got '%s')\n",
                 flag, arg);
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  i64 c = 16, f = 32, k = 3, n = 64, vec = 0, sample = 0, threads = 1;
  i64 requests = 4, devices = 1;
  std::string algo = "auto", arch_name = "kepler", trace_out, plan_cache_dir;
  std::string network, shard = "batch", telemetry_out;
  bool same = false, json = false, replay = false, pattern_cache = true;
  bool check = false, profile = false, analytic = false, autotune = false;
  bool serve = false, fuse = true, xray = false, static_prune = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    auto next_int = [&]() { return int_flag(a.c_str(), next()); };
    if (a == "--help" || a == "-h") {
      print_usage(stdout, argv[0]);
      return 0;
    }
    if (a == "--algo") algo = next();
    else if (a == "--arch") arch_name = next();
    else if (a == "--c") c = next_int();
    else if (a == "--f") f = next_int();
    else if (a == "--k") k = next_int();
    else if (a == "--n") n = next_int();
    else if (a == "--vec") vec = next_int();
    else if (a == "--sample") sample = next_int();
    else if (a == "--threads") threads = next_int();
    else if (a == "--devices") devices = next_int();
    else if (a.rfind("--devices=", 0) == 0)
      devices = int_flag("--devices", a.c_str() + std::strlen("--devices="));
    else if (a == "--shard") shard = next();
    else if (a.rfind("--shard=", 0) == 0)
      shard = a.substr(std::strlen("--shard="));
    else if (a == "--same") same = true;
    else if (a == "--replay") replay = true;
    else if (a == "--no-pattern-cache") pattern_cache = false;
    else if (a == "--plan-cache") plan_cache_dir = next();
    else if (a.rfind("--plan-cache=", 0) == 0)
      plan_cache_dir = a.substr(std::strlen("--plan-cache="));
    else if (a == "--analytic") analytic = true;
    else if (a == "--autotune") autotune = true;
    else if (a == "--static-prune") static_prune = true;
    else if (a == "--xray") xray = true;
    else if (a == "--serve") serve = true;
    else if (a == "--network") network = next();
    else if (a.rfind("--network=", 0) == 0)
      network = a.substr(std::strlen("--network="));
    else if (a == "--requests") requests = next_int();
    else if (a == "--no-fuse") fuse = false;
    else if (a == "--telemetry-out") telemetry_out = next();
    else if (a.rfind("--telemetry-out=", 0) == 0)
      telemetry_out = a.substr(std::strlen("--telemetry-out="));
    else if (a == "--check") check = true;
    else if (a == "--profile") profile = true;
    else if (a == "--trace-out") trace_out = next();
    else if (a.rfind("--trace-out=", 0) == 0)
      trace_out = a.substr(std::strlen("--trace-out="));
    else if (a == "--json") json = true;
    else usage(argv[0]);
  }
  if (!trace_out.empty()) profile = true;
  if (sample < 0) {
    std::fprintf(stderr, "error: --sample must be at least 0 (got %lld)\n",
                 static_cast<long long>(sample));
    return 2;
  }

  sim::Arch arch;
  if (arch_name == "kepler") arch = sim::kepler_k40m();
  else if (arch_name == "kepler4b") arch = sim::kepler_k40m_4byte_banks();
  else if (arch_name == "fermi") arch = sim::fermi_m2090();
  else if (arch_name == "maxwell") arch = sim::maxwell_like();
  else usage(argv[0]);

  core::ConvOptions opt;
  if (algo == "auto") opt.algo = core::Algo::Auto;
  else if (algo == "special") opt.algo = core::Algo::Special;
  else if (algo == "general") opt.algo = core::Algo::General;
  else if (algo == "implicit-gemm") opt.algo = core::Algo::ImplicitGemm;
  else if (algo == "im2col-gemm") opt.algo = core::Algo::Im2colGemm;
  else if (algo == "naive") opt.algo = core::Algo::NaiveDirect;
  else if (algo == "winograd") opt.algo = core::Algo::Winograd;
  else if (algo == "fft") opt.algo = core::Algo::Fft;
  else usage(argv[0]);
  opt.padding = same ? core::Padding::Same : core::Padding::Valid;
  opt.vec_width = vec;
  opt.launch.sample_max_blocks = static_cast<u64>(sample);
  if (threads < 0) usage(argv[0]);
  opt.launch.num_threads = static_cast<u32>(threads);
  opt.launch.replay = replay;
  opt.launch.pattern_cache = pattern_cache;
  opt.launch.hazard_check = check;
  opt.launch.lint = check;
  opt.launch.profile = profile;
  opt.launch.analytic = analytic;

  if (!telemetry_out.empty() && !serve) {
    std::fprintf(stderr,
                 "error: --telemetry-out only applies to --serve runs "
                 "(single launches already have --profile/--trace-out)\n");
    return 2;
  }
  if (static_prune && !autotune) {
    std::fprintf(stderr,
                 "error: --static-prune only applies to --autotune sweeps\n");
    return 2;
  }
  if (xray && serve) {
    std::fprintf(stderr,
                 "error: --xray cannot be combined with --serve (analyze "
                 "one convolution launch at a time)\n");
    return 2;
  }
  if (xray && autotune) {
    std::fprintf(stderr,
                 "error: --xray cannot be combined with --autotune (use "
                 "--autotune --static-prune for the xray pre-pass)\n");
    return 2;
  }
  if (xray && sample > 0) {
    std::fprintf(stderr,
                 "error: --xray cannot be combined with --sample (the "
                 "static cross-validation contract covers the full grid)\n");
    return 2;
  }
  // Auto resolves to special (C==1) or general — both have describers.
  if (xray && !(algo == "auto" || algo == "special" || algo == "general" ||
                algo == "implicit-gemm")) {
    std::fprintf(stderr,
                 "error: --xray supports the special, general and "
                 "implicit-gemm kernels (got --algo %s)\n",
                 algo.c_str());
    return 2;
  }

  sim::ShardStrategy shard_strategy = sim::ShardStrategy::Batch;
  if (!sim::parse_shard(shard, shard_strategy)) {
    std::fprintf(stderr,
                 "error: unknown --shard value '%s' (expected batch, "
                 "channel, or spatial)\n",
                 shard.c_str());
    return 2;
  }
  if (devices < 1) {
    std::fprintf(stderr,
                 "error: --devices must be at least 1 (got %lld)\n",
                 static_cast<long long>(devices));
    return 2;
  }
  opt.launch.fleet.devices = static_cast<u32>(devices);
  opt.launch.fleet.strategy = shard_strategy;
  // --analytic x --check, --analytic x --profile, --devices x --analytic
  // and --devices x --sample.
  if (const std::string why = opt.launch.validate(); !why.empty()) {
    std::fprintf(stderr, "error: %s\n", why.c_str());
    return 2;
  }

  // Fail fast on an unusable plan-cache directory — before the simulation
  // spends time, mirroring the --trace-out probe below.
  std::unique_ptr<sim::PlanCache> plans;
  if (!plan_cache_dir.empty()) {
    try {
      plans = std::make_unique<sim::PlanCache>(plan_cache_dir);
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    opt.launch.plan_cache = plans.get();
  }

  // kconv-xray static-only mode (docs/MODEL.md §10): derive the report
  // symbolically — no Device is constructed and zero blocks execute. The
  // run modes (--check/--profile/--analytic) fall through and
  // cross-validate instead.
  if (xray && !check && !profile && !analytic) {
    try {
      const xray::StaticReport rep =
          xray::analyze(arch, core::conv2d_xray_model(arch, c, f, k, n, n,
                                                      opt));
      if (json) {
        std::printf("{\"static_analysis\": %s}\n",
                    xray::to_json(rep, 2).c_str());
      } else {
        std::printf("%s", xray::format_static(rep).c_str());
      }
      return rep.clean() ? 0 : 3;
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  if (serve) {
    if (network.empty() || requests <= 0) {
      std::fprintf(stderr,
                   "error: --serve requires --network NAME and a positive "
                   "--requests count\n");
      return 2;
    }
    serve::Network net;
    std::string why;
    try {
      net = serve::make_network(network);
      // Refuse shard axes a conv layer's kernel does not declare before
      // any request runs, like the validate() conflicts above.
      why = serve::shard_error(arch, net.graph, opt.launch.fleet);
    } catch (const Error& e) {
      why = e.what();
    }
    if (!why.empty()) {
      std::fprintf(stderr, "error: %s\n", why.c_str());
      return 2;
    }
    // Fail fast on an unusable telemetry directory, mirroring the
    // plan-cache probe above (exit 2 before any request runs).
    std::unique_ptr<obs::TelemetrySink> sink;
    if (!telemetry_out.empty()) {
      try {
        sink = std::make_unique<obs::TelemetrySink>(telemetry_out);
      } catch (const Error& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
      }
    }
    serve::ServeOptions sopt;
    sopt.threads = static_cast<u32>(threads);
    sopt.plan_cache = plans.get();
    sopt.fuse = fuse;
    sopt.launch.analytic = analytic;
    sopt.launch.replay = replay;
    sopt.launch.pattern_cache = pattern_cache;
    sopt.launch.fleet = opt.launch.fleet;
    sopt.telemetry = sink.get();
    try {
      serve::ServingDriver driver(sopt);
      for (i64 r = 0; r < requests; ++r)
        driver.enqueue(net,
                       serve::make_network_input(net, static_cast<u64>(r)));
      const auto replies = driver.drain();
      const auto stats = driver.stats();
      const u64 plan_stores = plans != nullptr ? plans->stores() : 0;
      double sim_total = 0.0;
      bool all_ok = true;
      for (const auto& rep : replies) {
        sim_total += rep.sim_seconds;
        // Analytic replies carry timings but no activations; everything
        // else must have produced a valid output tensor.
        if (!rep.ok && !rep.analytic) all_ok = false;
      }
      // Shared kconv-scope histogram: same nearest-rank statistic the old
      // sorted-vector code computed, one implementation (MODEL.md §11).
      const auto pct_ms = [&stats](double q) {
        return stats.latency.percentile(q) * 1e3;
      };

      // Telemetry roll-up and the unified trace. Block timelines come from
      // a profiled probe run of the served network outside the serving
      // path (fresh device, no plan cache), so serving counters and plan
      // keys are untouched by telemetry being on.
      obs::ServingTelemetry tel;
      if (sink != nullptr) {
        std::vector<profile::LabeledTimeline> blocks;
        serve::GraphRunOptions probe;
        probe.fuse = fuse;
        probe.launch.profile = true;
        probe.launch.profile_timeline_blocks = 4;
        probe.launch.fleet = opt.launch.fleet;
        sim::Device pdev(arch);
        serve::GraphRun pr = serve::run_graph(
            pdev, net.graph, serve::make_network_input(net, 0), probe);
        for (const serve::NodeRun& nr : pr.nodes) {
          for (const profile::BlockTimeline& tl :
               nr.launch.profile.timelines) {
            blocks.push_back(profile::LabeledTimeline{nr.name, tl});
          }
        }
        const std::string trace = obs::unified_trace_json(*sink, arch,
                                                          blocks);
        const std::string tpath = sink->dir() + "/trace.json";
        std::FILE* tf = std::fopen(tpath.c_str(), "w");
        if (tf == nullptr) {
          std::fprintf(stderr,
                       "error: cannot write unified trace '%s'\n",
                       tpath.c_str());
          return 2;
        }
        std::fwrite(trace.data(), 1, trace.size(), tf);
        std::fclose(tf);

        tel = {.dir = sink->dir(),
               .events = sink->events_written(),
               .snapshots = sink->snapshots_written(),
               .metric_groups = sink->metrics_copy().groups().size(),
               .plan_stores = plan_stores,
               .stats = stats};
      }
      if (json) {
        std::printf(
            "{\"serve\": {\"network\": \"%s\", \"requests\": %llu, "
            "\"batches\": %llu, \"cold\": %llu, \"warm\": %llu, "
            "\"analytic\": %llu, \"fused_pairs\": %llu, "
            "\"fusion_gm_bytes_eliminated\": %.0f, ",
            net.name.c_str(), static_cast<unsigned long long>(stats.processed),
            static_cast<unsigned long long>(stats.batches),
            static_cast<unsigned long long>(stats.cold),
            static_cast<unsigned long long>(stats.warm),
            static_cast<unsigned long long>(stats.analytic),
            static_cast<unsigned long long>(stats.fused_pairs),
            stats.fusion_gm_bytes_eliminated);
        // §5d outcome taxonomy: the named fields sum to the total conv
        // launch count (asserted in CI's serving smoke).
        std::printf(
            "\"plan_cache\": %s, ",
            obs::taxonomy_to_json(stats.plan_taxonomy, plan_stores).c_str());
        if (devices > 1) {
          std::printf(
              "\"fleet\": {\"devices\": %lld, \"shard\": \"%s\", "
              "\"h2d_bytes\": %llu, \"d2h_bytes\": %llu, "
              "\"d2d_bytes\": %llu, \"transfer_seconds\": %.6g}, ",
              static_cast<long long>(devices), sim::shard_name(shard_strategy),
              static_cast<unsigned long long>(stats.fleet_h2d_bytes),
              static_cast<unsigned long long>(stats.fleet_d2h_bytes),
              static_cast<unsigned long long>(stats.fleet_d2d_bytes),
              stats.fleet_transfer_seconds);
        }
        std::printf(
            "\"sim_seconds_total\": %.6g, "
            "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f",
            sim_total, pct_ms(0.50), pct_ms(0.95), pct_ms(0.99));
        if (sink != nullptr) {
          std::printf(", \"telemetry\": %s",
                      obs::telemetry_to_json(tel, 2).c_str());
        }
        std::printf("}}\n");
      } else {
        std::printf("served %llu request(s) against %s in %llu batch(es)\n",
                    static_cast<unsigned long long>(stats.processed),
                    net.name.c_str(),
                    static_cast<unsigned long long>(stats.batches));
        std::printf("temperature: %llu cold, %llu warm, %llu analytic\n",
                    static_cast<unsigned long long>(stats.cold),
                    static_cast<unsigned long long>(stats.warm),
                    static_cast<unsigned long long>(stats.analytic));
        std::printf("fusion: %llu conv+bias+ReLU pair(s), %.0f bytes of "
                    "simulated GM traffic eliminated\n",
                    static_cast<unsigned long long>(stats.fused_pairs),
                    stats.fusion_gm_bytes_eliminated);
        std::printf("plan cache: %llu launches (hit=%llu miss=%llu "
                    "stale=%llu corrupt=%llu disabled=%llu unplanned=%llu), "
                    "stores=%llu\n",
                    static_cast<unsigned long long>(
                        stats.plan_taxonomy.total()),
                    static_cast<unsigned long long>(stats.plan_taxonomy.hit),
                    static_cast<unsigned long long>(stats.plan_taxonomy.miss),
                    static_cast<unsigned long long>(
                        stats.plan_taxonomy.stale_total()),
                    static_cast<unsigned long long>(
                        stats.plan_taxonomy.corrupt +
                        stats.plan_taxonomy.corrupt_payload),
                    static_cast<unsigned long long>(
                        stats.plan_taxonomy.disabled),
                    static_cast<unsigned long long>(
                        stats.plan_taxonomy.unplanned),
                    static_cast<unsigned long long>(plan_stores));
        if (devices > 1) {
          std::printf("fleet: %lld devices (shard=%s), staged %llu B h2d, "
                      "%llu B d2h, %llu B d2d (%.6f s modeled transfers)\n",
                      static_cast<long long>(devices),
                      sim::shard_name(shard_strategy),
                      static_cast<unsigned long long>(stats.fleet_h2d_bytes),
                      static_cast<unsigned long long>(stats.fleet_d2h_bytes),
                      static_cast<unsigned long long>(stats.fleet_d2d_bytes),
                      stats.fleet_transfer_seconds);
        }
        std::printf("simulated device time: %.6f s total, %.6f s/request\n",
                    sim_total, sim_total / static_cast<double>(requests));
        std::printf("host latency: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n",
                    pct_ms(0.50), pct_ms(0.95), pct_ms(0.99));
        if (sink != nullptr) {
          std::printf("%s", obs::format_telemetry(tel).c_str());
          std::printf("unified trace written: %s/trace.json\n",
                      sink->dir().c_str());
        }
      }
      if (!all_ok) return 1;
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    return 0;
  }

  // Fail fast on an unwritable trace destination — before the simulation
  // spends time, and with a diagnostic instead of a lost trace.
  if (!trace_out.empty()) {
    std::FILE* probe = std::fopen(trace_out.c_str(), "w");
    if (probe == nullptr) {
      std::fprintf(stderr,
                   "error: cannot open trace output file '%s' for writing "
                   "(check that the directory exists and is writable)\n",
                   trace_out.c_str());
      return 2;
    }
    std::fclose(probe);
  }

  if (autotune) {
    try {
      sim::Device dev(arch);
      if (c == 1) {
        const auto r = core::autotune_special(dev, k, f, n, {}, 4, 0,
                                              plans.get(), analytic,
                                              static_prune);
        if (json) {
          std::printf("{\"kernel\": \"special\", \"evaluated\": %lld, "
                      "\"skipped\": %lld, \"pruned\": %lld, "
                      "\"from_plan_cache\": %s, "
                      "\"best\": {\"block_w\": %lld, \"block_h\": %lld, "
                      "\"gflops\": %.6g}}\n",
                      static_cast<long long>(r.evaluated),
                      static_cast<long long>(r.skipped),
                      static_cast<long long>(r.pruned),
                      r.from_plan_cache ? "true" : "false",
                      static_cast<long long>(r.best.config.block_w),
                      static_cast<long long>(r.best.config.block_h),
                      r.best.gflops);
        } else {
          std::printf("autotune special: %lld evaluated, %lld skipped, "
                      "%lld pruned%s\n",
                      static_cast<long long>(r.evaluated),
                      static_cast<long long>(r.skipped),
                      static_cast<long long>(r.pruned),
                      r.from_plan_cache ? " (ranking served from plan cache)"
                                        : "");
          std::printf("best: W=%lld H=%lld   %.1f GFlop/s\n",
                      static_cast<long long>(r.best.config.block_w),
                      static_cast<long long>(r.best.config.block_h),
                      r.best.gflops);
        }
      } else {
        const auto r = core::autotune_general(dev, k, c, f, n, {}, 2, 0,
                                              plans.get(), analytic,
                                              static_prune);
        if (json) {
          std::printf("{\"kernel\": \"general\", \"evaluated\": %lld, "
                      "\"skipped\": %lld, \"pruned\": %lld, "
                      "\"from_plan_cache\": %s, "
                      "\"best\": {\"block_w\": %lld, \"block_h\": %lld, "
                      "\"ftb\": %lld, \"wt\": %lld, \"ft\": %lld, "
                      "\"csh\": %lld, \"gflops\": %.6g}}\n",
                      static_cast<long long>(r.evaluated),
                      static_cast<long long>(r.skipped),
                      static_cast<long long>(r.pruned),
                      r.from_plan_cache ? "true" : "false",
                      static_cast<long long>(r.best.config.block_w),
                      static_cast<long long>(r.best.config.block_h),
                      static_cast<long long>(r.best.config.ftb),
                      static_cast<long long>(r.best.config.wt),
                      static_cast<long long>(r.best.config.ft),
                      static_cast<long long>(r.best.config.csh),
                      r.best.gflops);
        } else {
          std::printf("autotune general: %lld evaluated, %lld skipped, "
                      "%lld pruned%s\n",
                      static_cast<long long>(r.evaluated),
                      static_cast<long long>(r.skipped),
                      static_cast<long long>(r.pruned),
                      r.from_plan_cache ? " (ranking served from plan cache)"
                                        : "");
          std::printf("best: W=%lld H=%lld FTB=%lld WT=%lld FT=%lld "
                      "CSH=%lld   %.1f GFlop/s\n",
                      static_cast<long long>(r.best.config.block_w),
                      static_cast<long long>(r.best.config.block_h),
                      static_cast<long long>(r.best.config.ftb),
                      static_cast<long long>(r.best.config.wt),
                      static_cast<long long>(r.best.config.ft),
                      static_cast<long long>(r.best.config.csh),
                      r.best.gflops);
        }
      }
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    return 0;
  }

  try {
    Rng rng(1);
    tensor::Tensor img = tensor::Tensor::image(c, n, n);
    img.fill_random(rng);
    tensor::Tensor flt = tensor::Tensor::filters(f, c, k);
    flt.fill_random(rng);

    // Shard axes the kernel does not declare are a usage error (exit 2),
    // like the validate() conflicts above.
    if (const std::string why =
            core::conv2d_shard_error(arch, c, f, k, n, n, opt);
        !why.empty()) {
      std::fprintf(stderr, "error: %s\n", why.c_str());
      return 2;
    }
    sim::Device dev(arch);
    const auto res = core::conv2d(dev, img, flt, opt);

    // Cross-validation mode (docs/MODEL.md §10): the symbolic counters
    // must be bit-equal to what the launch just measured (the analytic
    // launch relaxes only the address-dependent gm_sectors).
    xray::StaticReport xrep;
    xray::CrossCheck xcheck;
    if (xray) {
      xrep = xray::analyze(arch, core::conv2d_xray_model(arch, c, f, k, n, n,
                                                         opt));
      xcheck = xray::cross_validate(xrep, res.launch.stats, analytic);
    }

    if (json) {
      std::string out = sim::to_json(dev.arch(), res.launch);
      if (xray) {
        out.erase(out.rfind('}'));
        while (!out.empty() && (out.back() == '\n' || out.back() == ' '))
          out.pop_back();
        out += ",\n  \"static_analysis\": " + xray::to_json(xrep, 2);
        out += ",\n  \"static_cross_check\": {\"ok\": ";
        out += xcheck.ok ? "true" : "false";
        out += ", \"mismatches\": [";
        for (std::size_t m = 0; m < xcheck.mismatches.size(); ++m) {
          if (m > 0) out += ", ";
          out += "\"";
          out += xcheck.mismatches[m];
          out += "\"";
        }
        out += "]}\n}";
      }
      std::printf("%s\n", out.c_str());
    } else {
      std::printf("algorithm: %s   effective: %.1f GFlop/s\n",
                  core::algo_name(res.algo_used), res.effective_gflops);
      std::printf("%s", sim::format_report(dev.arch(), res.launch).c_str());
      if (xray) {
        std::printf("%s", xray::format_static(xrep).c_str());
        if (xcheck.ok) {
          std::printf("static counters match the launch: yes\n");
        } else {
          std::printf("static counters match the launch: NO\n");
          for (const std::string& m : xcheck.mismatches)
            std::printf("  mismatch %s\n", m.c_str());
        }
      }
      if (res.output_valid) {
        const i64 pad = same ? (k - 1) / 2 : 0;
        const bool ok = tensor::allclose(
            res.output, tensor::conv2d_reference(img, flt, pad), 2e-4, 2e-4);
        std::printf("matches CPU reference: %s\n", ok ? "yes" : "NO");
        if (!ok) return 1;
      }
    }
    if (!trace_out.empty()) {
      const std::string trace =
          profile::chrome_trace_json(dev.arch(), res.launch.profile);
      std::FILE* out = std::fopen(trace_out.c_str(), "w");
      if (out == nullptr) {
        std::fprintf(stderr, "error: cannot write trace output file '%s'\n",
                     trace_out.c_str());
        return 2;
      }
      std::fwrite(trace.data(), 1, trace.size(), out);
      std::fclose(out);
      if (!json) {
        std::printf("trace written: %s (%llu timeline blocks)\n",
                    trace_out.c_str(),
                    static_cast<unsigned long long>(
                        res.launch.profile.timelines.size()));
      }
    }
    if (check && !res.launch.analysis.clean()) return 3;
    if (xray && !xcheck.ok) return 3;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
