// kconv_cli — run any convolution configuration from the command line.
//
// One binary, four modes: one convolution (the default), the kconv-xray
// static report (--xray alone), the serving driver (--serve) and the
// tiling sweep (--autotune). Every flag is declared once, in kFlags below,
// with the modes that read it; `kconv_cli --help` prints that table. A
// flag given to a mode that never reads it exits 2 before any file is
// touched or any block runs.
#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/common/strutil.hpp"
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

/// The CLI's modes, one bit each. main() picks exactly one: xray (--xray
/// without --check, --profile or --analytic), then serve, then autotune,
/// else convolve.
enum Mode : unsigned { kConvolve = 1, kXray = 2, kServe = 4, kAutotune = 8 };
constexpr const char* kModeNames[] = {"convolve", "xray", "serve", "autotune"};
constexpr unsigned kAllModes = kConvolve | kXray | kServe | kAutotune;

const char* mode_name(unsigned mode) {
  return kModeNames[std::countr_zero(mode)];
}

/// Every flag's value; an absent flag keeps its default here.
struct Args {
  i64 c = 16, f = 32, k = 3, n = 64, vec = 0, sample = 0, threads = 1;
  i64 requests = 4, devices = 1;
  std::string algo = "auto", arch = "kepler", trace_out, plan_cache;
  std::string network, shard = "batch", telemetry_out;
  bool same = false, json = false, replay = false, no_pattern_cache = false;
  bool check = false, profile = false, analytic = false, autotune = false;
  bool serve = false, no_fuse = false, xray = false, static_prune = false;
  bool help = false;
};

/// One command-line flag. A switch (no `arg`) sets its bool; a value flag
/// takes `--name V` or `--name=V`.
struct Flag {
  const char* name;
  const char* arg;  ///< the value's placeholder in --help; null for a switch
  std::variant<bool Args::*, i64 Args::*, std::string Args::*> into;
  unsigned modes;  ///< the modes that read it
  const char* help;
};

constexpr unsigned kRun = kConvolve | kXray;
constexpr unsigned kShape = kConvolve | kXray | kAutotune;
constexpr unsigned kHost = kConvolve | kServe;

/// The flags, grouped by the modes that read them (--help prints one
/// heading per group). A '\n' in a help text starts an indented line.
const Flag kFlags[] = {
    {"--algo", "NAME", &Args::algo, kRun,
     "auto (default), special, general, implicit-gemm,\n"
     "im2col-gemm, naive, winograd or fft"},
    {"--vec", "N", &Args::vec, kRun, "load vector width (0: the kernel's)"},
    {"--same", nullptr, &Args::same, kRun, "pad to keep the image size"},
    {"--xray", nullptr, &Args::xray, kRun,
     "kconv-xray static report, exit 3 if not clean; with\n"
     "--check, --profile or --analytic, cross-validate the\n"
     "launch's counters instead (MODEL.md §10)"},
    {"--arch", "NAME", &Args::arch, kShape,
     "kepler (default), kepler4b, fermi or maxwell"},
    {"--c", "C", &Args::c, kShape, "input channels (default 16)"},
    {"--f", "F", &Args::f, kShape, "filters (default 32)"},
    {"--k", "K", &Args::k, kShape, "filter size K x K (default 3)"},
    {"--n", "N", &Args::n, kShape, "image size N x N (default 64)"},
    {"--sample", "BLOCKS", &Args::sample, kConvolve,
     "simulate at most BLOCKS spaced blocks (0: all)"},
    {"--check", nullptr, &Args::check, kConvolve,
     "kconv-check races and lints, exit 3 if not clean (§6)"},
    {"--profile", nullptr, &Args::profile, kConvolve,
     "kconv-prof phase counters and roofline (MODEL.md §7)"},
    {"--trace-out", "FILE", &Args::trace_out, kConvolve,
     "write a Perfetto JSON timeline (implies --profile)"},
    {"--threads", "T", &Args::threads, kHost,
     "host threads (0: all cores; default 1: serial)"},
    {"--replay", nullptr, &Args::replay, kHost,
     "replay repeated block classes (MODEL.md §5b)"},
    {"--no-pattern-cache", nullptr, &Args::no_pattern_cache, kHost,
     "disable the warp access-pattern memo (MODEL.md §5c)"},
    {"--devices", "N", &Args::devices, kHost,
     "shard across N simulated devices (MODEL.md §9)"},
    {"--shard", "S", &Args::shard, kHost,
     "shard axis: batch (default), channel or spatial"},
    {"--plan-cache", "DIR", &Args::plan_cache, kHost | kAutotune,
     "store and reuse plans and rankings in DIR; implies\n"
     "--replay (MODEL.md §5d)"},
    {"--analytic", nullptr, &Args::analytic, kHost | kAutotune,
     "counters from class traces, no lanes run (MODEL.md §5d)"},
    {"--serve", nullptr, &Args::serve, kServe,
     "serve --requests requests of --network (MODEL.md §8)"},
    {"--network", "NAME", &Args::network, kServe,
     "lenet, lenet-wide or vgg-tiny"},
    {"--requests", "N", &Args::requests, kServe, "requests (default 4)"},
    {"--no-fuse", nullptr, &Args::no_fuse, kServe,
     "no fused conv+bias+ReLU epilogue"},
    {"--telemetry-out", "DIR", &Args::telemetry_out, kServe,
     "write kconv-scope events, metrics and a unified\n"
     "trace.json under DIR (MODEL.md §11)"},
    {"--autotune", nullptr, &Args::autotune, kAutotune,
     "sweep the tiling space (special kernel if C is 1)"},
    {"--static-prune", nullptr, &Args::static_prune, kAutotune,
     "simulate only the xray-ranked top half (MODEL.md §10)"},
    {"--json", nullptr, &Args::json, kAllModes, "print JSON"},
    {"--help", nullptr, &Args::help, kAllModes, "print this help (also -h)"},
};

void print_usage(std::FILE* to, const char* argv0) {
  std::fprintf(
      to,
      "usage: %s [FLAG]...\n"
      "Runs one convolution (mode convolve) unless a mode flag picks\n"
      "another: --xray without --check, --profile or --analytic (xray),\n"
      "then --serve (serve), then --autotune (autotune). A flag its mode\n"
      "does not read exits 2. Value flags take --flag V or --flag=V.\n",
      argv0);
  unsigned group = 0;
  for (const Flag& fl : kFlags) {
    if (fl.modes != group) {
      group = fl.modes;
      std::string names;
      for (unsigned m = kConvolve; m <= kAutotune; m <<= 1) {
        if ((group & m) != 0)
          names += std::string(names.empty() ? "" : ", ") + mode_name(m);
      }
      std::fprintf(to, "\nread by %s:\n", names.c_str());
    }
    const int width = std::fprintf(to, "  %s %s", fl.name,
                                   fl.arg != nullptr ? fl.arg : "");
    std::fprintf(to, "%*s", std::max(1, 22 - width), "");
    for (const char* p = fl.help; *p != '\0'; ++p) {
      std::fputc(*p, to);
      if (*p == '\n') std::fprintf(to, "%22s", "");
    }
    std::fputc('\n', to);
  }
}

[[noreturn]] void usage(const char* argv0) {
  print_usage(stderr, argv0);
  std::exit(2);
}

/// Reads argv into `args` through kFlags and returns the rows given, in
/// order. --help prints the table and exits 0 where it appears; an unknown
/// flag, a missing value or a value given to a switch exits 2, and so does
/// an integer flag whose value is not wholly a decimal integer ("abc" must
/// not read as 0, nor "2x" as 2).
std::vector<const Flag*> parse(int argc, char** argv, Args& args) {
  std::vector<const Flag*> given;
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    if (a == "-h") a = "--help";
    const std::size_t eq = a.find('=');
    const std::string_view name = a.substr(0, eq);
    const auto row =
        std::find_if(std::begin(kFlags), std::end(kFlags),
                     [&](const Flag& fl) { return name == fl.name; });
    if (row == std::end(kFlags)) usage(argv[0]);
    std::string value;
    if (eq != std::string_view::npos) {
      if (row->arg == nullptr) usage(argv[0]);
      value = a.substr(eq + 1);
    } else if (row->arg != nullptr) {
      if (i + 1 >= argc) usage(argv[0]);
      value = argv[++i];
    }
    if (const auto* b = std::get_if<bool Args::*>(&row->into)) {
      args.**b = true;
    } else if (const auto* v = std::get_if<i64 Args::*>(&row->into)) {
      const char* end = value.data() + value.size();
      const auto [p, ec] = std::from_chars(value.data(), end, args.**v);
      if (ec != std::errc{} || p != end) {
        std::fprintf(stderr, "error: %s expects a decimal integer (got '%s')\n",
                     row->name, value.c_str());
        std::exit(2);
      }
    } else {
      args.*std::get<std::string Args::*>(row->into) = value;
    }
    if (args.help) {
      print_usage(stdout, argv[0]);
      std::exit(0);
    }
    given.push_back(&*row);
  }
  return given;
}

/// One tiling parameter of an autotune winner: its JSON key, its text
/// label and its value.
struct TuneParam {
  const char* key;
  const char* label;
  i64 value;
};

/// Prints a sweep's outcome; `best` lists the winner's tiling parameters
/// in print order.
template <typename Config>
void print_autotune(const char* kernel, const core::AutotuneResult<Config>& r,
                    std::initializer_list<TuneParam> best, bool json) {
  std::string params;
  if (json) {
    for (const TuneParam& p : best)
      params += strf("\"%s\": %lld, ", p.key, static_cast<long long>(p.value));
    std::printf("{\"kernel\": \"%s\", \"evaluated\": %lld, "
                "\"skipped\": %lld, \"pruned\": %lld, "
                "\"from_plan_cache\": %s, \"best\": {%s\"gflops\": %.6g}}\n",
                kernel, static_cast<long long>(r.evaluated),
                static_cast<long long>(r.skipped),
                static_cast<long long>(r.pruned),
                r.from_plan_cache ? "true" : "false", params.c_str(),
                r.best.gflops);
    return;
  }
  for (const TuneParam& p : best)
    params += strf("%s=%lld ", p.label, static_cast<long long>(p.value));
  std::printf("autotune %s: %lld evaluated, %lld skipped, %lld pruned%s\n",
              kernel, static_cast<long long>(r.evaluated),
              static_cast<long long>(r.skipped),
              static_cast<long long>(r.pruned),
              r.from_plan_cache ? " (ranking served from plan cache)" : "");
  std::printf("best: %s  %.1f GFlop/s\n", params.c_str(), r.best.gflops);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  const std::vector<const Flag*> given = parse(argc, argv, args);
  if (!args.trace_out.empty()) args.profile = true;

  const Mode mode =
      args.xray && !args.check && !args.profile && !args.analytic ? kXray
      : args.serve                                                ? kServe
      : args.autotune                                             ? kAutotune
                                                                  : kConvolve;
  for (const Flag* fl : given) {
    if ((fl->modes & mode) == 0) {
      std::fprintf(stderr, "error: %s does not apply to %s\n", fl->name,
                   mode_name(mode));
      return 2;
    }
  }

  if (args.sample < 0) {
    std::fprintf(stderr, "error: --sample must be at least 0 (got %lld)\n",
                 static_cast<long long>(args.sample));
    return 2;
  }

  sim::Arch arch;
  if (args.arch == "kepler") arch = sim::kepler_k40m();
  else if (args.arch == "kepler4b") arch = sim::kepler_k40m_4byte_banks();
  else if (args.arch == "fermi") arch = sim::fermi_m2090();
  else if (args.arch == "maxwell") arch = sim::maxwell_like();
  else usage(argv[0]);

  const std::string& algo = args.algo;
  core::ConvOptions opt;
  if (!core::parse_algo(algo, opt.algo)) usage(argv[0]);
  opt.padding = args.same ? core::Padding::Same : core::Padding::Valid;
  opt.vec_width = args.vec;
  opt.launch.sample_max_blocks = static_cast<u64>(args.sample);
  if (args.threads < 0) usage(argv[0]);
  opt.launch.num_threads = static_cast<u32>(args.threads);
  opt.launch.replay = args.replay;
  opt.launch.pattern_cache = !args.no_pattern_cache;
  opt.launch.hazard_check = args.check;
  opt.launch.lint = args.check;
  opt.launch.profile = args.profile;
  opt.launch.analytic = args.analytic;

  if (args.xray && args.sample > 0) {
    std::fprintf(stderr,
                 "error: --xray cannot be combined with --sample (the "
                 "static cross-validation contract covers the full grid)\n");
    return 2;
  }
  // Auto resolves to special (C==1) or general — both have describers.
  if (args.xray && !(algo == "auto" || algo == "special" ||
                     algo == "general" || algo == "implicit-gemm")) {
    std::fprintf(stderr,
                 "error: --xray supports the special, general and "
                 "implicit-gemm kernels (got --algo %s)\n",
                 algo.c_str());
    return 2;
  }

  sim::ShardStrategy shard_strategy = sim::ShardStrategy::Batch;
  if (!sim::parse_shard(args.shard, shard_strategy)) {
    std::fprintf(stderr,
                 "error: unknown --shard value '%s' (expected batch, "
                 "channel, or spatial)\n",
                 args.shard.c_str());
    return 2;
  }
  if (args.devices < 1) {
    std::fprintf(stderr,
                 "error: --devices must be at least 1 (got %lld)\n",
                 static_cast<long long>(args.devices));
    return 2;
  }
  opt.launch.fleet.devices = static_cast<u32>(args.devices);
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
  if (!args.plan_cache.empty()) {
    try {
      plans = std::make_unique<sim::PlanCache>(args.plan_cache);
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    opt.launch.plan_cache = plans.get();
  }

  const i64 c = args.c, f = args.f, k = args.k, n = args.n;
  const bool json = args.json;

  // kconv-xray static-only mode (docs/MODEL.md §10): derive the report
  // symbolically — no Device is constructed and zero blocks execute. The
  // run modes (--check/--profile/--analytic) run in convolve mode and
  // cross-validate instead.
  if (mode == kXray) {
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

  if (mode == kServe) {
    const i64 requests = args.requests, devices = args.devices;
    if (args.network.empty() || requests <= 0) {
      std::fprintf(stderr,
                   "error: --serve requires --network NAME and a positive "
                   "--requests count\n");
      return 2;
    }
    serve::Network net;
    std::string why;
    try {
      net = serve::make_network(args.network);
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
    if (!args.telemetry_out.empty()) {
      try {
        sink = std::make_unique<obs::TelemetrySink>(args.telemetry_out);
      } catch (const Error& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
      }
    }
    serve::ServeOptions sopt;
    sopt.threads = static_cast<u32>(args.threads);
    sopt.plan_cache = plans.get();
    sopt.fuse = !args.no_fuse;
    sopt.launch.analytic = args.analytic;
    sopt.launch.replay = args.replay;
    sopt.launch.pattern_cache = !args.no_pattern_cache;
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
        probe.fuse = sopt.fuse;
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

  if (mode == kAutotune) {
    try {
      sim::Device dev(arch);
      if (c == 1) {
        const auto r = core::autotune_special(dev, k, f, n, {}, 4, 0,
                                              plans.get(), args.analytic,
                                              args.static_prune);
        const auto& b = r.best.config;
        print_autotune("special", r,
                       {{"block_w", "W", b.block_w},
                        {"block_h", "H", b.block_h}},
                       json);
      } else {
        const auto r = core::autotune_general(dev, k, c, f, n, {}, 2, 0,
                                              plans.get(), args.analytic,
                                              args.static_prune);
        const auto& b = r.best.config;
        print_autotune("general", r,
                       {{"block_w", "W", b.block_w},
                        {"block_h", "H", b.block_h},
                        {"ftb", "FTB", b.ftb},
                        {"wt", "WT", b.wt},
                        {"ft", "FT", b.ft},
                        {"csh", "CSH", b.csh}},
                       json);
      }
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    return 0;
  }

  // Fail fast on an unwritable trace destination — before the simulation
  // spends time, and with a diagnostic instead of a lost trace.
  const std::string& trace_out = args.trace_out;
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
    if (args.xray) {
      xrep = xray::analyze(arch, core::conv2d_xray_model(arch, c, f, k, n, n,
                                                         opt));
      xcheck = xray::cross_validate(xrep, res.launch.stats, args.analytic);
    }

    if (json) {
      std::string out = sim::to_json(dev.arch(), res.launch, res.stages);
      if (args.xray) {
        out.erase(out.rfind('}'));
        while (!out.empty() && (out.back() == '\n' || out.back() == ' '))
          out.pop_back();
        out += ",\n  \"static_analysis\": " + xray::to_json(xrep, 2);
        out += ",\n  \"static_cross_check\": {\"ok\": ";
        out += xcheck.ok ? "true" : "false";
        out += ", \"mismatches\": [";
        if (!xcheck.mismatches.empty())
          out += "\"" + join(xcheck.mismatches, "\", \"") + "\"";
        out += "]}\n}";
      }
      std::printf("%s\n", out.c_str());
    } else {
      std::printf("algorithm: %s   effective: %.1f GFlop/s\n",
                  core::algo_name(res.algo_used), res.effective_gflops);
      std::printf("%s",
                  sim::format_report(arch, res.launch, res.stages).c_str());
      if (args.xray) {
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
        const i64 pad = args.same ? (k - 1) / 2 : 0;
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
    if (args.check && !res.launch.analysis.clean()) return 3;
    if (args.xray && !xcheck.ok) return 3;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
