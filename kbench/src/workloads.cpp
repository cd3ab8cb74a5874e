#include "kbench/src/workloads.hpp"

#include <sys/resource.h>
#include <time.h>

#include <array>
#include <chrono>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "kbench/src/gen.hpp"
#include "src/analysis/static/xray.hpp"
#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/common/strutil.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/autotune.hpp"
#include "src/core/conv_api.hpp"
#include "src/serve/serving.hpp"
#include "src/sim/plan_io.hpp"
#include "src/tensor/compare.hpp"
#include "src/tensor/conv_ref.hpp"

namespace kbench {

namespace {

namespace fs = std::filesystem;
using namespace kconv;
using Clock = std::chrono::steady_clock;

/// Set-ups per run: at least kSetups, then more until they used
/// kSetupCpuSeconds of CPU time in all. Their median is setup_s.
constexpr std::size_t kSetups = 5;
constexpr std::size_t kMaxSetups = 40;
constexpr double kSetupCpuSeconds = 1.5;
/// Host threads for parallel launches, serving workers and autotune sweeps.
/// One CPU of a 4-vCPU host is left to the system: there the same run
/// repeated spread 11% in ops_per_s at four threads and 3% at three.
constexpr u32 kThreads = 3;
/// The sim.launch probe compares 1 against 4 threads.
constexpr u32 kProbeThreads = 4;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds of every thread of the process. The kernel leaves out time
/// the hypervisor steals from a virtual CPU, which wall time includes.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Wall and CPU time since construction.
struct Stopwatch {
  Clock::time_point wall0 = Clock::now();
  double cpu0 = cpu_now();
  double wall() const { return since(wall0); }
  double cpu() const { return cpu_now() - cpu0; }
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

const sim::Arch& arch() {
  static const sim::Arch a = sim::kepler_k40m();
  return a;
}

/// What one timed loop measured.
struct LoopOut {
  std::vector<double> latency_s;  ///< wall seconds, one per completed op
  std::vector<double> cpu_s;      ///< CPU seconds, one per completed op
  Tally tally;
  double work_s = 0.0;      ///< summed op wall time, output checks excluded
  double cpu_work_s = 0.0;  ///< summed op CPU time, output checks excluded
  double blocks = 0.0;      ///< simulated blocks, replayed ones included
  /// Launches the executor ran directly: their CPU seconds, executed warp
  /// instructions and pattern-cache counters.
  double launch_cpu_s = 0.0;
  double warp_instrs = 0.0;
  double pattern_hits = 0.0;
  double pattern_lookups = 0.0;
  /// Workload-specific sums and sample series.
  std::map<std::string, double> sums;
  std::map<std::string, std::vector<double>> series;
  std::vector<std::string> repros;

  /// Records one completed op; returns its CPU seconds.
  double op(const Stopwatch& w) {
    const double wall = w.wall(), cpu = w.cpu();
    latency_s.push_back(wall);
    cpu_s.push_back(cpu);
    work_s += wall;
    cpu_work_s += cpu;
    return cpu;
  }

  /// Adds a launch that took `cpu` seconds to the simulated work.
  void account(const sim::LaunchResult& r, double cpu) {
    const sim::KernelStats& s = r.stats;
    blocks += static_cast<double>(r.blocks_executed);
    launch_cpu_s += cpu;
    warp_instrs += static_cast<double>(s.fma_warp_instrs + s.alu_warp_instrs +
                                       s.smem_instrs + s.gm_instrs +
                                       s.const_instrs);
    pattern_hits += static_cast<double>(s.pattern_hits);
    pattern_lookups += static_cast<double>(s.pattern_lookups);
  }
};

/// The modeled outcome of one op of the op list. Deterministic: every
/// repeat of the op must reproduce it bit for bit.
struct ModelRecord {
  bool seen = false;
  double seconds = 0.0;  ///< modeled device seconds
  double flops = 0.0;    ///< useful convolution flops
  sim::LaunchResult launch;

  /// Records the first outcome; false when a repeat differs from it.
  bool record(double sec, double fl, const sim::LaunchResult& r) {
    if (seen) return sec == seconds && fl == flops;
    seen = true;
    seconds = sec;
    flops = fl;
    launch = r;
    return true;
  }
};

double conv_flops(const ConvShape& s) {
  const i64 out = s.n - s.k + 1;
  return core::conv_flops(s.c, s.f, s.k, out, out);
}

/// model_us_per_op and model_gflops over a whole op list.
std::pair<double, double> model_summary(const std::vector<ModelRecord>& rs) {
  double sec = 0.0, flops = 0.0;
  for (const ModelRecord& r : rs) {
    sec += r.seconds;
    flops += r.flops;
  }
  return {ratio(sec, static_cast<double>(rs.size())) * 1e6,
          ratio(flops, sec) / 1e9};
}

/// The kernels.* metrics: modeled memory efficiency of a set of launches.
struct KernelAgg {
  double smem_cycles = 0, smem_instrs = 0, sectors = 0, useful = 0;
  double dram = 0, flops = 0, occupancy = 0, efficiency = 0, launches = 0;

  void add(const sim::LaunchResult& r) {
    const sim::KernelStats& s = r.stats;
    smem_cycles += static_cast<double>(s.smem_request_cycles);
    smem_instrs += static_cast<double>(s.smem_instrs);
    sectors += static_cast<double>(s.gm_sectors);
    useful += static_cast<double>(s.gm_bytes_useful);
    dram += static_cast<double>(s.gm_sectors_dram);
    flops += s.flops();
    occupancy += r.timing.occupancy.fraction;
    efficiency += r.timing.sm_efficiency;
    launches += 1;
  }
  void emit(std::map<std::string, double>& m) const {
    const double sector = arch().gm_sector_bytes;
    m["kernels.smem_replay_factor"] = ratio(smem_cycles, smem_instrs);
    m["kernels.gm_overfetch"] = ratio(sectors * sector, useful);
    m["kernels.dram_bytes_per_flop"] = ratio(dram * sector, flops);
    m["kernels.occupancy"] = ratio(occupancy, launches);
    m["kernels.sm_efficiency"] = ratio(efficiency, launches);
  }
};

bool bytes_equal(const tensor::Tensor& a, const tensor::Tensor& b) {
  const auto fa = a.flat();
  const auto fb = b.flat();
  return a.shape() == b.shape() &&
         std::memcmp(fa.data(), fb.data(), fa.size() * sizeof(float)) == 0;
}

/// The counters every launch mode must reproduce exactly (the two
/// cache-warmth counters and the pattern-cache counters may move).
bool invariant_stats_equal(const sim::KernelStats& a,
                           const sim::KernelStats& b) {
  return a.fma_lane_ops == b.fma_lane_ops &&
         a.fma_warp_instrs == b.fma_warp_instrs &&
         a.alu_lane_ops == b.alu_lane_ops &&
         a.alu_warp_instrs == b.alu_warp_instrs &&
         a.smem_instrs == b.smem_instrs &&
         a.smem_request_cycles == b.smem_request_cycles &&
         a.smem_bytes == b.smem_bytes && a.gm_instrs == b.gm_instrs &&
         a.gm_sectors == b.gm_sectors &&
         a.gm_bytes_useful == b.gm_bytes_useful &&
         a.const_instrs == b.const_instrs &&
         a.const_requests == b.const_requests && a.barriers == b.barriers &&
         a.gm_phases == b.gm_phases && a.gm_dep_phases == b.gm_dep_phases &&
         a.divergent_retires == b.divergent_retires &&
         a.max_warp_instrs == b.max_warp_instrs &&
         a.blocks_executed == b.blocks_executed;
}

std::string describe(const ConvShape& s) {
  return strf("c=%lld f=%lld k=%lld n=%lld", static_cast<long long>(s.c),
              static_cast<long long>(s.f), static_cast<long long>(s.k),
              static_cast<long long>(s.n));
}

tensor::Tensor random_tensor(i64 n, i64 c, i64 h, i64 w, Rng& rng) {
  tensor::Tensor t(n, c, h, w);
  t.fill_random(rng);
  return t;
}

// ---------------------------------------------------------------------------
// Plan-store probe: times the plan_cache and plan_io public functions over
// every entry a store directory holds.

struct PlanProbe {
  double load_ms = 0, store_ms = 0, deserialize_ms = 0, serialize_ms = 0;
  double bytes_per_entry = 0;
};

/// The key inside a blob's envelope (magic, format version, key, ...).
std::string peek_key(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  const std::string blob((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  sim::PlanReader r(blob);
  char magic[8];
  r.raw(magic, sizeof(magic));
  (void)r.get_u32();
  std::string key = r.get_str();
  return r.ok() ? key : std::string();
}

PlanProbe probe_plan_store(const std::string& dir, const std::string& scratch,
                           Tracer& tr) {
  std::vector<std::string> keys;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() == ".kplan") {
      if (std::string k = peek_key(e.path()); !k.empty()) keys.push_back(k);
    }
  }
  PlanProbe p;
  if (keys.empty()) return p;
  sim::PlanCache src(dir);
  fs::remove_all(scratch);
  sim::PlanCache dst(scratch);
  std::map<std::string, std::string> payloads;
  double load_s = 0, store_s = 0;
  for (const std::string& key : keys) {
    std::string blob;
    std::string_view view;
    const auto t0 = Clock::now();
    bool hit = false;
    {
      ScopedSpan s(tr, "sim.plan_cache.load", 0);
      hit = src.load_view(key, blob, view);
    }
    load_s += since(t0);
    if (!hit) continue;
    payloads[key] = std::string(view);
    const auto t1 = Clock::now();
    {
      ScopedSpan s(tr, "sim.plan_cache.store", 0);
      dst.store(key, payloads[key]);
    }
    store_s += since(t1);
  }
  // Plans with their tape sidecars; autotune rankings are not plans.
  double deser_s = 0, ser_s = 0;
  double plans = 0;
  for (const auto& [key, payload] : payloads) {
    if (key.ends_with("|tapes")) continue;
    sim::LaunchPlan plan;
    auto t0 = Clock::now();
    bool ok = false;
    {
      ScopedSpan s(tr, "sim.plan_io.deserialize", 0);
      ok = sim::deserialize_plan(payload, plan);
      if (ok) {
        const auto tapes = payloads.find(sim::plan_tape_key(key));
        if (tapes != payloads.end()) {
          ok = sim::deserialize_tapes(tapes->second, plan);
        }
      }
    }
    deser_s += since(t0);
    if (!ok) continue;
    t0 = Clock::now();
    {
      ScopedSpan s(tr, "sim.plan_io.serialize", 0);
      const std::string a = sim::serialize_plan(plan);
      const std::string b = sim::serialize_tapes(plan);
      KCONV_CHECK(!a.empty() || !b.empty(), "empty plan serialization");
    }
    ser_s += since(t0);
    plans += 1;
  }
  const double n = static_cast<double>(keys.size());
  p.load_ms = load_s / n * 1e3;
  p.store_ms = ratio(store_s, static_cast<double>(payloads.size())) * 1e3;
  p.deserialize_ms = ratio(deser_s, plans) * 1e3;
  p.serialize_ms = ratio(ser_s, plans) * 1e3;
  p.bytes_per_entry = static_cast<double>(src.disk_bytes()) / n;
  fs::remove_all(scratch);
  return p;
}

void emit(const PlanProbe& p, std::map<std::string, double>& m) {
  m["sim.plan_cache.load_ms"] = p.load_ms;
  m["sim.plan_cache.store_ms"] = p.store_ms;
  m["sim.plan_cache.bytes_per_entry"] = p.bytes_per_entry;
  m["sim.plan_io.deserialize_ms"] = p.deserialize_ms;
  m["sim.plan_io.serialize_ms"] = p.serialize_ms;
}

/// Per-launch figures shared by the workloads that run conv2d directly.
void emit_launch_layer(const LoopOut& traced, std::map<std::string, double>& m) {
  m["sim.host_ns_per_warp_instr"] =
      ratio(traced.launch_cpu_s * 1e9, traced.warp_instrs);
  m["sim.pattern_cache.hit_rate"] =
      ratio(traced.pattern_hits, traced.pattern_lookups);
}

// ---------------------------------------------------------------------------

class Workload {
 public:
  explicit Workload(RunConfig cfg) : cfg_(std::move(cfg)) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds every input, reference output and store from scratch.
  virtual void setup() = 0;
  /// Runs op `index` of the cycled op list (serve-warm: one round).
  virtual void step(u64 index, LoopOut& out, Tracer& tr) = 0;
  /// model_us_per_op and model_gflops over the whole op list; runs any op
  /// the loop did not reach.
  virtual std::pair<double, double> model() = 0;
  /// Per-layer metrics from the traced loop plus probes under spans.
  virtual void layers(const LoopOut& traced, Tracer& tr,
                      std::map<std::string, double>& m) = 0;
  virtual std::string threads_json() const = 0;

 protected:
  /// Runs `op`, recording a throw as a failed op with its repro line.
  template <typename Fn>
  void guarded(u64 index, const std::string& what, LoopOut& out, Fn&& op) {
    try {
      if (op()) {
        out.tally.record(true);
        return;
      }
      fail(index, what + ": output check failed", out);
    } catch (const std::exception& e) {
      fail(index, what + ": " + e.what(), out);
    }
  }

  /// Records op `index` as failed, with its repro line.
  void fail(u64 index, const std::string& what, LoopOut& out) const {
    out.tally.record(false);
    out.repros.push_back(strf(
        "kbench repro: python3 kbench/run.py --workload %s --seed %llu "
        "(op %llu: %s)",
        cfg_.workload.c_str(), static_cast<unsigned long long>(cfg_.seed),
        static_cast<unsigned long long>(index), what.c_str()));
  }

  RunConfig cfg_;
};

// ---------------------------------------------------------------------------
// conv-layers: one core::conv2d per op, full execution on kThreads threads.

class ConvLayers final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    shapes_ = conv_layer_shapes(cfg_.seed);
    Rng rng(cfg_.seed);
    in_.clear();
    flt_.clear();
    for (const ConvShape& s : shapes_) {
      in_.push_back(random_tensor(1, s.c, s.n, s.n, rng));
      flt_.push_back(random_tensor(s.f, s.c, s.k, s.k, rng));
    }
    // The serial oracle is most of the set-up. One shape per task spreads it
    // over several CPUs, so set-up time does not hang on one CPU's speed.
    ref_.assign(shapes_.size(), tensor::Tensor());
    ThreadPool pool(kThreads);
    pool.parallel_for(0, shapes_.size(), 1, [&](u64 begin, u64 end, u32) {
      for (u64 i = begin; i < end; ++i) {
        ref_[i] = tensor::conv2d_reference(in_[i], flt_[i]);
      }
    });
    records_.assign(shapes_.size(), ModelRecord{});
  }

  void step(u64 index, LoopOut& out, Tracer& tr) override {
    const std::size_t i = index % shapes_.size();
    guarded(index, describe(shapes_[i]), out, [&] {
      const Stopwatch w;
      core::ConvResult r;
      {
        ScopedSpan s(tr, "core.conv2d", index);
        r = run(i, kThreads);
      }
      out.account(r.launch, out.op(w));
      return r.output_valid && tensor::allclose(r.output, ref_[i]) &&
             records_[i].record(r.total_seconds, conv_flops(shapes_[i]),
                                r.launch);
    });
  }

  std::pair<double, double> model() override {
    for (std::size_t i = 0; i < shapes_.size(); ++i) {
      if (records_[i].seen) continue;
      const core::ConvResult r = run(i, kThreads);
      records_[i].record(r.total_seconds, conv_flops(shapes_[i]), r.launch);
    }
    return model_summary(records_);
  }

  void layers(const LoopOut& traced, Tracer& tr,
              std::map<std::string, double>& m) override {
    emit_launch_layer(traced, m);
    m["core.conv2d.ms_full"] = median(traced.latency_s) * 1e3;
    KernelAgg k;
    for (const ModelRecord& r : records_) k.add(r.launch);
    k.emit(m);
    // The same ops on 1 and on 4 host threads.
    double s1 = 0, s4 = 0;
    for (std::size_t i = 0; i < shapes_.size(); ++i) {
      auto t0 = Clock::now();
      {
        ScopedSpan s(tr, "sim.launch.1t", i);
        run(i, 1);
      }
      s1 += since(t0);
      t0 = Clock::now();
      {
        ScopedSpan s(tr, "sim.launch.4t", i);
        run(i, kProbeThreads);
      }
      s4 += since(t0);
    }
    const double n = static_cast<double>(shapes_.size());
    m["sim.launch.ms_1t"] = s1 / n * 1e3;
    m["sim.launch.ms_4t"] = s4 / n * 1e3;
    m["sim.launch.speedup_4t"] = ratio(s1, s4);
  }

  std::string threads_json() const override {
    return strf("{\"launch\": %u, \"launch_probe\": [1, %u], \"setup\": %u}",
                kThreads, kProbeThreads, kThreads);
  }

 private:
  core::ConvResult run(std::size_t i, u32 threads) const {
    sim::Device dev(arch());
    core::ConvOptions o;
    o.launch.num_threads = threads;
    return core::conv2d(dev, in_[i], flt_[i], o);
  }

  std::vector<ConvShape> shapes_;
  std::vector<tensor::Tensor> in_, flt_, ref_;
  std::vector<ModelRecord> records_;
};

// ---------------------------------------------------------------------------
// conv-fleet: one sharded core::conv2d per op on a serial host.

class ConvFleet final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    ops_ = fleet_ops(cfg_.seed);
    shapes_.clear();
    for (const FleetOp& op : ops_) {
      if (std::find(shapes_.begin(), shapes_.end(), op.shape) ==
          shapes_.end()) {
        shapes_.push_back(op.shape);
      }
    }
    Rng rng(cfg_.seed);
    in_.clear();
    flt_.clear();
    single_.clear();
    for (const ConvShape& s : shapes_) {
      in_.push_back(random_tensor(1, s.c, s.n, s.n, rng));
      flt_.push_back(random_tensor(s.f, s.c, s.k, s.k, rng));
      // Outputs and invariant counters do not depend on the thread count;
      // several threads keep set-up time off one CPU's speed.
      sim::Device dev(arch());
      core::ConvOptions o;
      o.launch.num_threads = kThreads;
      single_.push_back(core::conv2d(dev, in_.back(), flt_.back(), o));
      KCONV_CHECK(single_.back().output_valid, "single-device run failed");
    }
    records_.assign(ops_.size(), ModelRecord{});
  }

  void step(u64 index, LoopOut& out, Tracer& tr) override {
    const std::size_t i = index % ops_.size();
    const std::size_t s = shape_index(i);
    guarded(index, describe(i), out, [&] {
      const Stopwatch w;
      core::ConvResult r;
      {
        ScopedSpan span(tr, "core.conv2d", index);
        r = run(i);
      }
      out.account(r.launch, out.op(w));
      return r.output_valid && bytes_equal(r.output, single_[s].output) &&
             invariant_stats_equal(r.launch.stats, single_[s].launch.stats) &&
             records_[i].record(r.total_seconds, conv_flops(ops_[i].shape),
                                r.launch);
    });
  }

  std::pair<double, double> model() override {
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (records_[i].seen) continue;
      const core::ConvResult r = run(i);
      records_[i].record(r.total_seconds, conv_flops(ops_[i].shape),
                         r.launch);
    }
    return model_summary(records_);
  }

  void layers(const LoopOut& traced, Tracer& /*tr*/,
              std::map<std::string, double>& m) override {
    emit_launch_layer(traced, m);
    m["sim.fleet.host_ms_per_launch"] = median(traced.latency_s) * 1e3;
    // Modeled device time spent staging and exchanging, of all device time.
    double transfer = 0, busy = 0, comm_bound = 0;
    KernelAgg k;
    for (const ModelRecord& r : records_) {
      for (const sim::FleetDeviceReport& d : r.launch.fleet.device_reports) {
        transfer += d.transfer_seconds;
        busy += d.transfer_seconds + d.compute_seconds;
        if (d.transfer_seconds > d.compute_seconds) comm_bound += 1;
      }
      k.add(r.launch);
    }
    m["sim.fleet.transfer_share"] = ratio(transfer, busy);
    m["sim.fleet.comm_bound_devices"] =
        comm_bound / static_cast<double>(records_.size());
    k.emit(m);
  }

  std::string threads_json() const override {
    return strf("{\"launch\": 1, \"devices\": [2, 4], \"setup\": %u}",
                kThreads);
  }

 private:
  std::size_t shape_index(std::size_t i) const {
    return static_cast<std::size_t>(
        std::find(shapes_.begin(), shapes_.end(), ops_[i].shape) -
        shapes_.begin());
  }

  std::string describe(std::size_t i) const {
    return strf("%s devices=%u shard=%s",
                kbench::describe(ops_[i].shape).c_str(), ops_[i].devices,
                sim::shard_name(ops_[i].shard));
  }

  core::ConvResult run(std::size_t i) const {
    const std::size_t s = shape_index(i);
    sim::Device dev(arch());
    core::ConvOptions o;
    o.launch.num_threads = 1;
    o.launch.fleet.devices = ops_[i].devices;
    o.launch.fleet.strategy = ops_[i].shard;
    return core::conv2d(dev, in_[s], flt_[s], o);
  }

  std::vector<FleetOp> ops_;
  std::vector<ConvShape> shapes_;
  std::vector<tensor::Tensor> in_, flt_;
  std::vector<core::ConvResult> single_;
  std::vector<ModelRecord> records_;
};

// ---------------------------------------------------------------------------
// tune-cold: one statically pruned autotune sweep per op, against a fresh,
// empty plan store.

/// Sampled blocks per probe launch: the autotuner defaults.
constexpr u64 kSpecialSample = 4;
constexpr u64 kGeneralSample = 2;

core::SpecialSpace special_space() {
  core::SpecialSpace s;
  s.block_w = {64, 128, 256};
  s.block_h = {4, 8};
  return s;
}

core::GeneralSpace general_space() {
  core::GeneralSpace s;
  s.block_w = {32};
  s.block_h = {4, 8};
  s.ftb = {32, 64};
  s.wt = {8, 16};
  s.ft = {4, 8};
  s.csh = {1};
  return s;
}

struct SweepOut {
  std::array<i64, 6> config{};
  double gflops = 0.0;
  i64 evaluated = 0;
  i64 pruned = 0;
  bool operator==(const SweepOut& o) const {
    return config == o.config && gflops == o.gflops;
  }
};

SweepOut sweep(const SweepSpec& s, bool prune, sim::PlanCache* plans) {
  sim::Device dev(arch());
  if (s.special) {
    const auto r =
        core::autotune_special(dev, s.k, s.f, s.n, special_space(),
                               kSpecialSample, kThreads, plans, false, prune);
    const auto& c = r.best.config;
    return {{c.block_w, c.block_h, 0, 0, 0, 0}, r.best.gflops, r.evaluated,
            r.pruned};
  }
  const auto r = core::autotune_general(dev, s.k, s.c, s.f, s.n,
                                        general_space(), kGeneralSample,
                                        kThreads, plans, false, prune);
  const auto& c = r.best.config;
  return {{c.block_w, c.block_h, c.ftb, c.wt, c.ft, c.csh}, r.best.gflops,
          r.evaluated, r.pruned};
}

/// The block ids the prune pre-pass and the probe launch sample.
std::vector<u64> sampled_blocks(u64 total, u64 sample) {
  std::vector<u64> ids;
  if (sample == 0 || sample >= total) return ids;
  const double stride = static_cast<double>(total) / static_cast<double>(sample);
  for (u64 i = 0; i < sample; ++i) {
    ids.push_back(static_cast<u64>((static_cast<double>(i) + 0.5) * stride));
  }
  return ids;
}

class TuneCold final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    specs_ = tune_sweeps(cfg_.seed);
    reference_.clear();
    for (const SweepSpec& s : specs_) {
      reference_.push_back(sweep(s, /*prune=*/false, nullptr));
    }
    records_.assign(specs_.size(), ModelRecord{});
  }

  void step(u64 index, LoopOut& out, Tracer& tr) override {
    const std::size_t i = index % specs_.size();
    const SweepSpec& s = specs_[i];
    guarded(index, describe(s), out, [&] {
      const std::string dir = cfg_.out_dir + "/tune-store";
      fs::remove_all(dir);
      SweepOut r;
      {
        sim::PlanCache plans(dir);
        const Stopwatch w;
        {
          ScopedSpan span(tr, "core.autotune", index);
          r = sweep(s, /*prune=*/true, &plans);
        }
        out.op(w);
      }
      fs::remove_all(dir);
      // Every proxy grid holds at least `sample` blocks, so each simulated
      // candidate ran exactly that many.
      const u64 sample = s.special ? kSpecialSample : kGeneralSample;
      out.blocks += static_cast<double>(r.evaluated) * static_cast<double>(sample);
      out.sums["evaluated"] += static_cast<double>(r.evaluated);
      out.sums["pruned"] += static_cast<double>(r.pruned);
      return r == reference_[i] &&
             records_[i].record(ratio(flops(s), r.gflops * 1e9), flops(s), {});
    });
  }

  std::pair<double, double> model() override {
    // The winner's modeled figures come from the unpruned reference sweep,
    // which the pruned sweep must match bit for bit.
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      if (records_[i].seen) continue;
      const double fl = flops(specs_[i]);
      records_[i].record(ratio(fl, reference_[i].gflops * 1e9), fl, {});
    }
    return model_summary(records_);
  }

  void layers(const LoopOut& traced, Tracer& tr,
              std::map<std::string, double>& m) override {
    const double sweeps = static_cast<double>(traced.latency_s.size());
    const double sweep_s = ratio(traced.work_s, sweeps);
    const double evaluated = traced.sums.at("evaluated");
    m["core.autotune.sweep_ms"] = median(traced.latency_s) * 1e3;
    m["core.autotune.simulated_share"] =
        ratio(evaluated, evaluated + traced.sums.at("pruned"));

    // The kconv-xray pre-pass, candidate by candidate, as the sweep runs it.
    double xray_s = 0, candidates = 0;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const auto t0 = Clock::now();
      candidates += xray_prepass(specs_[i], i, tr);
      xray_s += since(t0);
    }
    const double per_sweep_xray = xray_s / static_cast<double>(specs_.size());
    m["analysis.xray.ms_per_candidate"] = ratio(xray_s, candidates) * 1e3;
    m["analysis.xray.prepass_share"] = ratio(per_sweep_xray, sweep_s);
    m["core.autotune.ms_per_probe"] =
        ratio(sweep_s - per_sweep_xray, evaluated / sweeps) * 1e3;

    // The writes one cold sweep leaves in its store.
    const std::string dir = cfg_.out_dir + "/tune-probe-store";
    fs::remove_all(dir);
    double loads = 0, hits = 0;
    {
      sim::PlanCache plans(dir);
      {
        ScopedSpan span(tr, "core.autotune", 0);
        sweep(specs_.front(), /*prune=*/true, &plans);
      }
      loads = static_cast<double>(plans.loads());
      hits = static_cast<double>(plans.hits());
    }
    emit(probe_plan_store(dir, cfg_.out_dir + "/plan-probe", tr), m);
    m["sim.plan_cache.hit_ratio"] = ratio(hits, loads);
    fs::remove_all(dir);
  }

  std::string threads_json() const override {
    return strf("{\"autotune\": %u, \"xray\": 1}", kThreads);
  }

 private:
  static double flops(const SweepSpec& s) {
    return conv_flops(ConvShape{s.special ? 1 : s.c, s.f, s.k, s.n});
  }

  static std::string describe(const SweepSpec& s) {
    return strf("%s k=%lld c=%lld f=%lld n=%lld",
                s.special ? "special" : "general", static_cast<long long>(s.k),
                static_cast<long long>(s.c), static_cast<long long>(s.f),
                static_cast<long long>(s.n));
  }

  /// Times the static pass over every legal candidate of `s`; returns the
  /// number of candidates analyzed. This is a copy of the static_prune
  /// pre-pass in autotune.cpp (same options, sampling and legality loop,
  /// without estimate_time), since the sweep does not report its own
  /// pre-pass time; it must follow changes to that pre-pass.
  static double xray_prepass(const SweepSpec& s, std::size_t op, Tracer& tr) {
    const sim::Arch& a = arch();
    xray::XrayOptions x;
    x.races = false;
    x.dual_bank_modes = false;
    x.findings = false;
    double n = 0;
    const auto analyze = [&](const xray::KernelModel& model, u64 sample) {
      x.block_ids = sampled_blocks(model.cfg.grid.count(), sample);
      ScopedSpan span(tr, "analysis.xray.analyze", op);
      xray::analyze(a, model, x);
      n += 1;
    };
    if (s.special) {
      const core::SpecialSpace sp = special_space();
      for (const i64 w : sp.block_w) {
        for (const i64 h : sp.block_h) {
          kernels::SpecialConvConfig c;
          c.block_w = w;
          c.block_h = h;
          if (!kernels::special_conv_check(a, s.k, s.f, s.n, s.n, c).empty()) {
            continue;
          }
          analyze(kernels::special_conv_xray(a, s.k, s.f, s.n, s.n, c),
                  kSpecialSample);
        }
      }
      return n;
    }
    const core::GeneralSpace sp = general_space();
    for (const i64 w : sp.block_w) {
      for (const i64 h : sp.block_h) {
        for (const i64 ftb : sp.ftb) {
          for (const i64 wt : sp.wt) {
            for (const i64 ft : sp.ft) {
              for (const i64 csh : sp.csh) {
                kernels::GeneralConvConfig c;
                c.block_w = w;
                c.block_h = h;
                c.ftb = ftb;
                c.wt = wt;
                c.ft = ft;
                c.csh = csh;
                if (!kernels::general_conv_check(a, s.k, s.c, s.f, s.n, s.n, c)
                         .empty()) {
                  continue;
                }
                analyze(
                    kernels::general_conv_xray(a, s.k, s.c, s.f, s.n, s.n, c),
                    kGeneralSample);
              }
            }
          }
        }
      }
    }
    return n;
  }

  std::vector<SweepSpec> specs_;
  std::vector<SweepOut> reference_;
  std::vector<ModelRecord> records_;
};

// ---------------------------------------------------------------------------
// serve-warm: rounds of kRoundSize requests through a ServingDriver over a
// shared, pre-seeded plan store.

const char* const kNets[] = {"lenet", "lenet-wide", "vgg-tiny"};
constexpr u32 kNetCount = 3;
/// Pooled inputs per network.
constexpr u32 kPool = 2;
/// Rounds in the request schedule the loop cycles through.
constexpr u32 kRounds = 256;

/// One conv call exactly as run_graph makes it.
struct GraphConv {
  tensor::Tensor input;
  const tensor::Tensor* filters = nullptr;
  const std::vector<float>* bias = nullptr;  ///< fused epilogue, if any
};

class ServeWarm final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    driver_.reset();
    store_.reset();
    nets_.clear();
    for (const char* name : kNets) nets_.push_back(serve::make_network(name));
    schedule_ = serve_schedule(cfg_.seed, kRounds, kNetCount, kPool);
    for (u32 n = 0; n < kNetCount; ++n) {
      inputs_[n].clear();
      for (u32 j = 0; j < kPool; ++j) {
        inputs_[n].push_back(
            serve::make_network_input(nets_[n], cfg_.seed * kPool + j));
      }
      flops_[n] = 0;
      convs_[n] = graph_convs(nets_[n].graph);
      for (const GraphConv& c : convs_[n]) {
        const i64 k = c.filters->h();
        flops_[n] += core::conv_flops(c.input.c(), c.filters->n(), k,
                                      c.input.h() - k + 1, c.input.w() - k + 1);
      }
    }
    // Cold replies: the oracle every warm reply must match byte for byte.
    {
      serve::ServeOptions o;
      o.threads = kThreads;
      serve::ServingDriver cold(o);
      for (u32 n = 0; n < kNetCount; ++n) {
        for (u32 j = 0; j < kPool; ++j) cold.enqueue(nets_[n], inputs_[n][j]);
      }
      const std::vector<serve::ServeReply> replies = cold.drain();
      for (u32 n = 0; n < kNetCount; ++n) {
        cold_[n].clear();
        for (u32 j = 0; j < kPool; ++j) {
          const serve::ServeReply& r = replies[n * kPool + j];
          KCONV_CHECK(r.ok, "cold reply failed");
          cold_[n].push_back(r.output);
          model_s_[n] = r.sim_seconds;
        }
      }
    }
    // Seed the shared store with one cold capture per network.
    store_dir_ = cfg_.out_dir + "/serve-store";
    fs::remove_all(store_dir_);
    store_ = std::make_unique<sim::PlanCache>(store_dir_);
    for (u32 n = 0; n < kNetCount; ++n) {
      sim::Device dev(arch());
      const serve::GraphRun run =
          serve::run_graph(dev, nets_[n].graph, inputs_[n][0], warm_options());
      blocks_[n] = 0;
      for (const serve::NodeRun& node : run.nodes) {
        blocks_[n] += static_cast<double>(node.launch.blocks_executed);
      }
    }
    serve::ServeOptions o;
    o.threads = kThreads;
    o.plan_cache = store_.get();
    driver_ = std::make_unique<serve::ServingDriver>(o);
  }

  /// One round; every request in it is one op.
  void step(u64 index, LoopOut& out, Tracer& tr) override {
    const u64 round = index % kRounds;
    const ServeRequest* reqs = &schedule_[round * kRoundSize];
    const u64 first_op = index * kRoundSize;
    std::vector<serve::ServeReply> replies;
    std::array<Clock::time_point, kRoundSize> enqueued;
    Clock::time_point done;
    double round_cpu = 0;
    const Stopwatch w;
    try {
      const u64 loads = store_->loads(), hits = store_->hits();
      const u64 batches = driver_->stats().batches;
      for (u32 j = 0; j < kRoundSize; ++j) {
        ScopedSpan span(tr, "serve.enqueue", first_op + j);
        enqueued[j] = Clock::now();
        driver_->enqueue(nets_[reqs[j].net],
                         inputs_[reqs[j].net][reqs[j].input]);
      }
      {
        ScopedSpan span(tr, "serve.drain", first_op);
        replies = driver_->drain();
      }
      done = Clock::now();
      round_cpu = w.cpu();
      out.sums["drains"] += 1;
      out.sums["batches"] +=
          static_cast<double>(driver_->stats().batches - batches);
      out.sums["plan_loads"] += static_cast<double>(store_->loads() - loads);
      out.sums["plan_hits"] += static_cast<double>(store_->hits() - hits);
    } catch (const std::exception& e) {
      for (u32 j = 0; j < kRoundSize; ++j) fail(first_op + j, e.what(), out);
      return;
    }
    out.work_s += std::chrono::duration<double>(done - enqueued[0]).count();
    out.cpu_work_s += round_cpu;
    for (u32 j = 0; j < kRoundSize; ++j) {
      const u32 n = reqs[j].net;
      const u32 in = reqs[j].input;
      if (j >= replies.size()) {
        fail(first_op + j, "no reply", out);
        continue;
      }
      const serve::ServeReply& r = replies[j];
      const double latency =
          std::chrono::duration<double>(done - enqueued[j]).count();
      out.latency_s.push_back(latency);
      // The driver's workers share the round's CPU time; each request is
      // charged an equal part of it.
      out.cpu_s.push_back(round_cpu / kRoundSize);
      out.series["exec_s"].push_back(r.host_seconds);
      out.series["wait_s"].push_back(latency - r.host_seconds);
      out.sums["exec_s"] += r.host_seconds;
      out.blocks += blocks_[n];
      if (r.ok && bytes_equal(r.output, cold_[n][in]) &&
          r.sim_seconds == model_s_[n]) {
        out.tally.record(true);
      } else {
        fail(first_op + j,
             strf("%s input %u: reply differs from the cold reply",
                  nets_[n].name.c_str(), in),
             out);
      }
    }
  }

  std::pair<double, double> model() override {
    double sec = 0, fl = 0;
    for (const ServeRequest& q : schedule_) {
      sec += model_s_[q.net];
      fl += flops_[q.net];
    }
    return {sec / static_cast<double>(schedule_.size()) * 1e6,
            ratio(fl, sec) / 1e9};
  }

  void layers(const LoopOut& traced, Tracer& tr,
              std::map<std::string, double>& m) override {
    m["serve.exec_ms_p50"] = median(traced.series.at("exec_s")) * 1e3;
    m["serve.wait_ms_p50"] = median(traced.series.at("wait_s")) * 1e3;
    m["serve.worker_busy_frac"] =
        ratio(traced.sums.at("exec_s"), kThreads * traced.work_s);
    m["serve.batches_per_drain"] =
        ratio(traced.sums.at("batches"), traced.sums.at("drains"));
    m["sim.plan_cache.hit_ratio"] =
        ratio(traced.sums.at("plan_hits"), traced.sums.at("plan_loads"));

    // Each network's graph, then the same conv calls alone: warm from the
    // shared store, cold into a fresh store, and fully executed.
    constexpr int kReps = 3;
    KernelAgg k;
    double warm_s = 0, full_s = 0, capture_s = 0, calls = 0;
    double replayed = 0, executed = 0, warm_blocks = 0;
    for (u32 n = 0; n < kNetCount; ++n) {
      double run_s = 0, conv_s = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        auto t0 = Clock::now();
        serve::GraphRun run;
        {
          ScopedSpan span(tr, "serve.run_graph", n);
          sim::Device dev(arch());
          run = serve::run_graph(dev, nets_[n].graph, inputs_[n][0],
                                 warm_options());
        }
        run_s += since(t0);
        m["serve.graph.arena_peak_bytes." + nets_[n].name] =
            static_cast<double>(run.arena_peak_bytes);
        for (const serve::NodeRun& node : run.nodes) {
          replayed += static_cast<double>(node.launch.blocks_replayed);
          executed += static_cast<double>(node.launch.blocks_executed);
        }
        for (const GraphConv& c : convs_[n]) {
          t0 = Clock::now();
          const core::ConvResult warm = conv(c, store_.get(), tr, "warm");
          const double w = since(t0);
          conv_s += w;
          warm_s += w;
          warm_blocks += static_cast<double>(warm.launch.blocks_executed);
          if (rep == 0) k.add(warm.launch);

          const std::string dir = cfg_.out_dir + "/capture-store";
          fs::remove_all(dir);
          {
            sim::PlanCache fresh(dir);
            t0 = Clock::now();
            conv(c, &fresh, tr, "capture");
            capture_s += since(t0) - w;
          }
          fs::remove_all(dir);

          t0 = Clock::now();
          conv(c, nullptr, tr, "full");
          full_s += since(t0);
          calls += 1;
        }
      }
      const std::string& name = nets_[n].name;
      m["serve.graph.run_ms." + name] = run_s / kReps * 1e3;
      m["serve.graph.conv_ms." + name] = conv_s / kReps * 1e3;
      m["serve.graph.aux_ms." + name] = (run_s - conv_s) / kReps * 1e3;
    }
    k.emit(m);
    m["core.conv2d.ms_warm"] = ratio(warm_s, calls) * 1e3;
    m["core.conv2d.ms_full"] = ratio(full_s, calls) * 1e3;
    m["sim.replay.capture_ms"] = ratio(capture_s, calls) * 1e3;
    m["sim.replay.block_share"] = ratio(replayed, executed);
    m["sim.replay.host_us_per_block"] = ratio(warm_s * 1e6, warm_blocks);
    emit(probe_plan_store(store_dir_, cfg_.out_dir + "/plan-probe", tr), m);
  }

  std::string threads_json() const override {
    return strf("{\"serve_workers\": %u, \"launch\": 1}", kThreads);
  }

 private:
  /// What the driver hands run_graph for a warm request.
  serve::GraphRunOptions warm_options() const {
    serve::GraphRunOptions g;
    g.launch.replay = true;
    g.launch.plan_cache = store_.get();
    return g;
  }

  /// The conv calls run_graph makes for `g`, each with an input of the
  /// right shape and the bias+ReLU epilogue it fuses.
  static std::vector<GraphConv> graph_convs(const serve::Graph& g) {
    const std::vector<serve::Node>& nodes = g.nodes();
    const std::vector<serve::Shape> shapes = g.shapes();
    Rng rng(0xC0);
    std::vector<GraphConv> out;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].kind != serve::OpKind::Conv) continue;
      const serve::Shape in = shapes[static_cast<std::size_t>(nodes[i].input)];
      GraphConv c;
      c.input = random_tensor(1, in.c, in.h, in.w, rng);
      c.filters = &nodes[i].filters;
      const bool fused = i + 1 < nodes.size() &&
                         nodes[i + 1].kind == serve::OpKind::BiasRelu &&
                         nodes[i + 1].input == static_cast<i32>(i) &&
                         g.consumer_count(static_cast<i32>(i)) == 1;
      if (fused) c.bias = &nodes[i + 1].bias;
      out.push_back(std::move(c));
    }
    return out;
  }

  core::ConvResult conv(const GraphConv& c, sim::PlanCache* plans, Tracer& tr,
                        const char* mode) const {
    ScopedSpan span(tr, std::string("core.conv2d.") + mode, 0);
    sim::Device dev(arch());
    core::ConvOptions o;
    if (c.bias != nullptr) o.fuse_bias_relu = *c.bias;
    o.launch.replay = plans != nullptr;
    o.launch.plan_cache = plans;
    return core::conv2d(dev, c.input, *c.filters, o);
  }

  std::vector<serve::Network> nets_;
  std::array<std::vector<tensor::Tensor>, kNetCount> inputs_, cold_;
  std::array<std::vector<GraphConv>, kNetCount> convs_;
  std::array<double, kNetCount> model_s_{}, flops_{}, blocks_{};
  std::vector<ServeRequest> schedule_;
  std::string store_dir_;
  // The driver holds a pointer to the store: declared after it, destroyed
  // before it.
  std::unique_ptr<sim::PlanCache> store_;
  std::unique_ptr<serve::ServingDriver> driver_;
};

// ---------------------------------------------------------------------------

std::unique_ptr<Workload> make_workload(const RunConfig& cfg) {
  if (cfg.workload == "conv-layers") return std::make_unique<ConvLayers>(cfg);
  if (cfg.workload == "serve-warm") return std::make_unique<ServeWarm>(cfg);
  if (cfg.workload == "tune-cold") return std::make_unique<TuneCold>(cfg);
  if (cfg.workload == "conv-fleet") return std::make_unique<ConvFleet>(cfg);
  KCONV_CHECK(false, "unknown workload '" + cfg.workload + "'");
  return nullptr;
}

LoopOut timed_loop(Workload& w, double seconds, Tracer& tr) {
  LoopOut out;
  const auto t0 = Clock::now();
  u64 i = 0;
  do {
    w.step(i++, out, tr);
  } while (since(t0) < seconds);
  return out;
}

/// A traced run's loop: every op runs once untraced and once traced, which
/// one first alternating, so both sample sets see the same host state. The
/// root span's self time covers the untraced twins and the output checks.
std::pair<LoopOut, LoopOut> paired_loop(Workload& w, double seconds,
                                        Tracer& tr) {
  Tracer off(false);
  LoopOut plain, traced;
  ScopedSpan root(tr, "kbench.loop", 0);
  const auto t0 = Clock::now();
  u64 i = 0;
  do {
    if (i % 2 == 0) w.step(i, plain, off);
    w.step(i, traced, tr);
    if (i % 2 == 1) w.step(i, plain, off);
    ++i;
  } while (since(t0) < seconds);
  return {std::move(plain), std::move(traced)};
}

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The end-to-end metrics a loop's host timings give: on the CPU clock
/// (gated) and on the wall clock (printed).
std::vector<Metric> host_metrics(const LoopOut& l, bool cpu_clock) {
  const std::vector<double>& t = cpu_clock ? l.cpu_s : l.latency_s;
  const double total = cpu_clock ? l.cpu_work_s : l.work_s;
  const double ops = static_cast<double>(t.size());
  const double p50 = t.empty() ? 0.0 : median(t) * 1e3;
  const double p90 = t.empty() ? 0.0 : percentile(t, 0.9) * 1e3;
  if (cpu_clock) {
    return {{"ops_per_cpu_s", ratio(ops, total), "op/cpu-s"},
            {"cpu_ms_per_op_p50", p50, "ms"},
            {"cpu_ms_per_op_p90", p90, "ms"},
            {"sim_blocks_per_cpu_s", ratio(l.blocks, total), "block/cpu-s"}};
  }
  return {{"ops_per_s", ratio(ops, total), "op/s"},
          {"latency_p50_ms", p50, "ms"},
          {"latency_p90_ms", p90, "ms"},
          {"sim_blocks_per_s", ratio(l.blocks, total), "block/s"}};
}

/// Both clocks' host metrics, CPU clock first.
std::vector<Metric> all_host_metrics(const LoopOut& l) {
  std::vector<Metric> m = host_metrics(l, true);
  for (Metric& w : host_metrics(l, false)) m.push_back(std::move(w));
  return m;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"conv-layers", "serve-warm",
                                                 "tune-cold", "conv-fleet"};
  return names;
}

const std::vector<Metric>& per_layer_catalog() {
  static const std::vector<Metric> catalog = [] {
    std::vector<Metric> c = {
        {"sim.host_ns_per_warp_instr", 0, "ns"},
        {"sim.pattern_cache.hit_rate", 0, "ratio"},
        {"sim.launch.ms_1t", 0, "ms"},
        {"sim.launch.ms_4t", 0, "ms"},
        {"sim.launch.speedup_4t", 0, "x"},
        {"sim.plan_cache.load_ms", 0, "ms"},
        {"sim.plan_cache.store_ms", 0, "ms"},
        {"sim.plan_cache.hit_ratio", 0, "ratio"},
        {"sim.plan_cache.bytes_per_entry", 0, "B"},
        {"sim.plan_io.deserialize_ms", 0, "ms"},
        {"sim.plan_io.serialize_ms", 0, "ms"},
        {"sim.replay.block_share", 0, "ratio"},
        {"sim.replay.host_us_per_block", 0, "us"},
        {"sim.replay.capture_ms", 0, "ms"},
        {"sim.fleet.host_ms_per_launch", 0, "ms"},
        {"sim.fleet.transfer_share", 0, "ratio"},
        {"sim.fleet.comm_bound_devices", 0, "count"},
        {"kernels.smem_replay_factor", 0, "x"},
        {"kernels.gm_overfetch", 0, "x"},
        {"kernels.dram_bytes_per_flop", 0, "B/flop"},
        {"kernels.occupancy", 0, "ratio"},
        {"kernels.sm_efficiency", 0, "ratio"},
        {"core.conv2d.ms_full", 0, "ms"},
        {"core.conv2d.ms_warm", 0, "ms"},
        {"core.autotune.sweep_ms", 0, "ms"},
        {"core.autotune.simulated_share", 0, "ratio"},
        {"core.autotune.ms_per_probe", 0, "ms"},
        {"analysis.xray.ms_per_candidate", 0, "ms"},
        {"analysis.xray.prepass_share", 0, "ratio"},
        {"serve.exec_ms_p50", 0, "ms"},
        {"serve.wait_ms_p50", 0, "ms"},
        {"serve.worker_busy_frac", 0, "ratio"},
        {"serve.batches_per_drain", 0, "count"},
    };
    for (const char* net : kNets) {
      for (const char* what : {"run_ms", "conv_ms", "aux_ms"}) {
        c.push_back({strf("serve.graph.%s.%s", what, net), 0, "ms"});
      }
      c.push_back({strf("serve.graph.arena_peak_bytes.%s", net), 0, "B"});
    }
    for (const Metric& h : all_host_metrics(LoopOut{})) {
      c.push_back({"trace.overhead." + h.name, 0, h.unit});
    }
    return c;
  }();
  return catalog;
}

RunResult run_workload(const RunConfig& cfg, Tracer& tracer) {
  std::unique_ptr<Workload> w = make_workload(cfg);
  std::vector<double> setups;
  double setup_cpu = 0;
  RunResult res;
  while (setups.size() < kMaxSetups &&
         (setups.size() < kSetups || setup_cpu < kSetupCpuSeconds)) {
    const Stopwatch sw;
    w->setup();
    setups.push_back(sw.cpu());
    setup_cpu += setups.back();
    res.setup_wall_s.push_back(sw.wall());
  }

  // End-to-end metrics come from untraced ops; a traced run pairs each of
  // them with a traced twin.
  Tracer off(false);
  LoopOut plain, traced;
  if (cfg.trace) {
    std::tie(plain, traced) = paired_loop(*w, cfg.seconds, tracer);
  } else {
    plain = timed_loop(*w, cfg.seconds, off);
  }
  res.tally = plain.tally;
  res.repros = plain.repros;
  res.latency_samples = plain.latency_s.size();
  res.threads_json = w->threads_json();

  if (cfg.trace) {
    res.tally.attempted += traced.tally.attempted;
    res.tally.failed += traced.tally.failed;
    res.repros.insert(res.repros.end(), traced.repros.begin(),
                      traced.repros.end());
    std::map<std::string, double> m;
    if (traced.tally.failed == 0) w->layers(traced, tracer, m);
    const std::vector<Metric> a = all_host_metrics(plain);
    const std::vector<Metric> b = all_host_metrics(traced);
    for (std::size_t i = 0; i < a.size(); ++i) {
      m["trace.overhead." + a[i].name] = b[i].value - a[i].value;
    }
    for (Metric metric : per_layer_catalog()) {
      const auto it = m.find(metric.name);
      metric.value = it == m.end() ? 0.0 : it->second;
      res.per_layer.push_back(std::move(metric));
    }
  }

  const auto [model_us, model_gflops] = w->model();
  res.end_to_end = host_metrics(plain, true);
  res.end_to_end.insert(res.end_to_end.end(),
                        {{"model_us_per_op", model_us, "us"},
                         {"model_gflops", model_gflops, "GFlop/s"},
                         {"setup_s", median(setups), "s"},
                         {"peak_rss_mb", peak_rss_mib(), "MiB"}});
  res.printed = host_metrics(plain, false);
  // CPU seconds per wall second of the ops: the CPU-clock metrics cannot see
  // lost overlap between threads, this can (and steal lowers it as well).
  res.printed.push_back(
      {"cpu_s_per_wall_s", ratio(plain.cpu_work_s, plain.work_s), "cpu-s/s"});
  res.printed.push_back({"error_rate", res.tally.error_rate(), "ratio"});
  return res;
}

}  // namespace kbench
