#include "src/sim/launch.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "src/analysis/hazard.hpp"
#include "src/analysis/lint.hpp"
#include "src/common/strutil.hpp"
#include "src/common/thread_pool.hpp"
#include "src/sim/charge.hpp"
#include "src/sim/plan_cache.hpp"
#include "src/sim/plan_io.hpp"

namespace kconv::sim::detail {

namespace {

/// One unit of the launch pipeline (docs/MODEL.md §5a): the launch-index
/// ranges it runs, the L2 those blocks see, and the chunk's private state.
/// Private state keeps concurrent chunks lock-free, and because every
/// field is a pure function of the chunk plan (never of host scheduling),
/// merging chunks in index order is deterministic.
struct Chunk {
  std::vector<BlockRange> runs;
  /// The L2 the chunk's blocks probe: the device's (serial launch) or the
  /// chunk's own `shadow` (parallel chunk, fleet device).
  L2Cache* l2 = nullptr;
  /// Made by the launching thread with the chunk plan, so the worker's
  /// malloc arena never holds the shadow's tag array; making one only
  /// allocates it (the worker clears each set on first touch).
  std::optional<L2Cache> shadow;
  KernelStats stats;
  std::optional<analysis::BlockChecker> checker;
  /// Kept past the run so captured classes merge into one saved plan.
  std::unique_ptr<ReplayRunner> runner;
  profile::PhaseProfile phases;
  std::vector<profile::BlockTimeline> timelines;
};

}  // namespace

LaunchResult launch_impl(Device& dev, const KernelBody& body,
                         const LaunchConfig& cfg, const LaunchOptions& opt,
                         const BlockClassifier& classify,
                         const ReplayOriginsFn& origins) {
  KCONV_CHECK(cfg.grid.count() >= 1, "empty grid");
  const std::string invalid = opt.validate();
  KCONV_CHECK(invalid.empty(), invalid);
  // Validates thread/smem/register limits up front (throws on bad configs).
  (void)compute_occupancy(dev.arch(), cfg);

  const Arch& arch = dev.arch();
  dev.l2().invalidate();  // every launch is a cold kernel call

  LaunchResult res;
  res.blocks_total = cfg.grid.count();

  const BlockSet set = BlockSet::pick(res.blocks_total, opt.sample_max_blocks);
  res.sampled = set.sampled;

  const u32 threads = static_cast<u32>(std::min<u64>(
      ThreadPool::resolve_threads(opt.num_threads), set.count));

  // Replay engages only when both the caller opted in (replay, analytic or
  // an attached plan store, which is only read or written by replay) AND
  // the kernel declared a classifier; otherwise every block is unique
  // (legacy path).
  // A diagnostic launch (hazard check or phase profile) executes every
  // block: both report exactly what full execution reports, so replaying
  // under them would only trade host time on a diagnostic run. Analytic
  // mode is replay that never materializes: it hard-requires the
  // classifier (there is no trace to serve from otherwise), and validate()
  // already rejected it with either diagnostic.
  const bool analytic = opt.analytic;
  KCONV_CHECK(!analytic || static_cast<bool>(classify),
              "analytic launch requires a kernel with a replay_class hook");
  const bool diagnostic = opt.hazard_check || opt.profile;
  const bool replaying =
      (opt.replay || analytic || opt.plan_cache != nullptr) && !diagnostic &&
      static_cast<bool>(classify);
  res.analytic = analytic;

  // Multi-device sharding (docs/MODEL.md §9); validate() already rejected
  // the analytic and sampled combinations.
  const bool fleet_on = opt.fleet.devices > 1;

  const bool profiling = opt.profile;
  res.profile.enabled = profiling;

  // kconv-scope (docs/MODEL.md §11): open the launch span. Purely
  // observational — the sink only ever receives appends, so the launch's
  // outputs and counters are untouched by telemetry being on.
  const obs::TelemetryScope tel = opt.telemetry;
  u64 tel_span = 0;
  if (tel.on()) {
    const char* mode = analytic     ? "analytic"
                       : replaying  ? "replay"
                       : threads > 1 ? "parallel"
                                     : "serial";
    tel_span = tel.sink->begin_span(
        tel.trace, tel.parent, "launch", "launch",
        strf("{\"blocks\":%llu,\"mode\":\"%s\",\"devices\":%u}",
             static_cast<unsigned long long>(res.blocks_total), mode,
             fleet_on ? opt.fleet.devices : 1u));
  }

  // Cross-launch plan persistence (docs/MODEL.md §5d). A warm plan seeds
  // every runner's class table before any block runs; any load-side
  // mismatch (version, key, arch, config, payload damage) is a loud miss
  // that falls back to capture. Saving is skipped when nothing fresh was
  // captured this launch.
  PlanCache* const plans = opt.plan_cache;
  const bool plan_enabled =
      plans != nullptr && !opt.plan_key.empty() && replaying;
  LaunchPlan plan;
  bool plan_hit = false;
  std::string store_key;
  if (plans != nullptr) {
    res.plan_cache_status = plan_enabled ? "miss" : "disabled";
  }
  // Only a functional, non-analytic launch executes tapes, so only it pays
  // for loading the tape sidecar — the heavyweight part of a stored plan.
  // Analytic launches load the trace payload alone, which is what makes
  // their warm path nearly free. A launch too small to make tapes
  // (replay.hpp) never stored a sidecar, so its load is a plain miss.
  const bool want_tapes = !analytic && opt.trace == TraceLevel::Functional;
  if (plan_enabled) {
    store_key = plan_store_key(opt.plan_key, arch, cfg, opt.trace);
    std::string blob;
    std::string_view payload;
    std::string why;
    // kconv-xray pre-validation (docs/MODEL.md §10): a plan whose recorded
    // static signature disagrees with the launching kernel's is a capture
    // of a *different* access pattern under the same key — reject it
    // before trusting a byte, same as any other staleness. Either side
    // reporting 0 (no describer) degrades to the key-only contract.
    const auto signature_matches = [&](const LaunchPlan& p,
                                       std::string* reason) {
      if (opt.plan_static_signature == 0 || p.static_signature == 0 ||
          p.static_signature == opt.plan_static_signature) {
        return true;
      }
      if (reason != nullptr) *reason = "stale-static-signature";
      return false;
    };
    if (plans->load_view(store_key, blob, payload, &why)) {
      if (deserialize_plan(payload, plan, &why) &&
          plan_matches(plan, arch, cfg, opt.trace, &why) &&
          signature_matches(plan, &why)) {
        plan_hit = true;
        why = "hit";
        if (want_tapes) {
          std::string tape_blob;
          std::string_view tape_payload;
          // A missing/damaged sidecar is not a plan miss: the traces are
          // intact, so warm replay still serves every block — through
          // per-block fast-forward until a class makes its tape afresh.
          if (plans->load_view(plan_tape_key(store_key), tape_blob,
                               tape_payload)) {
            (void)deserialize_tapes(tape_payload, plan);
          }
        }
      } else {
        plan = LaunchPlan{};
      }
    }
    res.plan_cache_status = why;
  }
  res.plan_cache_hit = plan_hit;

  // Step 1 — plan chunks. The modes differ only in how launch indices are
  // grouped and which L2 each group sees; every plan is a pure function of
  // grid, thread count and shard strategy, so each is exactly reproducible.
  //   serial:   one chunk over the device's single L2, which therefore stays
  //             warm across blocks — the exact-legacy path;
  //   parallel: ceil(count/threads)-sized contiguous chunks, each on a
  //             private L2 shadow (closer to real concurrent SMXs);
  //   fleet:    one chunk per device, running its shard's block ranges
  //             against a fresh shadow — the cold L2 of that device
  //             (docs/MODEL.md §9 adds the transfer ledger on top).
  // Outputs and all scheduling-invariant counters are identical across
  // modes (docs/MODEL.md §5a).
  std::vector<FleetShard> fshards;
  const u64 grain = static_cast<u64>(
      ceil_div(static_cast<i64>(set.count), static_cast<i64>(threads)));
  std::vector<Chunk> chunks(
      fleet_on ? opt.fleet.devices
               : static_cast<u64>(ceil_div(static_cast<i64>(set.count),
                                           static_cast<i64>(grain))));
  if (fleet_on) {
    fshards = shard_grid(cfg.grid, opt.fleet, opt.fleet_hints);
    model_transfers(opt.fleet, opt.fleet_hints, res.blocks_total, fshards);
  }
  // Shadows are made before the run lists: in that order a fleet launch's
  // shadow tag arrays took about a third fewer page faults (glibc heap).
  const bool serial = !fleet_on && chunks.size() == 1;
  for (Chunk& c : chunks) {
    c.l2 = serial ? &dev.l2()
                  : &c.shadow.emplace(arch.l2_capacity, arch.gm_sector_bytes);
  }
  for (u64 c = 0; c < chunks.size(); ++c) {
    chunks[c].runs =
        fleet_on ? fshards[c].runs
                 : std::vector<BlockRange>{
                       {c * grain, std::min(set.count, (c + 1) * grain)}};
  }
  // One checker per chunk, merged in index order like the stats, so the
  // hazard report is a pure function of the chunk plan too.
  if (opt.hazard_check) {
    for (Chunk& c : chunks) c.checker.emplace(cfg, arch.warp_size);
  }

  // Step 2 — run each chunk through the one block loop.
  const auto run_chunk = [&](Chunk& c) {
    if (c.runs.empty()) return;  // a fleet device with an empty shard
    L2Cache& l2 = *c.l2;
    L2Cache const_cache(arch.const_cache_per_sm, arch.const_line_bytes, 4);
    // Access-pattern cache scoped like the L2 shadow and constant-cache
    // replica (docs/MODEL.md §5c); it dies with the chunk.
    std::optional<PatternCache> pattern_cache;
    if (opt.pattern_cache) {
      pattern_cache.emplace(arch.smem_banks, arch.smem_bank_bytes,
                            arch.gm_sector_bytes);
    }
    PatternCache* pattern = pattern_cache ? &*pattern_cache : nullptr;
    analysis::BlockChecker* chk = c.checker.has_value() ? &*c.checker : nullptr;
    profile::PhaseProfile* psink = profiling ? &c.phases : nullptr;
    // Every block of the chunk runs on one LaneSet (docs/MODEL.md §5); it
    // dies with the chunk, so nothing it holds outlives the launch.
    LaneSet lanes(arch, body, cfg);
    if (replaying) {
      // Per-chunk trace table, like the per-chunk cache replicas: each
      // chunk captures its own class representatives. A warm plan primes
      // every chunk's table with the plan's shared traces and tapes, so no
      // chunk executes a representative.
      c.runner = std::make_unique<ReplayRunner>(
          arch, cfg, opt.trace, opt.max_rounds_per_block, classify, origins,
          analytic);
      if (plan_hit) c.runner->prime(plan);
    }
    // Timeline capture is capped at the first profile_timeline_blocks of
    // the GLOBAL launch order, so the captured set is chunk-plan-invariant.
    profile::BlockTimeline scratch_tl;
    for (const BlockRange& r : c.runs) {
      for (u64 i = r.begin; i < r.end; ++i) {
        const Dim3 bidx = unflatten(cfg.grid, set.flat_id(i));
        if (c.runner != nullptr) {
          c.runner->run(lanes, bidx, &const_cache, l2, c.stats, pattern);
          continue;
        }
        profile::BlockTimeline* tl = nullptr;
        if (profiling && i < opt.profile_timeline_blocks) {
          scratch_tl = profile::BlockTimeline{};
          scratch_tl.block = bidx;
          scratch_tl.seq = i;
          tl = &scratch_tl;
        }
        std::optional<profile::BlockProfiler> bp;
        if (psink != nullptr) bp.emplace(*psink, tl);
        run_block(lanes, bidx, opt.trace, opt.max_rounds_per_block,
                  &const_cache, l2, c.stats, nullptr, pattern, chk,
                  bp ? &*bp : nullptr);
        if (tl != nullptr && !tl->slices.empty()) {
          c.timelines.push_back(std::move(*tl));
        }
      }
    }
    if (c.runner != nullptr) c.runner->finish(c.stats);
    if (pattern != nullptr) charge_pattern(*pattern, 0, 0, c.stats);
  };
  const u32 workers = static_cast<u32>(std::min<u64>(
      ThreadPool::resolve_threads(opt.num_threads), chunks.size()));
  if (workers <= 1) {
    for (Chunk& c : chunks) run_chunk(c);
  } else {
    ThreadPool pool(workers);
    pool.parallel_for(0, chunks.size(), 1,
                      [&](u64 b, u64 e, u32 /*chunk*/) {
                        for (u64 c = b; c < e; ++c) run_chunk(chunks[c]);
                      });
  }

  // Step 3 — merge once, in chunk-index order.
  std::vector<analysis::BlockChecker*> checkers;
  bool dirty = false;
  for (Chunk& c : chunks) {
    res.stats += c.stats;
    res.profile.phases += c.phases;
    for (profile::BlockTimeline& tl : c.timelines) {
      res.profile.timelines.push_back(std::move(tl));
    }
    if (c.checker.has_value()) checkers.push_back(&*c.checker);
    if (c.runner != nullptr) {
      res.blocks_replayed += c.runner->blocks_replayed();
      dirty = dirty || c.runner->captured_fresh();
    }
  }
  // Channel shards interleave launch indices across devices; restore launch
  // order so the timeline list reads like the serial one.
  std::stable_sort(res.profile.timelines.begin(), res.profile.timelines.end(),
                   [](const profile::BlockTimeline& a,
                      const profile::BlockTimeline& b) {
                     return a.seq < b.seq;
                   });
  if (opt.hazard_check) analysis::finalize_hazards(checkers, res.analysis);
  if (plan_enabled && dirty) {
    // Store-once: classes merge in chunk-index order (the first chunk's
    // trace and the first tape any chunk made win) and exactly one store
    // runs after every chunk finished, so concurrent chunks never race a
    // sidecar write. Every primed runner holds the loaded classes, so the
    // export keeps them even where a sampled launch never visited them.
    LaunchPlan out;
    out.arch = arch_fingerprint(arch);
    out.trace_level = static_cast<u8>(opt.trace);
    out.cfg = cfg;
    // Prefer the launching kernel's signature; a signature-less re-store
    // of a signed warm plan keeps the stored value instead of erasing it.
    out.static_signature = opt.plan_static_signature != 0
                               ? opt.plan_static_signature
                               : plan.static_signature;
    for (const Chunk& c : chunks) {
      if (c.runner != nullptr) c.runner->export_plan(out);
    }
    plans->store(store_key, serialize_plan(out));
    // An analytic warm launch never loaded the sidecar, so its view of the
    // tapes is incomplete — leave the stored sidecar alone rather than
    // shrink it to the freshly captured classes.
    if (!(analytic && plan_hit)) {
      const std::string tapes = serialize_tapes(out);
      if (!tapes.empty()) plans->store(plan_tape_key(store_key), tapes);
    }
  }

  if (fleet_on) {
    // Per-device compute seconds: each device executes only its shard, so
    // its time is the unscaled estimate over the shard's own blocks.
    std::vector<KernelStats> dev_stats;
    std::vector<double> dev_seconds(chunks.size(), 0.0);
    for (u32 d = 0; d < chunks.size(); ++d) {
      dev_stats.push_back(chunks[d].stats);
      if (opt.trace == TraceLevel::Timing && fshards[d].blocks > 0) {
        dev_seconds[d] =
            estimate_time(arch, cfg, chunks[d].stats, fshards[d].blocks)
                .seconds;
      }
    }
    res.fleet = analyze_fleet(arch, opt.fleet, opt.fleet_hints,
                              res.blocks_total, fshards, dev_stats,
                              dev_seconds);
    // One telemetry event per device chunk, in device order (deterministic:
    // device_reports is built by analyze_fleet in index order).
    if (tel.on()) {
      for (const FleetDeviceReport& d : res.fleet.device_reports) {
        tel.sink->fleet_device_event(
            tel.trace, tel_span, d.device, d.blocks, d.ledger.h2d_bytes,
            d.ledger.d2h_bytes, d.ledger.d2d_bytes, d.transfer_seconds,
            d.compute_seconds, d.comm_ratio,
            comm_bound(d.transfer_seconds, d.compute_seconds));
      }
    }
  }
  res.blocks_executed = res.stats.blocks_executed;

  if (opt.trace == TraceLevel::Timing) {
    res.timing = estimate_time(arch, cfg, res.stats, res.blocks_total);
    if (opt.lint) {
      res.analysis.linted = true;
      res.analysis.lints = analysis::lint_stats(arch, cfg, res.stats,
                                                res.timing);
    }
  }
  if (tel.on()) {
    tel.sink->plan_cache_event(tel.trace, tel_span, res.plan_cache_status,
                               res.blocks_replayed);
    tel.sink->end_span(tel_span);
  }
  return res;
}

}  // namespace kconv::sim::detail

namespace kconv::sim {

void fold_launch(LaunchResult& sum, const LaunchResult& next) {
  const TimingEstimate &a = sum.timing, &b = next.timing;
  LaunchResult f;  // per-launch properties stay empty
  f.timing.seconds = a.seconds + b.seconds;
  const auto mean = [&](double TimingEstimate::*rate) {
    const double s = f.timing.seconds;
    return s > 0 ? (a.*rate * a.seconds + b.*rate * b.seconds) / s : 0.0;
  };
  f.timing.gflops = mean(&TimingEstimate::gflops);
  f.timing.dram_gbps = mean(&TimingEstimate::dram_gbps);
  f.timing.sm_efficiency = mean(&TimingEstimate::sm_efficiency);
  f.timing.total_cycles = a.total_cycles + b.total_cycles;
  f.timing.waves = a.waves + b.waves;
  f.stats = sum.stats;
  f.stats += next.stats;
  f.blocks_total = sum.blocks_total + next.blocks_total;
  f.blocks_executed = sum.blocks_executed + next.blocks_executed;
  f.blocks_replayed = sum.blocks_replayed + next.blocks_replayed;
  f.sampled = sum.sampled || next.sampled;
  f.analytic = sum.analytic || next.analytic;
  f.analysis = std::move(sum.analysis);
  f.analysis += next.analysis;
  f.profile.enabled = sum.profile.enabled || next.profile.enabled;
  f.profile.phases = sum.profile.phases;
  f.profile.phases += next.profile.phases;
  f.profile.timelines = std::move(sum.profile.timelines);
  for (profile::BlockTimeline tl : next.profile.timelines) {
    tl.seq += sum.blocks_total;  // block order runs on across launches
    f.profile.timelines.push_back(std::move(tl));
  }
  sum = std::move(f);
}

}  // namespace kconv::sim
