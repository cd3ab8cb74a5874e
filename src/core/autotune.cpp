#include "src/core/autotune.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>

#include "src/analysis/static/xray.hpp"
#include "src/common/rng.hpp"
#include "src/common/strutil.hpp"
#include "src/common/thread_pool.hpp"
#include "src/sim/plan_io.hpp"
#include "src/sim/timing.hpp"

namespace kconv::core {

namespace {

std::string join_dims(const std::vector<i64>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += strf(i == 0 ? "%lld" : ",%lld", static_cast<long long>(v[i]));
  }
  return out;
}

// The persisted fields of each candidate type, in payload order.
void put_config(sim::PlanWriter& w, const kernels::GeneralConvConfig& c) {
  for (const i64 v : {c.block_w, c.block_h, c.ftb, c.wt, c.ft, c.csh,
                      c.vec_width}) {
    w.put_i64(v);
  }
  w.put_u8(c.pad_filters ? 1 : 0);
  w.put_u8(c.prefetch ? 1 : 0);
}

void get_config(sim::PlanReader& r, kernels::GeneralConvConfig& c) {
  for (i64* v : {&c.block_w, &c.block_h, &c.ftb, &c.wt, &c.ft, &c.csh,
                 &c.vec_width}) {
    *v = r.get_i64();
  }
  c.pad_filters = r.get_u8() != 0;
  c.prefetch = r.get_u8() != 0;
}

void put_config(sim::PlanWriter& w, const kernels::SpecialConvConfig& c) {
  for (const i64 v : {c.block_w, c.block_h, c.vec_width}) w.put_i64(v);
}

void get_config(sim::PlanReader& r, kernels::SpecialConvConfig& c) {
  for (i64* v : {&c.block_w, &c.block_h, &c.vec_width}) *v = r.get_i64();
}

/// Ranking order: best score first (stable sorts keep enumeration order
/// among ties).
constexpr auto kBestFirst = [](const auto& a, const auto& b) {
  return a.gflops > b.gflops;
};

template <typename Config>
std::string serialize_ranking(const AutotuneResult<Config>& res) {
  sim::PlanWriter w;
  w.put_u64(static_cast<u64>(res.evaluated));
  w.put_u64(static_cast<u64>(res.skipped));
  w.put_u64(static_cast<u64>(res.pruned));
  w.put_u32(static_cast<u32>(res.ranking.size()));
  for (const auto& e : res.ranking) {
    put_config(w, e.config);
    w.put_f64(e.gflops);
  }
  return w.take();
}

/// Restores a persisted ranking of `candidates`. The envelope only proves
/// the bytes are intact, so the payload is checked against the requested
/// sweep too: every entry a distinct, legal candidate; finite scores, best
/// first; counts that add up to the candidate list; a pruned count only
/// under `static_prune`. False leaves `res` untouched (the caller falls
/// back to a cold sweep that overwrites the stale entry).
template <typename Config, typename Check>
bool deserialize_ranking(const std::string& payload,
                         const std::vector<Config>& candidates,
                         bool static_prune, const Check& check,
                         AutotuneResult<Config>& res) {
  sim::PlanReader r(payload);
  const u64 evaluated = r.get_u64();
  const u64 skipped = r.get_u64();
  const u64 pruned = r.get_u64();
  const u32 count = r.get_u32();
  const u64 total = candidates.size();
  if (!r.ok() || count == 0 || count != evaluated || count > total ||
      skipped > total || pruned > total ||
      evaluated + skipped + pruned != total || (pruned != 0 && !static_prune)) {
    return false;
  }
  AutotuneResult<Config> out;
  out.evaluated = static_cast<i64>(evaluated);
  out.skipped = static_cast<i64>(skipped);
  out.pruned = static_cast<i64>(pruned);
  out.ranking.resize(count);
  std::vector<char> seen(total, 0);
  for (auto& e : out.ranking) {
    get_config(r, e.config);
    e.gflops = r.get_f64();
    const auto at = std::find(candidates.begin(), candidates.end(), e.config);
    if (!r.ok() || at == candidates.end() || !std::isfinite(e.gflops) ||
        seen[at - candidates.begin()]++ != 0 || !check(e.config).empty()) {
      return false;
    }
  }
  if (!r.at_end() ||
      !std::is_sorted(out.ranking.begin(), out.ranking.end(), kBestFirst)) {
    return false;
  }
  out.best = out.ranking.front();
  out.from_plan_cache = true;
  res = std::move(out);
  return true;
}

/// Static score of one candidate (docs/MODEL.md §10): run kconv-xray over
/// the same block sample the probe launch would execute (`sim::BlockSet`)
/// and feed the predicted counters to the simulator's own timing model. No
/// Device, no coroutines — the cost is a handful of symbolic blocks.
/// Cache state is invisible to the static pass, so DRAM demand uses the
/// pessimistic all-miss assumption, uniformly across candidates (the
/// relative order is what pruning consumes).
double static_score(const sim::Arch& arch, const xray::KernelModel& model,
                    u64 sample_blocks) {
  const u64 total = model.cfg.grid.count();
  xray::XrayOptions xopt;
  xopt.races = false;
  xopt.dual_bank_modes = false;
  xopt.findings = false;
  const sim::BlockSet set = sim::BlockSet::pick(total, sample_blocks);
  if (set.sampled) {
    for (u64 i = 0; i < set.count; ++i) {
      xopt.block_ids.push_back(set.flat_id(i));
    }
  }
  const xray::StaticReport rep = xray::analyze(arch, model, xopt);
  sim::KernelStats s = rep.predicted;
  s.gm_sectors_dram = s.gm_sectors;
  return sim::estimate_time(arch, model.cfg, s, total).gflops;
}

/// keep[i] for every candidate: true when the candidate survives the
/// static pre-pass — the top ceil(legal/2) by static score, enumeration
/// order breaking ties so the verdict is deterministic. Illegal
/// candidates (score slot NaN) are never kept.
std::vector<char> prune_keep(const std::vector<double>& score) {
  std::vector<u64> legal;
  for (std::size_t i = 0; i < score.size(); ++i) {
    if (score[i] == score[i]) legal.push_back(i);  // not NaN
  }
  std::stable_sort(legal.begin(), legal.end(), [&](u64 a, u64 b) {
    return score[a] > score[b];
  });
  const std::size_t kept = (legal.size() + 1) / 2;
  std::vector<char> keep(score.size(), 0);
  for (std::size_t i = 0; i < kept; ++i) keep[legal[i]] = 1;
  return keep;
}

/// The proxy problem every candidate of one sweep is probed on.
struct Proxy {
  u64 seed;
  i64 c, f, k, n;
};

/// Per-candidate outcome slot.
struct Outcome {
  bool evaluated = false;
  double gflops = 0.0;
};

/// The one design-space sweep behind both autotuners. Serves a valid stored
/// ranking under `key` when `plans` has one; otherwise probes every legal
/// candidate on `proxy` (after the optional kconv-xray prune pre-pass),
/// ranks them best first and stores the ranking. `check` is the kernel's
/// legality probe, `model` its xray descriptor and `run` its runner.
template <typename Config, typename Check, typename Model, typename Run>
AutotuneResult<Config> tune(const sim::Arch& arch, const std::string& key,
                            const std::vector<Config>& candidates,
                            const Proxy& proxy, u64 sample_blocks,
                            u32 num_threads, sim::PlanCache* plans,
                            bool analytic, bool static_prune,
                            const Check& check, const Model& model,
                            const Run& run) {
  AutotuneResult<Config> res;
  std::string payload;
  if (plans != nullptr && plans->load(key, payload) &&
      deserialize_ranking(payload, candidates, static_prune, check, res)) {
    return res;
  }

  Rng rng(proxy.seed);
  tensor::Tensor img = tensor::Tensor::image(proxy.c, proxy.n, proxy.n);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(proxy.f, proxy.c, proxy.k);
  flt.fill_random(rng);

  sim::LaunchOptions opt;
  opt.sample_max_blocks = sample_blocks;
  // Probe plans are stored only where a warm plan pays (docs/MODEL.md §5d).
  // A stored probe plan serves any later sweep that probes the same config
  // on the same shape and sampling: the rerun of an interrupted sweep, the
  // pruned or unpruned twin of a finished one, or a sweep over an
  // overlapping space. A warm analytic probe runs ~15x faster than a cold
  // one, so analytic probes replay into the store. A warm plain probe
  // saves about what its capture cost, so plain probes run with no replay
  // and no store: a plain sweep stores only its ranking. Replay keeps
  // counters exact, so scores are the same either way (§5b).
  opt.analytic = analytic;
  opt.plan_cache = analytic ? plans : nullptr;

  // One pool for the pre-pass and the sweep. Every per-candidate step
  // runs with grain 1 and writes only its own slot, so no synchronization
  // is needed beyond the pool's own join.
  const u64 count = candidates.size();
  const u32 threads = static_cast<u32>(std::min<u64>(
      ThreadPool::resolve_threads(num_threads), std::max<u64>(count, 1)));
  std::optional<ThreadPool> pool;
  if (threads > 1 && count > 1) pool.emplace(threads);
  const auto for_each_candidate = [&](const auto& step) {
    const auto body = [&](u64 b, u64 e, u32 /*chunk*/) {
      for (u64 i = b; i < e; ++i) step(i);
    };
    if (pool.has_value()) {
      pool->parallel_for(0, count, 1, body);
    } else {
      body(0, count, 0);
    }
  };

  // kconv-xray pre-pass (docs/MODEL.md §10): rank every legal candidate on
  // its statically predicted counters and keep the top half. Dominated
  // configurations are never simulated.
  std::vector<char> keep(count, 1);
  if (static_prune) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<double> score(count, std::numeric_limits<double>::quiet_NaN());
    for_each_candidate([&](u64 i) {
      if (!check(candidates[i]).empty()) return;
      score[i] = static_score(arch, model(candidates[i]), sample_blocks);
    });
    keep = prune_keep(score);
    for (u64 i = 0; i < count; ++i) {
      if (score[i] == score[i] && keep[i] == 0) ++res.pruned;
    }
    res.prepass_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  }

  // Illegal candidates are skipped without ever constructing a kernel; a
  // defensive catch keeps a candidate that still throws in the skipped
  // bucket rather than poisoning the sweep.
  std::vector<Outcome> out(count);
  for_each_candidate([&](u64 i) {
    if (keep[i] == 0 || !check(candidates[i]).empty()) return;
    try {
      // A fresh device per candidate: scores never depend on what the
      // sweep ran before (allocator addresses, L2 warmth), so the ranking
      // is identical for any thread count.
      sim::Device cand_dev(arch);
      out[i].gflops = run(cand_dev, img, flt, candidates[i], opt, {})
                          .launch.timing.gflops;
      out[i].evaluated = true;
    } catch (const Error&) {
      // Pre-validation should have caught this; count it as skipped.
    }
  });

  for (u64 i = 0; i < count; ++i) {
    if (out[i].evaluated) res.ranking.push_back({candidates[i], out[i].gflops});
  }
  res.evaluated = static_cast<i64>(res.ranking.size());
  res.skipped = static_cast<i64>(count) - res.evaluated - res.pruned;
  KCONV_CHECK(res.evaluated > 0, "no legal configuration in the search space");
  std::stable_sort(res.ranking.begin(), res.ranking.end(), kBestFirst);
  res.best = res.ranking.front();
  if (plans != nullptr) plans->store(key, serialize_ranking(res));
  return res;
}

}  // namespace

GeneralAutotuneResult autotune_general(sim::Device& dev, i64 k, i64 c, i64 f,
                                       i64 n, const GeneralSpace& space,
                                       u64 sample_blocks, u32 num_threads,
                                       sim::PlanCache* plans, bool analytic,
                                       bool static_prune) {
  // Enumeration order is the ranking's tie-break order — keep it fixed.
  std::vector<kernels::GeneralConvConfig> candidates;
  for (const i64 w : space.block_w) {
    for (const i64 h : space.block_h) {
      for (const i64 ftb : space.ftb) {
        for (const i64 wt : space.wt) {
          for (const i64 ft : space.ft) {
            for (const i64 csh : space.csh) {
              kernels::GeneralConvConfig cfg;
              cfg.block_w = w;
              cfg.block_h = h;
              cfg.ftb = ftb;
              cfg.wt = wt;
              cfg.ft = ft;
              cfg.csh = csh;
              candidates.push_back(cfg);
            }
          }
        }
      }
    }
  }
  std::string key = strf(
      "autotune_general|v2|%s|k=%lld|c=%lld|f=%lld|n=%lld|sample=%llu|"
      "analytic=%d|w=%s|h=%s|ftb=%s|wt=%s|ft=%s|csh=%s",
      sim::arch_fingerprint(dev.arch()).c_str(), static_cast<long long>(k),
      static_cast<long long>(c), static_cast<long long>(f),
      static_cast<long long>(n),
      static_cast<unsigned long long>(sample_blocks), analytic ? 1 : 0,
      join_dims(space.block_w).c_str(), join_dims(space.block_h).c_str(),
      join_dims(space.ftb).c_str(), join_dims(space.wt).c_str(),
      join_dims(space.ft).c_str(), join_dims(space.csh).c_str());
  // Pruned and unpruned rankings are different artifacts (fewer entries,
  // a non-zero pruned count) — never served interchangeably.
  if (static_prune) key += "|prune=1";
  const sim::Arch& arch = dev.arch();
  return tune(
      arch, key, candidates, Proxy{0xDE5E, c, f, k, n}, sample_blocks,
      num_threads, plans, analytic, static_prune,
      [&](const kernels::GeneralConvConfig& cfg) {
        return kernels::general_conv_check(arch, k, c, f, n, n, cfg);
      },
      [&](const kernels::GeneralConvConfig& cfg) {
        return kernels::general_conv_xray(arch, k, c, f, n, n, cfg);
      },
      kernels::general_conv);
}

SpecialAutotuneResult autotune_special(sim::Device& dev, i64 k, i64 f, i64 n,
                                       const SpecialSpace& space,
                                       u64 sample_blocks, u32 num_threads,
                                       sim::PlanCache* plans, bool analytic,
                                       bool static_prune) {
  std::vector<kernels::SpecialConvConfig> candidates;
  for (const i64 w : space.block_w) {
    for (const i64 h : space.block_h) {
      kernels::SpecialConvConfig cfg;
      cfg.block_w = w;
      cfg.block_h = h;
      candidates.push_back(cfg);
    }
  }
  std::string key = strf(
      "autotune_special|v2|%s|k=%lld|f=%lld|n=%lld|sample=%llu|"
      "analytic=%d|w=%s|h=%s",
      sim::arch_fingerprint(dev.arch()).c_str(), static_cast<long long>(k),
      static_cast<long long>(f), static_cast<long long>(n),
      static_cast<unsigned long long>(sample_blocks), analytic ? 1 : 0,
      join_dims(space.block_w).c_str(), join_dims(space.block_h).c_str());
  if (static_prune) key += "|prune=1";
  const sim::Arch& arch = dev.arch();
  return tune(
      arch, key, candidates, Proxy{0xDE5F, 1, f, k, n}, sample_blocks,
      num_threads, plans, analytic, static_prune,
      [&](const kernels::SpecialConvConfig& cfg) {
        return kernels::special_conv_check(arch, k, f, n, n, cfg);
      },
      [&](const kernels::SpecialConvConfig& cfg) {
        return kernels::special_conv_xray(arch, k, f, n, n, cfg);
      },
      kernels::special_conv);
}

}  // namespace kconv::core
