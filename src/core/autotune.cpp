#include "src/core/autotune.hpp"

#include <algorithm>
#include <limits>

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

template <typename Result, typename SaveEntry>
std::string serialize_ranking(const Result& res, const SaveEntry& save_entry) {
  sim::PlanWriter w;
  w.put_u64(static_cast<u64>(res.evaluated));
  w.put_u64(static_cast<u64>(res.skipped));
  w.put_u64(static_cast<u64>(res.pruned));
  w.put_u32(static_cast<u32>(res.ranking.size()));
  for (const auto& e : res.ranking) {
    save_entry(w, e);
    w.put_f64(e.gflops);
  }
  return w.take();
}

/// Restores a persisted ranking; false leaves `res` untouched (the caller
/// falls back to a cold sweep that overwrites the stale entry).
template <typename Result, typename LoadEntry>
bool deserialize_ranking(const std::string& payload, Result& res,
                         const LoadEntry& load_entry) {
  sim::PlanReader r(payload);
  Result out;
  out.evaluated = static_cast<i64>(r.get_u64());
  out.skipped = static_cast<i64>(r.get_u64());
  out.pruned = static_cast<i64>(r.get_u64());
  const u32 count = r.get_u32();
  if (!r.ok() || count == 0 || count > (1u << 20) ||
      static_cast<i64>(count) != out.evaluated) {
    return false;
  }
  out.ranking.resize(count);
  for (u32 i = 0; i < count; ++i) {
    load_entry(r, out.ranking[i]);
    out.ranking[i].gflops = r.get_f64();
  }
  if (!r.ok() || !r.at_end()) return false;
  out.best = out.ranking.front();
  out.from_plan_cache = true;
  res = std::move(out);
  return true;
}

/// Per-candidate outcome slot. Exactly one worker writes each slot (the
/// sweep runs with grain 1), so no synchronization is needed beyond the
/// pool's own join.
struct Outcome {
  bool evaluated = false;
  double gflops = 0.0;
};

/// Evaluates `eval` for every candidate whose `check` string is empty, on
/// `num_threads` host threads. Illegal candidates are counted as skipped
/// without ever constructing a kernel; a defensive catch keeps a candidate
/// that still throws in the skipped bucket rather than poisoning the sweep.
template <typename Check, typename Eval>
std::vector<Outcome> sweep(u64 count, u32 num_threads, const Check& check,
                           const Eval& eval) {
  std::vector<Outcome> out(count);
  const u32 threads = static_cast<u32>(std::min<u64>(
      ThreadPool::resolve_threads(num_threads), std::max<u64>(count, 1)));
  const auto body = [&](u64 b, u64 e, u32 /*chunk*/) {
    for (u64 i = b; i < e; ++i) {
      if (!check(i).empty()) continue;
      try {
        out[i].gflops = eval(i);
        out[i].evaluated = true;
      } catch (const Error&) {
        // Pre-validation should have caught this; count it as skipped.
      }
    }
  };
  if (threads <= 1 || count <= 1) {
    body(0, count, 0);
  } else {
    ThreadPool pool(threads);
    pool.parallel_for(0, count, 1, body);
  }
  return out;
}

/// Static score of one candidate (docs/MODEL.md §10): run kconv-xray over
/// the same evenly spaced block sample the probe launch would execute and
/// feed the predicted counters to the simulator's own timing model. No
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
  if (sample_blocks > 0 && sample_blocks < total) {
    // Mirror the launch layer's BlockSet sampling: even spacing, offset
    // half a stride so border blocks are not over-represented.
    const double stride =
        static_cast<double>(total) / static_cast<double>(sample_blocks);
    for (u64 i = 0; i < sample_blocks; ++i) {
      xopt.block_ids.push_back(
          static_cast<u64>((static_cast<double>(i) + 0.5) * stride));
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

template <typename Scored, typename Result>
void finish(const std::vector<Scored>& scored,
            const std::vector<Outcome>& outcomes, Result& res) {
  for (std::size_t i = 0; i < scored.size(); ++i) {
    if (outcomes[i].evaluated) {
      res.ranking.push_back({scored[i], outcomes[i].gflops});
      ++res.evaluated;
    } else {
      ++res.skipped;
    }
  }
  KCONV_CHECK(res.evaluated > 0, "no legal configuration in the search space");
  std::stable_sort(res.ranking.begin(), res.ranking.end(),
                   [](const auto& a, const auto& b) {
                     return a.gflops > b.gflops;
                   });
  res.best = res.ranking.front();
}

}  // namespace

GeneralAutotuneResult autotune_general(sim::Device& dev, i64 k, i64 c, i64 f,
                                       i64 n, const GeneralSpace& space,
                                       u64 sample_blocks, u32 num_threads,
                                       sim::PlanCache* plans, bool analytic,
                                       bool static_prune) {
  const auto save_entry = [](sim::PlanWriter& w, const ScoredGeneralConfig& e) {
    w.put_i64(e.config.block_w);
    w.put_i64(e.config.block_h);
    w.put_i64(e.config.ftb);
    w.put_i64(e.config.wt);
    w.put_i64(e.config.ft);
    w.put_i64(e.config.csh);
    w.put_i64(e.config.vec_width);
    w.put_u8(e.config.pad_filters ? 1 : 0);
    w.put_u8(e.config.prefetch ? 1 : 0);
  };
  const auto load_entry = [](sim::PlanReader& r, ScoredGeneralConfig& e) {
    e.config.block_w = r.get_i64();
    e.config.block_h = r.get_i64();
    e.config.ftb = r.get_i64();
    e.config.wt = r.get_i64();
    e.config.ft = r.get_i64();
    e.config.csh = r.get_i64();
    e.config.vec_width = r.get_i64();
    e.config.pad_filters = r.get_u8() != 0;
    e.config.prefetch = r.get_u8() != 0;
  };
  std::string ranking_key;
  if (plans != nullptr) {
    ranking_key = strf(
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
    if (static_prune) ranking_key += "|prune=1";
    std::string payload;
    GeneralAutotuneResult warm;
    if (plans->load(ranking_key, payload) &&
        deserialize_ranking(payload, warm, load_entry)) {
      return warm;
    }
  }

  Rng rng(0xDE5E);
  tensor::Tensor img = tensor::Tensor::image(c, n, n);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(f, c, k);
  flt.fill_random(rng);

  sim::LaunchOptions opt;
  opt.sample_max_blocks = sample_blocks;
  // Probe launches replay repeated block classes only into a plan store: an
  // interrupted sweep's traces are reused candidate-by-candidate on the next
  // cold run. Without one, a probe's few sampled blocks never repay the
  // capture. Replay keeps counters exact, so scores and rankings are the
  // same either way (docs/MODEL.md §5b); `analytic` implies replay.
  opt.replay = plans != nullptr;
  opt.plan_cache = plans;
  opt.analytic = analytic;

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

  const sim::Arch& arch = dev.arch();
  const auto check = [&](u64 i) {
    return kernels::general_conv_check(arch, k, c, f, n, n, candidates[i]);
  };

  // kconv-xray pre-pass (docs/MODEL.md §10): rank every legal candidate on
  // its statically predicted counters and keep the top half. Dominated
  // configurations are never simulated.
  std::vector<char> keep;
  i64 pruned_count = 0;
  if (static_prune) {
    std::vector<double> score(candidates.size(),
                              std::numeric_limits<double>::quiet_NaN());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (!check(i).empty()) continue;
      score[i] = static_score(
          arch, kernels::general_conv_xray(arch, k, c, f, n, n, candidates[i]),
          sample_blocks);
    }
    keep = prune_keep(score);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (score[i] == score[i] && keep[i] == 0) ++pruned_count;
    }
  }

  const auto outcomes = sweep(
      candidates.size(), num_threads,
      [&](u64 i) {
        if (!keep.empty() && keep[i] == 0) return std::string("pruned");
        return check(i);
      },
      [&](u64 i) {
        // A fresh device per candidate: scores never depend on what the
        // sweep ran before (allocator addresses, L2 warmth), so the ranking
        // is identical for any thread count.
        sim::Device cand_dev(arch);
        auto run = kernels::general_conv(cand_dev, img, flt, candidates[i], opt);
        return run.launch.timing.gflops;
      });

  GeneralAutotuneResult res;
  finish(candidates, outcomes, res);
  res.pruned = pruned_count;
  res.skipped -= pruned_count;
  if (plans != nullptr) {
    plans->store(ranking_key, serialize_ranking(res, save_entry));
  }
  return res;
}

SpecialAutotuneResult autotune_special(sim::Device& dev, i64 k, i64 f, i64 n,
                                       const SpecialSpace& space,
                                       u64 sample_blocks, u32 num_threads,
                                       sim::PlanCache* plans, bool analytic,
                                       bool static_prune) {
  const auto save_entry = [](sim::PlanWriter& w, const ScoredSpecialConfig& e) {
    w.put_i64(e.config.block_w);
    w.put_i64(e.config.block_h);
    w.put_i64(e.config.vec_width);
  };
  const auto load_entry = [](sim::PlanReader& r, ScoredSpecialConfig& e) {
    e.config.block_w = r.get_i64();
    e.config.block_h = r.get_i64();
    e.config.vec_width = r.get_i64();
  };
  std::string ranking_key;
  if (plans != nullptr) {
    ranking_key = strf(
        "autotune_special|v2|%s|k=%lld|f=%lld|n=%lld|sample=%llu|"
        "analytic=%d|w=%s|h=%s",
        sim::arch_fingerprint(dev.arch()).c_str(), static_cast<long long>(k),
        static_cast<long long>(f), static_cast<long long>(n),
        static_cast<unsigned long long>(sample_blocks), analytic ? 1 : 0,
        join_dims(space.block_w).c_str(), join_dims(space.block_h).c_str());
    if (static_prune) ranking_key += "|prune=1";
    std::string payload;
    SpecialAutotuneResult warm;
    if (plans->load(ranking_key, payload) &&
        deserialize_ranking(payload, warm, load_entry)) {
      return warm;
    }
  }

  Rng rng(0xDE5F);
  tensor::Tensor img = tensor::Tensor::image(1, n, n);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(f, 1, k);
  flt.fill_random(rng);

  sim::LaunchOptions opt;
  opt.sample_max_blocks = sample_blocks;
  opt.replay = plans != nullptr;  // as in autotune_general
  opt.plan_cache = plans;
  opt.analytic = analytic;

  std::vector<kernels::SpecialConvConfig> candidates;
  for (const i64 w : space.block_w) {
    for (const i64 h : space.block_h) {
      kernels::SpecialConvConfig cfg;
      cfg.block_w = w;
      cfg.block_h = h;
      candidates.push_back(cfg);
    }
  }

  const sim::Arch& arch = dev.arch();
  const auto check = [&](u64 i) {
    return kernels::special_conv_check(arch, k, f, n, n, candidates[i]);
  };

  std::vector<char> keep;
  i64 pruned_count = 0;
  if (static_prune) {
    std::vector<double> score(candidates.size(),
                              std::numeric_limits<double>::quiet_NaN());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (!check(i).empty()) continue;
      score[i] = static_score(
          arch, kernels::special_conv_xray(arch, k, f, n, n, candidates[i]),
          sample_blocks);
    }
    keep = prune_keep(score);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (score[i] == score[i] && keep[i] == 0) ++pruned_count;
    }
  }

  const auto outcomes = sweep(
      candidates.size(), num_threads,
      [&](u64 i) {
        if (!keep.empty() && keep[i] == 0) return std::string("pruned");
        return check(i);
      },
      [&](u64 i) {
        sim::Device cand_dev(arch);
        auto run = kernels::special_conv(cand_dev, img, flt, candidates[i], opt);
        return run.launch.timing.gflops;
      });

  SpecialAutotuneResult res;
  finish(candidates, outcomes, res);
  res.pruned = pruned_count;
  res.skipped -= pruned_count;
  if (plans != nullptr) {
    plans->store(ranking_key, serialize_ranking(res, save_entry));
  }
  return res;
}

}  // namespace kconv::core
