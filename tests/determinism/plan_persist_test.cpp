// Cross-launch plan persistence suite (docs/MODEL.md §5d).
//
// The contract under test:
//   - a warm launch (plan loaded from disk, zero representative execution)
//     produces byte-identical outputs and equal scheduling-invariant
//     counters to both the cold capture that wrote the plan and the direct
//     no-replay path — serially, on the chunked parallel launcher, and at
//     functional tape fidelity;
//   - analytic mode serves the invariant and compute counters exactly from
//     the (fresh or persisted) traces without materializing outputs, and
//     refuses to profile (a profiled launch executes every block);
//   - a damaged or foreign store falls back to capture — loudly classified,
//     never silently wrong — and heals the store for the next launch;
//   - one store directory serves concurrent warm launches;
//   - a sampled launch's partial plan is unioned with a later full
//     launch's classes instead of being clobbered;
//   - warm autotune returns the stored ranking bit-exact without
//     simulating a single candidate.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/core/autotune.hpp"
#include "src/kernels/general_conv.hpp"
#include "src/kernels/special_conv.hpp"
#include "src/profile/phase.hpp"
#include "src/sim/device.hpp"
#include "src/sim/launch.hpp"
#include "src/sim/plan_cache.hpp"
#include "tests/support/stats_match.hpp"

namespace kconv {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path p = fs::temp_directory_path() / ("kconv_persist_" + name);
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

/// Counters that must match bit for bit across direct, cold-capture and
/// warm-plan launches. pattern_lookups/pattern_hits are excluded (a warm
/// launch replays every block, so fewer shared-memory lookups reach the
/// cache — by design), as is blocks_replayed.
void expect_invariant_stats(const sim::KernelStats& a,
                            const sim::KernelStats& b) {
  EXPECT_TRUE(test::stats_match(a, b, StatsLevel::Schedule));
}

void expect_bytes_equal(std::span<const float> a, std::span<const float> b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

struct RunParams {
  sim::PlanCache* plans = nullptr;
  bool replay = true;
  bool analytic = false;
  bool profile = false;
  u32 num_threads = 1;
  u64 sample = 0;
  u32 devices = 1;
  sim::TraceLevel trace = sim::TraceLevel::Functional;
  /// Overrides the runner's auto-computed xray signature (0 = let the
  /// runner stamp its own; tests use distinct values to fake a kernel
  /// change under an unchanged plan key).
  u64 signature = 0;
};

sim::LaunchOptions options(const RunParams& p) {
  sim::LaunchOptions opt;
  opt.plan_cache = p.plans;
  opt.replay = p.replay;
  opt.analytic = p.analytic;
  opt.profile = p.profile;
  opt.num_threads = p.num_threads;
  opt.sample_max_blocks = p.sample;
  opt.fleet.devices = p.devices;
  opt.trace = p.trace;
  opt.plan_static_signature = p.signature;
  return opt;
}

/// General conv over a shape with interior, edge and corner classes.
kernels::KernelRun run_general(const RunParams& p) {
  Rng rng(11);
  tensor::Tensor img = tensor::Tensor::image(8, 28, 28);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(32, 8, 3);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  kernels::GeneralConvConfig cfg;
  cfg.block_w = 8;
  cfg.block_h = 4;
  cfg.ftb = 32;
  cfg.wt = 4;
  cfg.ft = 4;
  cfg.csh = 2;
  return kernels::general_conv(dev, img, flt, cfg, options(p));
}

/// Special conv (single channel, constant-memory filters, relocatable
/// tape replay).
kernels::KernelRun run_special(const RunParams& p) {
  Rng rng(7);
  tensor::Tensor img = tensor::Tensor::image(1, 40, 40);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(8, 1, 5);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  kernels::SpecialConvConfig cfg;
  cfg.block_w = 16;
  cfg.block_h = 4;
  return kernels::special_conv(dev, img, flt, cfg, options(p));
}

TEST(PlanPersist, WarmLaunchIsByteIdenticalSerial) {
  sim::PlanCache plans(fresh_dir("serial"));
  const auto direct = run_general({.plans = nullptr, .replay = false});
  const auto cold = run_general({.plans = &plans});
  const auto warm = run_general({.plans = &plans});

  EXPECT_FALSE(cold.launch.plan_cache_hit);
  EXPECT_EQ(cold.launch.plan_cache_status, "miss");
  EXPECT_TRUE(warm.launch.plan_cache_hit);
  EXPECT_EQ(warm.launch.plan_cache_status, "hit");
  // Zero representative execution: every block replays on the warm path.
  EXPECT_EQ(warm.launch.blocks_replayed, warm.launch.blocks_total);

  ASSERT_TRUE(direct.output_valid && cold.output_valid && warm.output_valid);
  expect_bytes_equal(warm.output.flat(), direct.output.flat());
  expect_bytes_equal(warm.output.flat(), cold.output.flat());
  expect_invariant_stats(warm.launch.stats, direct.launch.stats);
  expect_invariant_stats(warm.launch.stats, cold.launch.stats);
}

TEST(PlanPersist, AttachedStoreImpliesReplay) {
  sim::PlanCache plans(fresh_dir("implied_replay"));
  const auto direct = run_general({.plans = nullptr, .replay = false});
  const auto cold = run_general({.plans = &plans, .replay = false});
  const auto warm = run_general({.plans = &plans, .replay = false});

  EXPECT_EQ(cold.launch.plan_cache_status, "miss");
  EXPECT_GE(plans.stores(), 1u);
  EXPECT_EQ(warm.launch.plan_cache_status, "hit");
  EXPECT_EQ(warm.launch.blocks_replayed, warm.launch.blocks_total);
  ASSERT_TRUE(direct.output_valid && warm.output_valid);
  expect_bytes_equal(warm.output.flat(), direct.output.flat());
  expect_invariant_stats(warm.launch.stats, direct.launch.stats);
}

TEST(PlanPersist, WarmLaunchIsByteIdenticalSpecialKernel) {
  sim::PlanCache plans(fresh_dir("special"));
  const auto cold = run_special({.plans = &plans});
  const auto warm = run_special({.plans = &plans});

  EXPECT_TRUE(warm.launch.plan_cache_hit);
  EXPECT_EQ(warm.launch.blocks_replayed, warm.launch.blocks_total);
  ASSERT_TRUE(cold.output_valid && warm.output_valid);
  expect_bytes_equal(warm.output.flat(), cold.output.flat());
  expect_invariant_stats(warm.launch.stats, cold.launch.stats);
}

TEST(PlanPersist, StaleStaticSignatureFallsBackAndHeals) {
  sim::PlanCache plans(fresh_dir("xray_sig"));
  const auto cold = run_general({.plans = &plans, .signature = 0xAAAA});
  EXPECT_EQ(cold.launch.plan_cache_status, "miss");

  // A launch whose xray signature disagrees with the stored plan's must
  // reject it before replaying a byte (the capture predates a kernel
  // change the plan key missed), fall back to a fresh capture with
  // identical results, and heal the store under the new signature.
  const auto changed = run_general({.plans = &plans, .signature = 0xBBBB});
  EXPECT_FALSE(changed.launch.plan_cache_hit);
  EXPECT_EQ(changed.launch.plan_cache_status, "stale-static-signature");
  ASSERT_TRUE(cold.output_valid && changed.output_valid);
  expect_bytes_equal(changed.output.flat(), cold.output.flat());
  expect_invariant_stats(changed.launch.stats, cold.launch.stats);

  const auto warm = run_general({.plans = &plans, .signature = 0xBBBB});
  EXPECT_TRUE(warm.launch.plan_cache_hit);
  EXPECT_EQ(warm.launch.plan_cache_status, "hit");
}

TEST(PlanPersist, RunnerStampsItsOwnSignatureByDefault) {
  // The kernel runners fill plan_static_signature from their xray
  // describer whenever a plan cache is attached, so the shipping kernels
  // warm themselves (signature agrees with itself across runs) while an
  // explicitly different signature — a stand-in for a changed kernel
  // body — rejects what the runner stored.
  sim::PlanCache plans(fresh_dir("auto_sig"));
  const auto cold = run_special({.plans = &plans});
  const auto warm = run_special({.plans = &plans});
  EXPECT_FALSE(cold.launch.plan_cache_hit);
  EXPECT_TRUE(warm.launch.plan_cache_hit);

  const auto foreign = run_special({.plans = &plans, .signature = 0x1234});
  EXPECT_FALSE(foreign.launch.plan_cache_hit);
  EXPECT_EQ(foreign.launch.plan_cache_status, "stale-static-signature");
}

TEST(PlanPersist, WarmLaunchComposesWithParallelChunks) {
  sim::PlanCache plans(fresh_dir("parallel"));
  const auto cold = run_general({.plans = &plans});
  const auto warm3 = run_general({.plans = &plans, .num_threads = 3});

  EXPECT_TRUE(warm3.launch.plan_cache_hit);
  EXPECT_EQ(warm3.launch.blocks_replayed, warm3.launch.blocks_total);
  ASSERT_TRUE(warm3.output_valid);
  expect_bytes_equal(warm3.output.flat(), cold.output.flat());
  expect_invariant_stats(warm3.launch.stats, cold.launch.stats);
}

TEST(PlanPersist, ParallelColdCaptureServesSerialWarm) {
  sim::PlanCache plans(fresh_dir("par_cold"));
  const auto cold3 = run_general({.plans = &plans, .num_threads = 3});
  const auto warm = run_general({.plans = &plans});

  EXPECT_FALSE(cold3.launch.plan_cache_hit);
  EXPECT_TRUE(warm.launch.plan_cache_hit);
  EXPECT_EQ(warm.launch.blocks_replayed, warm.launch.blocks_total);
  expect_bytes_equal(warm.output.flat(), cold3.output.flat());
  expect_invariant_stats(warm.launch.stats, cold3.launch.stats);
}

TEST(PlanPersist, TimingLevelPlansRoundTrip) {
  sim::PlanCache plans(fresh_dir("timing"));
  const auto cold =
      run_general({.plans = &plans, .trace = sim::TraceLevel::Timing});
  const auto warm =
      run_general({.plans = &plans, .trace = sim::TraceLevel::Timing});

  EXPECT_TRUE(warm.launch.plan_cache_hit);
  expect_bytes_equal(warm.output.flat(), cold.output.flat());
  expect_invariant_stats(warm.launch.stats, cold.launch.stats);
}

TEST(PlanPersist, AnalyticServesExactInvariantCountersWithoutOutputs) {
  sim::PlanCache plans(fresh_dir("analytic"));
  const auto full = run_general({.plans = &plans});
  const auto ana = run_general({.plans = &plans, .analytic = true});

  EXPECT_TRUE(ana.launch.analytic);
  EXPECT_TRUE(ana.launch.plan_cache_hit);
  EXPECT_FALSE(ana.output_valid);  // outputs never materialized
  EXPECT_EQ(ana.launch.blocks_replayed, ana.launch.blocks_total);
  expect_invariant_stats(ana.launch.stats, full.launch.stats);
  // The address-dependent approximation still lands on the same totals
  // here: every class's blocks see congruent sector sets.
  EXPECT_EQ(ana.launch.stats.gm_sectors, full.launch.stats.gm_sectors);
}

TEST(PlanPersist, AnalyticColdWorksWithoutAStore) {
  const auto full = run_special({.plans = nullptr});
  const auto ana = run_special({.plans = nullptr, .analytic = true});
  EXPECT_TRUE(ana.launch.analytic);
  EXPECT_FALSE(ana.output_valid);
  expect_invariant_stats(ana.launch.stats, full.launch.stats);
}

TEST(PlanPersist, AnalyticProfiledLaunchIsRejected) {
  // Plans carry no phase profile and a profiled launch executes every
  // block, so an analytic one is refused with validate()'s reason before
  // it runs or touches the store.
  sim::PlanCache plans(fresh_dir("ana_phase"));
  const std::string why = options({.analytic = true, .profile = true})
                              .validate();
  ASSERT_FALSE(why.empty());
  try {
    (void)run_general({.plans = &plans, .analytic = true, .profile = true});
    ADD_FAILURE() << "analytic x profile launched";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(fs::is_empty(plans.dir()));
}

/// The key a stored blob's envelope names (magic, format version, key;
/// empty when the header does not parse). Tape sidecars are stored under
/// the plan's key plus "|tapes".
std::string envelope_key(const fs::path& p) {
  std::FILE* f = std::fopen(p.string().c_str(), "rb");
  if (f == nullptr) return {};
  char head[1024] = {};
  const std::size_t n = std::fread(head, 1, sizeof(head), f);
  std::fclose(f);
  sim::PlanReader r(std::string_view(head, n));
  char magic[8];
  (void)r.raw(magic, sizeof(magic));
  (void)r.get_u32();
  std::string key = r.get_str();
  return r.ok() ? key : std::string{};
}

bool is_tape_sidecar(const fs::path& p) {
  return envelope_key(p).ends_with("|tapes");
}

/// The store's plan blob files for `key`, not counting its tape sidecar.
std::vector<fs::path> plan_blobs(const sim::PlanCache& plans,
                                 const std::string& key) {
  std::vector<fs::path> out;
  for (const auto& e : fs::directory_iterator(plans.dir())) {
    if (e.path().extension() == ".kplan" && envelope_key(e.path()) == key) {
      out.push_back(e.path());
    }
  }
  return out;
}

TEST(PlanPersist, DamagedStoreFallsBackAndHeals) {
  // Each damage on a fresh store: a flipped payload byte, which the
  // checksum catches, and a blob of the previous format version. The
  // checksum covers only the payload, so the version field (envelope byte
  // 8, after the magic) is rewritten in place and nothing else changes.
  const struct {
    const char* dir;
    const char* status;
  } damages[] = {{"damaged", "corrupt"}, {"stale_version", "stale-version"}};
  for (const auto& d : damages) {
    SCOPED_TRACE(d.status);
    sim::PlanCache plans(fresh_dir(d.dir));
    const auto cold = run_general({.plans = &plans});

    // The store also holds the tape sidecar, so pick the plan by the key in
    // its envelope, not by directory order.
    std::string key;
    for (const auto& e : fs::directory_iterator(plans.dir())) {
      const std::string k = envelope_key(e.path());
      if (!k.empty() && !k.ends_with("|tapes")) key = k;
    }
    ASSERT_FALSE(key.empty());
    const std::vector<fs::path> blobs = plan_blobs(plans, key);
    ASSERT_EQ(blobs.size(), 1u);
    {
      std::FILE* f = std::fopen(blobs[0].string().c_str(), "rb+");
      ASSERT_NE(f, nullptr);
      if (std::string_view(d.status) == "corrupt") {
        std::fseek(f, -4, SEEK_END);
        int ch = std::fgetc(f);
        std::fseek(f, -4, SEEK_END);
        std::fputc(ch ^ 0x20, f);
      } else {
        const u32 old_version = sim::kPlanFormatVersion - 1;
        std::fseek(f, 8, SEEK_SET);
        ASSERT_EQ(std::fwrite(&old_version, sizeof(old_version), 1, f), 1u);
      }
      std::fclose(f);
    }

    const auto fallback = run_general({.plans = &plans});
    EXPECT_FALSE(fallback.launch.plan_cache_hit);
    EXPECT_EQ(fallback.launch.plan_cache_status, d.status);
    expect_bytes_equal(fallback.output.flat(), cold.output.flat());
    expect_invariant_stats(fallback.launch.stats, cold.launch.stats);

    // The fallback capture re-stored a good plan in place of the damaged
    // one, not beside it.
    EXPECT_EQ(plan_blobs(plans, key).size(), 1u);
    const auto healed = run_general({.plans = &plans});
    EXPECT_TRUE(healed.launch.plan_cache_hit);
    EXPECT_EQ(healed.launch.plan_cache_status, "hit");
    expect_bytes_equal(healed.output.flat(), cold.output.flat());
  }
}

TEST(PlanPersist, DamagedTapeSidecarStillServesWarmByFastForward) {
  sim::PlanCache plans(fresh_dir("sidecar"));
  const auto cold = run_special({.plans = &plans});

  // The special shape's grid clears the sidecar amortization gate, so the
  // cold capture wrote base plan + tape sidecar.
  fs::path sidecar;
  for (const auto& e : fs::directory_iterator(plans.dir())) {
    if (is_tape_sidecar(e.path())) sidecar = e.path();
  }
  ASSERT_FALSE(sidecar.empty());
  fs::resize_file(sidecar, fs::file_size(sidecar) / 2);

  // A truncated sidecar is not a plan miss: the base traces are intact, so
  // the launch is still warm — every block replays, just through per-block
  // fast-forward instead of the tape interpreter, with identical results.
  const auto warm = run_special({.plans = &plans});
  EXPECT_TRUE(warm.launch.plan_cache_hit);
  EXPECT_EQ(warm.launch.plan_cache_status, "hit");
  EXPECT_EQ(warm.launch.blocks_replayed, warm.launch.blocks_total);
  ASSERT_TRUE(warm.output_valid);
  expect_bytes_equal(warm.output.flat(), cold.output.flat());
  expect_invariant_stats(warm.launch.stats, cold.launch.stats);
}

TEST(PlanPersist, SmallGridSkipsTheTapeSidecar) {
  sim::PlanCache plans(fresh_dir("small_grid"));
  Rng rng(7);
  tensor::Tensor img = tensor::Tensor::image(1, 24, 24);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(8, 1, 5);
  flt.fill_random(rng);
  kernels::SpecialConvConfig cfg;
  cfg.block_w = 16;
  cfg.block_h = 4;
  sim::LaunchOptions opt;
  opt.replay = true;
  opt.plan_cache = &plans;

  sim::Device dev(sim::kepler_k40m());
  const auto cold = kernels::special_conv(dev, img, flt, cfg, opt);
  // Under the amortization gate (16 blocks) the store holds the base plan
  // only — a sidecar for this key would never be read back.
  ASSERT_LT(cold.launch.blocks_total, 16u);
  int blobs = 0;
  for (const auto& e : fs::directory_iterator(plans.dir())) {
    EXPECT_FALSE(is_tape_sidecar(e.path()));
    ++blobs;
  }
  EXPECT_EQ(blobs, 1);

  sim::Device dev2(sim::kepler_k40m());
  const auto warm = kernels::special_conv(dev2, img, flt, cfg, opt);
  EXPECT_TRUE(warm.launch.plan_cache_hit);
  EXPECT_EQ(warm.launch.blocks_replayed, warm.launch.blocks_total);
  ASSERT_TRUE(warm.output_valid);
  expect_bytes_equal(warm.output.flat(), cold.output.flat());
  expect_invariant_stats(warm.launch.stats, cold.launch.stats);
}

TEST(PlanPersist, DifferentArchNeverServesTheStoredPlan) {
  const std::string dir = fresh_dir("arch");
  sim::PlanCache plans(dir);

  Rng rng(7);
  tensor::Tensor img = tensor::Tensor::image(1, 40, 40);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(8, 1, 5);
  flt.fill_random(rng);
  kernels::SpecialConvConfig cfg;
  cfg.block_w = 16;
  cfg.block_h = 4;

  sim::LaunchOptions opt;
  opt.replay = true;
  opt.plan_cache = &plans;

  sim::Device k40(sim::kepler_k40m());
  (void)kernels::special_conv(k40, img, flt, cfg, opt);

  // Same shape and key inputs, different bank geometry: the arch
  // fingerprint in the store key keeps the plans apart.
  sim::Device k40_4b(sim::kepler_k40m_4byte_banks());
  const auto other = kernels::special_conv(k40_4b, img, flt, cfg, opt);
  EXPECT_FALSE(other.launch.plan_cache_hit);

  sim::Device k40b(sim::kepler_k40m());
  const auto warm = kernels::special_conv(k40b, img, flt, cfg, opt);
  EXPECT_TRUE(warm.launch.plan_cache_hit);
}

TEST(PlanPersist, ConcurrentWarmLaunchesShareOneStore) {
  sim::PlanCache plans(fresh_dir("concurrent"));
  const auto cold = run_special({.plans = &plans});

  constexpr int kThreads = 4;
  std::vector<kernels::KernelRun> runs(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    pool.emplace_back(
        [&, i] { runs[i] = run_special({.plans = &plans}); });
  }
  for (auto& t : pool) t.join();

  for (const auto& r : runs) {
    EXPECT_TRUE(r.launch.plan_cache_hit);
    ASSERT_TRUE(r.output_valid);
    expect_bytes_equal(r.output.flat(), cold.output.flat());
    expect_invariant_stats(r.launch.stats, cold.launch.stats);
  }
}

TEST(PlanPersist, SampledPlanUnionsWithFullLaunch) {
  // The full launch runs as one chunk (serial), three parallel chunks, and
  // one chunk per fleet device: each re-store merges the chunks' fresh
  // captures into one plan.
  struct Mode {
    const char* name;
    u32 num_threads;
    u32 devices;
  };
  for (const Mode m : {Mode{"serial", 1, 1}, Mode{"threads3", 3, 1},
                       Mode{"fleet2", 1, 2}}) {
    SCOPED_TRACE(m.name);
    sim::PlanCache plans(fresh_dir(std::string("sampled-") + m.name));
    // A sampled cold launch stores a partial plan (classes of the sampled
    // blocks only; sampling is deliberately absent from the store key).
    const auto sampled = run_general({.plans = &plans, .sample = 2});
    EXPECT_TRUE(sampled.launch.sampled);
    EXPECT_EQ(sampled.launch.plan_cache_status, "miss");

    // The full launch starts from the partial plan, captures what is
    // missing, and re-stores the union...
    const RunParams full_run{.plans = &plans,
                             .num_threads = m.num_threads,
                             .devices = m.devices};
    const auto full = run_general(full_run);
    EXPECT_TRUE(full.launch.plan_cache_hit);
    EXPECT_LT(full.launch.blocks_replayed, full.launch.blocks_total);

    // ...so the next full launch replays everything.
    const auto warm = run_general(full_run);
    EXPECT_TRUE(warm.launch.plan_cache_hit);
    EXPECT_EQ(warm.launch.blocks_replayed, warm.launch.blocks_total);
    ASSERT_TRUE(full.output_valid && warm.output_valid);
    expect_bytes_equal(warm.output.flat(), full.output.flat());
    expect_invariant_stats(warm.launch.stats, full.launch.stats);
  }
}

TEST(PlanPersist, WarmAutotuneReturnsTheStoredRankingBitExact) {
  sim::PlanCache plans(fresh_dir("autotune"));
  sim::Device dev(sim::kepler_k40m());

  const auto cold = core::autotune_special(dev, 5, 8, 64, {}, 4, 1, &plans);
  EXPECT_FALSE(cold.from_plan_cache);
  const auto warm = core::autotune_special(dev, 5, 8, 64, {}, 4, 1, &plans);
  EXPECT_TRUE(warm.from_plan_cache);

  EXPECT_EQ(warm.evaluated, cold.evaluated);
  EXPECT_EQ(warm.skipped, cold.skipped);
  EXPECT_EQ(warm.ranking, cold.ranking);  // scores bitwise

  // Analytic probes are keyed separately and still converge on a ranking.
  const auto ana =
      core::autotune_special(dev, 5, 8, 64, {}, 4, 1, &plans, true);
  EXPECT_FALSE(ana.from_plan_cache);
  const auto ana_warm =
      core::autotune_special(dev, 5, 8, 64, {}, 4, 1, &plans, true);
  EXPECT_TRUE(ana_warm.from_plan_cache);
  EXPECT_EQ(ana_warm.best.config, ana.best.config);
}

}  // namespace
}  // namespace kconv
