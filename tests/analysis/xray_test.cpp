// kconv-xray engine tests: static predictions must be bit-equal to the
// dynamic executor's counters on the shipping kernels (the exact half of
// the docs/MODEL.md §10 contract), race verdicts must prove the shipping
// kernels disjoint, and the report must flag the seeded defects.
#include "src/analysis/static/xray.hpp"

#include <optional>

#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/core/conv_api.hpp"
#include "src/kernels/general_conv.hpp"
#include "src/kernels/implicit_gemm_conv.hpp"
#include "src/kernels/special_conv.hpp"
#include "src/sim/sim.hpp"
#include "src/tensor/tensor.hpp"
#include "tests/support/json_reader.hpp"

namespace kconv::xray {
namespace {

using testsupport::field;
using testsupport::JsonReader;
using testsupport::JsonValue;

/// Runs the special kernel for real and cross-validates the static report
/// against the measured counters.
void check_special(i64 k, i64 f, i64 hi, i64 wi,
                   const kernels::SpecialConvConfig& cfg, bool fused = false,
                   const sim::Arch& arch = sim::kepler_k40m(),
                   bool expect_clean = true) {
  SCOPED_TRACE(strf("k=%lld f=%lld hi=%lld wi=%lld bw=%lld bh=%lld vec=%lld "
                    "fused=%d",
                    static_cast<long long>(k), static_cast<long long>(f),
                    static_cast<long long>(hi), static_cast<long long>(wi),
                    static_cast<long long>(cfg.block_w),
                    static_cast<long long>(cfg.block_h),
                    static_cast<long long>(cfg.vec_width), fused ? 1 : 0));
  Rng rng(7);
  tensor::Tensor img = tensor::Tensor::image(1, hi, wi);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(f, 1, k);
  flt.fill_random(rng);
  std::vector<float> bias;
  if (fused) bias.assign(static_cast<std::size_t>(f), 0.25f);

  sim::Device dev(arch);
  const auto run = kernels::special_conv(dev, img, flt, cfg, {}, bias);

  const KernelModel model =
      kernels::special_conv_xray(arch, k, f, hi, wi, cfg, fused);
  EXPECT_EQ(model.cfg.grid.count(), run.launch.blocks_total);

  const StaticReport rep = analyze(arch, model);
  const CrossCheck cc = cross_validate(rep, run.launch.stats, false);
  EXPECT_TRUE(cc.ok);
  for (const std::string& m : cc.mismatches) ADD_FAILURE() << m;

  // The shipping kernel must come out statically race-free; matched
  // configurations must be finding-clean too.
  for (const RacePair& r : rep.races) {
    EXPECT_EQ(r.verdict, RaceVerdict::ProvenDisjoint)
        << rep.sites[r.site_a].name << " vs " << rep.sites[r.site_b].name;
  }
  EXPECT_EQ(rep.clean(), expect_clean) << format_static(rep);
}

TEST(XraySpecial, PaperShapesCrossValidate) {
  check_special(3, 8, 32, 32, {});
  check_special(5, 8, 32, 32, {});
  check_special(7, 4, 40, 40, {});
}

TEST(XraySpecial, EdgePredicationCrossValidates) {
  // Sizes that do not divide the tile: main/tail/write predicates all clip.
  check_special(3, 2, 17, 19, {8, 4, 0});
  check_special(5, 2, 23, 31, {16, 8, 0});
  check_special(3, 1, 9, 9, {16, 8, 0});
}

TEST(XraySpecial, VectorWidthVariantsCrossValidate) {
  // vec_width=1 is the paper's unmatched ablation: counters still
  // cross-validate, and the static pass correctly flags the width mismatch
  // on Kepler's 8-byte banks (hence not clean).
  check_special(3, 4, 20, 20, {16, 4, 1}, false, sim::kepler_k40m(),
                /*expect_clean=*/false);
  check_special(3, 4, 20, 20, {16, 4, 2});
  check_special(3, 4, 24, 24, {16, 4, 4});
}

TEST(XraySpecial, FusedBiasReluCrossValidates) {
  check_special(3, 8, 32, 32, {}, /*fused=*/true);
}

TEST(XraySpecial, FourByteBankArchCrossValidates) {
  check_special(3, 8, 32, 32, {}, false, sim::kepler_k40m_4byte_banks());
  check_special(3, 8, 32, 32, {}, false, sim::fermi_m2090());
}

TEST(XraySpecial, SignatureMatchesFullAnalysis) {
  const sim::Arch arch = sim::kepler_k40m();
  const KernelModel model = kernels::special_conv_xray(arch, 3, 8, 32, 32, {});
  const StaticReport rep = analyze(arch, model);
  EXPECT_EQ(static_signature(arch, model), rep.signature);
  EXPECT_NE(rep.signature, 0u);

  // Any change to the access pattern moves the signature.
  kernels::SpecialConvConfig other;
  other.vec_width = 1;
  const KernelModel changed =
      kernels::special_conv_xray(arch, 3, 8, 32, 32, other);
  EXPECT_NE(static_signature(arch, changed), rep.signature);
}

TEST(XraySpecial, SampledAnalysisMarksSampled) {
  const sim::Arch arch = sim::kepler_k40m();
  const KernelModel model =
      kernels::special_conv_xray(arch, 3, 4, 64, 64, {});
  ASSERT_GT(model.cfg.grid.count(), 1u);
  XrayOptions opt;
  opt.block_ids = {0};
  const StaticReport rep = analyze(arch, model, opt);
  EXPECT_TRUE(rep.sampled);
  EXPECT_EQ(rep.blocks_analyzed, 1u);
  const StaticReport full = analyze(arch, model);
  EXPECT_FALSE(full.sampled);
  EXPECT_EQ(full.blocks_analyzed, full.blocks_total);
  EXPECT_EQ(full.signature, rep.signature);  // both lead with block 0
}

TEST(XraySpecial, UnmatchedWidthFlaggedOnKeplerOnly) {
  // vec_width=1 on 8-byte banks is the paper's Fig. 7b ablation: the
  // dominant smem sites move 4-byte lanes through 8-byte banks.
  const sim::Arch kepler = sim::kepler_k40m();
  kernels::SpecialConvConfig cfg;
  cfg.vec_width = 1;
  const StaticReport rep =
      analyze(kepler, kernels::special_conv_xray(kepler, 3, 8, 64, 64, cfg));
  bool width = false;
  for (const Finding& f : rep.findings) {
    if (f.kind == "bank-width-mismatch") {
      width = true;
      EXPECT_EQ(f.severity, analysis::Severity::Warning);
      EXPECT_FALSE(f.citation.empty());
      EXPECT_FALSE(f.remediation.empty());
    }
  }
  EXPECT_TRUE(width) << format_static(rep);
  EXPECT_FALSE(rep.clean());

  // The same config on 4-byte banks is matched — no finding.
  const sim::Arch fermi = sim::fermi_m2090();
  const StaticReport ok =
      analyze(fermi, kernels::special_conv_xray(fermi, 3, 8, 64, 64, cfg));
  for (const Finding& f : ok.findings) {
    EXPECT_NE(f.kind, "bank-width-mismatch") << format_static(ok);
  }
}

/// Runs the general kernel for real and cross-validates the static report
/// against the measured counters.
void check_general(i64 k, i64 c, i64 f, i64 hi, i64 wi,
                   const kernels::GeneralConvConfig& cfg, bool fused = false,
                   const sim::Arch& arch = sim::kepler_k40m(),
                   bool expect_clean = true) {
  SCOPED_TRACE(strf("k=%lld c=%lld f=%lld hi=%lld wi=%lld ftb=%lld csh=%lld "
                    "vec=%lld pad=%d pf=%d fused=%d",
                    static_cast<long long>(k), static_cast<long long>(c),
                    static_cast<long long>(f), static_cast<long long>(hi),
                    static_cast<long long>(wi),
                    static_cast<long long>(cfg.ftb),
                    static_cast<long long>(cfg.csh),
                    static_cast<long long>(cfg.vec_width),
                    cfg.pad_filters ? 1 : 0, cfg.prefetch ? 1 : 0,
                    fused ? 1 : 0));
  Rng rng(11);
  tensor::Tensor img = tensor::Tensor::image(c, hi, wi);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(f, c, k);
  flt.fill_random(rng);
  std::vector<float> bias;
  if (fused) bias.assign(static_cast<std::size_t>(f), -0.125f);

  sim::Device dev(arch);
  const auto run = kernels::general_conv(dev, img, flt, cfg, {}, bias);

  const KernelModel model =
      kernels::general_conv_xray(arch, k, c, f, hi, wi, cfg, fused);
  EXPECT_EQ(model.cfg.grid.count(), run.launch.blocks_total);

  const StaticReport rep = analyze(arch, model);
  const CrossCheck cc = cross_validate(rep, run.launch.stats, false);
  EXPECT_TRUE(cc.ok);
  for (const std::string& m : cc.mismatches) ADD_FAILURE() << m;

  for (const RacePair& r : rep.races) {
    EXPECT_EQ(r.verdict, RaceVerdict::ProvenDisjoint)
        << rep.sites[r.site_a].name << " vs " << rep.sites[r.site_b].name;
  }
  EXPECT_EQ(rep.clean(), expect_clean) << format_static(rep);
}

TEST(XrayGeneral, Table1ShapesCrossValidate) {
  check_general(3, 2, 64, 18, 34, kernels::table1_config(3));
  check_general(5, 2, 32, 16, 36, kernels::table1_config(5));
  check_general(7, 2, 32, 12, 70, kernels::table1_config(7));
}

TEST(XrayGeneral, EdgePredicationCrossValidates) {
  // Sizes that do not divide the tile: image-stage and write predicates clip
  // on the right/bottom tiles.
  check_general(3, 2, 8, 17, 23, {16, 4, 8, 8, 4, 2});
  check_general(5, 3, 8, 25, 19, {8, 4, 8, 4, 4, 3});
}

TEST(XrayGeneral, AblationVariantsCrossValidate) {
  // No-prefetch (A1): the publish phase loads straight from GM.
  kernels::GeneralConvConfig no_pf{16, 4, 8, 8, 4, 2};
  no_pf.prefetch = false;
  check_general(3, 4, 8, 18, 20, no_pf);

  // Unpadded transposed filter stores (A2, §4.2 gray box): counters still
  // cross-validate and the bank-conflict finding fires (not clean).
  kernels::GeneralConvConfig no_pad = kernels::table1_config(3);
  no_pad.pad_filters = false;
  check_general(3, 2, 64, 18, 34, no_pad, false, sim::kepler_k40m(),
                /*expect_clean=*/false);

  // Unmatched vector width on Kepler's 8-byte banks (Fig. 7b axis).
  kernels::GeneralConvConfig vec1 = kernels::table1_config(3);
  vec1.vec_width = 1;
  check_general(3, 2, 64, 18, 34, vec1, false, sim::kepler_k40m(),
                /*expect_clean=*/false);
}

TEST(XrayGeneral, FusedBiasReluCrossValidates) {
  check_general(3, 2, 64, 18, 34, kernels::table1_config(3), /*fused=*/true);
}

TEST(XrayGeneral, FourByteBankArchCrossValidates) {
  // On 4-byte-bank parts the resolved vector width is 1: counters stay
  // bit-equal, but the scalar write-back genuinely moves 8x its useful
  // bytes on these small-C shapes, so the uncoalesced-gmem finding fires.
  check_general(3, 4, 8, 18, 20, {16, 4, 8, 8, 4, 2}, false,
                sim::fermi_m2090(), /*expect_clean=*/false);
}

TEST(XrayGeneral, UnpaddedFilterStoreFlagged) {
  // The A2 ablation must be pinned to the transposing store site itself.
  const sim::Arch arch = sim::kepler_k40m();
  kernels::GeneralConvConfig cfg = kernels::table1_config(3);
  cfg.pad_filters = false;
  const StaticReport rep =
      analyze(arch, kernels::general_conv_xray(arch, 3, 2, 64, 18, 34, cfg));
  bool flagged = false;
  for (const Finding& f : rep.findings) {
    if (f.kind == "bank-conflict-replays" && f.site == "sm-flt-stage") {
      flagged = true;
      EXPECT_GT(f.value, 2.0);
      EXPECT_FALSE(f.citation.empty());
    }
  }
  EXPECT_TRUE(flagged) << format_static(rep);

  // The shipping (padded) configuration is quiet on the same site.
  const StaticReport ok = analyze(
      arch, kernels::general_conv_xray(arch, 3, 2, 64, 18, 34,
                                       kernels::table1_config(3)));
  for (const Finding& f : ok.findings) {
    EXPECT_NE(f.kind, "bank-conflict-replays") << format_static(ok);
  }
}

/// Runs the implicit-GEMM baseline for real and cross-validates the static
/// report against the measured counters.
void check_implicit(i64 k, i64 c, i64 f, i64 hi, i64 wi,
                    const kernels::ImplicitGemmConfig& cfg,
                    const sim::Arch& arch = sim::kepler_k40m(),
                    bool expect_clean = true) {
  SCOPED_TRACE(strf("k=%lld c=%lld f=%lld hi=%lld wi=%lld bm=%lld bn=%lld "
                    "bk=%lld vec=%lld pf=%d",
                    static_cast<long long>(k), static_cast<long long>(c),
                    static_cast<long long>(f), static_cast<long long>(hi),
                    static_cast<long long>(wi),
                    static_cast<long long>(cfg.bm),
                    static_cast<long long>(cfg.bn),
                    static_cast<long long>(cfg.bk),
                    static_cast<long long>(cfg.vec_width),
                    cfg.prefetch ? 1 : 0));
  EXPECT_EQ(kernels::implicit_gemm_check(arch, k, c, f, hi, wi, cfg), "");
  Rng rng(23);
  tensor::Tensor img = tensor::Tensor::image(c, hi, wi);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(f, c, k);
  flt.fill_random(rng);

  sim::Device dev(arch);
  const auto run = kernels::implicit_gemm_conv(dev, img, flt, cfg);

  const KernelModel model =
      kernels::implicit_gemm_xray(arch, k, c, f, hi, wi, cfg);
  EXPECT_EQ(model.cfg.grid.count(), run.launch.blocks_total);

  const StaticReport rep = analyze(arch, model);
  const CrossCheck cc = cross_validate(rep, run.launch.stats, false);
  EXPECT_TRUE(cc.ok);
  for (const std::string& m : cc.mismatches) ADD_FAILURE() << m;

  for (const RacePair& r : rep.races) {
    EXPECT_EQ(r.verdict, RaceVerdict::ProvenDisjoint)
        << rep.sites[r.site_a].name << " vs " << rep.sites[r.site_b].name;
  }
  EXPECT_EQ(rep.clean(), expect_clean) << format_static(rep);
}

TEST(XrayImplicitGemm, DefaultTilesCrossValidate) {
  check_implicit(3, 2, 8, 12, 12, {});
  check_implicit(5, 2, 8, 14, 14, {});
  // The C=1 special case: the zero-padded K-slab waste Fig. 7 measures.
  check_implicit(3, 1, 8, 12, 12, {});
}

TEST(XrayImplicitGemm, NoPrefetchCrossValidates) {
  kernels::ImplicitGemmConfig cfg;
  cfg.prefetch = false;
  check_implicit(3, 2, 8, 12, 12, cfg);
}

TEST(XrayImplicitGemm, UnmatchedWidthCrossValidatesAndFlags) {
  // Scalar SM fragments on Kepler's 8-byte banks: counters still bit-equal,
  // width mismatch flagged on the dominant compute sites.
  kernels::ImplicitGemmConfig cfg;
  cfg.vec_width = 1;
  check_implicit(3, 2, 8, 12, 12, cfg, sim::kepler_k40m(),
                 /*expect_clean=*/false);
}

TEST(XrayImplicitGemm, FourByteBankArchCrossValidates) {
  // On Fermi the scalar column-major A-panel stores land 4 deep on a bank
  // even with the pad word, so the replay finding fires (honest baseline
  // behaviour); counters must still be bit-equal.
  check_implicit(3, 2, 8, 12, 12, {}, sim::fermi_m2090(),
                 /*expect_clean=*/false);
}

/// A 2-warp toy mirroring the seeded missing-sync defect (tests/analysis/
/// missing_sync_kernel.hpp): staging stores and halo-crossing window loads
/// share one barrier interval, so lanes at the warp boundary read bytes the
/// OTHER warp stores — a definite cross-warp race. `synced` restores the
/// Algorithm 1 line-2 barrier.
KernelModel missing_sync_model(bool synced) {
  constexpr i64 kLanes = 64;  // two warps
  KernelModel m;
  m.kernel = synced ? "missing-sync-fixed" : "missing-sync";
  m.cfg.grid = sim::Dim3{1, 1, 1};
  m.cfg.block = sim::Dim3{kLanes, 1, 1};
  m.cfg.shared_bytes = (kLanes + 4) * 2 * sizeof(float);
  m.sites = {
      {"sm-stage", sim::Op::StoreShared, "§3.1 Alg. 1 line 1", false},
      {"sm-window", sim::Op::LoadShared, "§3.1 Alg. 1 line 3", false},
  };
  m.emit = [synced](sim::Dim3, ModelSink& sink) {
    std::vector<LaneAccess> lanes(kLanes);
    for (i64 t = 0; t < kLanes; ++t) {
      lanes[static_cast<size_t>(t)] =
          {static_cast<u64>(t) * 8, 8, true, true};
    }
    sink.site(0, lanes);
    if (synced) sink.sync();
    for (i64 t = 0; t < kLanes; ++t) {
      // Halo read: the last lanes of warp 0 reach into warp 1's bytes.
      lanes[static_cast<size_t>(t)] =
          {static_cast<u64>(t) * 8 + 8, 8, true, true};
    }
    sink.site(1, lanes);
    sink.sync();
  };
  return m;
}

TEST(XrayRaces, MissingSyncIsADefiniteRace) {
  const sim::Arch arch = sim::kepler_k40m();
  const StaticReport bad = analyze(arch, missing_sync_model(false));
  ASSERT_EQ(bad.races.size(), 3u);  // (0,0), (0,1), (1,1)
  bool cross = false;
  for (const RacePair& r : bad.races) {
    if (r.site_a != r.site_b) {
      cross = true;
      EXPECT_EQ(r.verdict, RaceVerdict::DefiniteRace);
      EXPECT_TRUE(r.overlap);
    }
  }
  EXPECT_TRUE(cross);
  EXPECT_FALSE(bad.clean());

  // Restoring the barrier separates the epochs: all pairs proven disjoint.
  const StaticReport good = analyze(arch, missing_sync_model(true));
  for (const RacePair& r : good.races) {
    EXPECT_EQ(r.verdict, RaceVerdict::ProvenDisjoint);
  }
  EXPECT_TRUE(good.clean());
}

/// Loads GM and stores SM in its final segment, which no sync closes, after
/// a store-only segment: two blocks of two warps, each lane on its own
/// float of a block-strided buffer.
class FinalSegmentKernel {
 public:
  static constexpr u32 kLanes = 64;
  sim::BufferView<float> data;
  u32 sh_off = 0;

  sim::ThreadProgram operator()(sim::ThreadCtx& t) const {
    const i64 tid = t.thread_idx.x;
    auto sh = t.shared<float>(sh_off, kLanes);
    t.st_shared(sh, tid, 0.0f);
    co_await t.sync();
    const float v =
        t.ld_global(data, t.block_idx.x * i64{kLanes} + tid);
    t.st_shared(sh, tid, t.fma(v, 2.0f, 1.0f));
  }
};

/// The kernel's model: the same sites in the same order, with the buffer
/// where a fresh Device allocates it.
KernelModel final_segment_model(const sim::LaunchConfig& cfg, u32 sh_off) {
  constexpr u32 kLanes = FinalSegmentKernel::kLanes;
  sim::AddressBump gm;
  const u64 base = gm.alloc(2 * kLanes * sizeof(float));
  KernelModel m;
  m.kernel = "final-segment";
  m.cfg = cfg;
  m.sites = {
      {"sm-clear", sim::Op::StoreShared, "", false},
      {"gm-load", sim::Op::LoadGlobal, "", false},
      {"sm-store", sim::Op::StoreShared, "", false},
  };
  m.emit = [base, sh_off](sim::Dim3 b, ModelSink& sink) {
    std::vector<LaneAccess> sm(kLanes), gm_lanes(kLanes);
    for (u32 t = 0; t < kLanes; ++t) {
      sm[t] = {sh_off + 4ull * t, 4, true, true};
      gm_lanes[t] = {base + 4ull * (b.x * kLanes + t), 4, true, true};
    }
    sink.site(0, sm);
    sink.sync();
    sink.site(1, gm_lanes);
    sink.fma(1);
    sink.site(2, sm);
  };
  return m;
}

TEST(XrayCounters, FinalSyncLessSegmentCrossValidates) {
  const sim::Arch arch = sim::kepler_k40m();
  sim::Device dev(arch);
  auto arr = dev.alloc<float>(2 * FinalSegmentKernel::kLanes);
  arr.zero();
  FinalSegmentKernel k;
  k.data = arr.view();
  sim::SharedLayout smem;
  k.sh_off = smem.alloc<float>(FinalSegmentKernel::kLanes);
  sim::LaunchConfig cfg;
  cfg.grid = {2, 1, 1};
  cfg.block = {FinalSegmentKernel::kLanes, 1, 1};
  cfg.shared_bytes = smem.size();
  const sim::LaunchResult res = sim::launch(dev, k, cfg);
  ASSERT_EQ(res.stats.gm_phases, 2u);
  ASSERT_EQ(res.stats.gm_dep_phases, 2u);

  const StaticReport rep = analyze(arch, final_segment_model(cfg, k.sh_off));
  EXPECT_EQ(rep.predicted.gm_phases, 2u);
  EXPECT_EQ(rep.predicted.gm_dep_phases, 2u);
  const CrossCheck cc = cross_validate(rep, res.stats, false);
  EXPECT_TRUE(cc.ok);
  for (const std::string& m : cc.mismatches) ADD_FAILURE() << m;
}

/// Mirrors one kconv-check CI invocation through the public API: runs
/// core::conv2d exactly as kconv_cli would, derives the model through
/// core::conv2d_xray_model (which must replicate conv2d's algorithm and
/// tiling resolution), and requires bit-equal counters. `pattern_cache`
/// is the launch's memo switch; a given `signature` pins the model's
/// static_signature.
void check_cli_shape(core::Algo algo, i64 c, i64 f, i64 k, i64 n,
                     bool replay = false, u32 threads = 1, i64 vec = 0,
                     bool same = false, bool pattern_cache = true,
                     std::optional<u64> signature = std::nullopt) {
  SCOPED_TRACE(strf("algo=%s c=%lld f=%lld k=%lld n=%lld replay=%d "
                    "threads=%u vec=%lld same=%d pattern_cache=%d",
                    core::algo_name(algo), static_cast<long long>(c),
                    static_cast<long long>(f), static_cast<long long>(k),
                    static_cast<long long>(n), replay ? 1 : 0, threads,
                    static_cast<long long>(vec), same ? 1 : 0,
                    pattern_cache ? 1 : 0));
  core::ConvOptions opt;
  opt.algo = algo;
  opt.vec_width = vec;
  opt.padding = same ? core::Padding::Same : core::Padding::Valid;
  opt.launch.replay = replay;
  opt.launch.num_threads = threads;
  opt.launch.pattern_cache = pattern_cache;

  Rng rng(3);
  tensor::Tensor img = tensor::Tensor::image(c, n, n);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(f, c, k);
  flt.fill_random(rng);

  const sim::Arch arch = sim::kepler_k40m();
  sim::Device dev(arch);
  const auto res = core::conv2d(dev, img, flt, opt);

  const KernelModel model =
      core::conv2d_xray_model(arch, c, f, k, n, n, opt);
  EXPECT_EQ(model.cfg.grid.count(), res.launch.blocks_total);

  const CrossCheck cc =
      cross_validate(analyze(arch, model), res.launch.stats, false);
  EXPECT_TRUE(cc.ok);
  for (const std::string& m : cc.mismatches) ADD_FAILURE() << m;
  if (signature) {
    EXPECT_EQ(static_signature(arch, model), *signature);
  }
}

TEST(XrayCliShapes, SpecialCiShapesCrossValidate) {
  // ci.yml kconv-check: --algo special --c 1 --f 32 --k {3,5}.
  check_cli_shape(core::Algo::Special, 1, 32, 3, 64);
  check_cli_shape(core::Algo::Special, 1, 32, 5, 64);
}

TEST(XrayCliShapes, GeneralCiShapesCrossValidate) {
  // ci.yml kconv-check: --algo general --c 16 --f 32 with --k 5 --replay
  // and --k 3 --threads 2 variants. Replay and threading must not move a
  // single counter the static pass predicts.
  check_cli_shape(core::Algo::General, 16, 32, 3, 64);
  check_cli_shape(core::Algo::General, 16, 32, 5, 64, /*replay=*/true);
  check_cli_shape(core::Algo::General, 16, 32, 3, 64, /*replay=*/false,
                  /*threads=*/2);
}

TEST(XrayCliShapes, ImplicitGemmCiShapeCrossValidates) {
  // ci.yml kconv-check: --algo implicit-gemm --c 16 --f 32 --k 3.
  check_cli_shape(core::Algo::ImplicitGemm, 16, 32, 3, 64);
}

TEST(XrayCliShapes, PatternMemoChangesNoPrediction) {
  // xray retires shared and global groups through the executor's pattern
  // memo (docs/MODEL.md §5c). Over the CI shapes its predictions must
  // still equal a launch that never consults the memo, and its signatures
  // must equal the ones computed by the direct analyzers (pinned below),
  // so plan keys and stale-plan checks do not move.
  struct CiShape {
    core::Algo algo;
    i64 c, k;
    u64 signature;
  };
  const CiShape shapes[] = {
      {core::Algo::Special, 1, 3, 0x301e430d8aa9a4b1ull},
      {core::Algo::Special, 1, 5, 0x3a41bb5ac8ffa92cull},
      {core::Algo::General, 16, 3, 0x8c4a6c395492692eull},
      {core::Algo::General, 16, 5, 0xb8c5d8bba102dd82ull},
      {core::Algo::ImplicitGemm, 16, 3, 0xca382651e708a2b7ull},
  };
  for (const CiShape& s : shapes) {
    check_cli_shape(s.algo, s.c, 32, s.k, 64, false, 1, 0, false,
                    /*pattern_cache=*/false, s.signature);
  }
}

TEST(XrayCliShapes, AutoResolutionCrossValidates) {
  // Auto resolves to special (C==1) or general: the model must follow the
  // same fork conv2d takes.
  check_cli_shape(core::Algo::Auto, 1, 8, 3, 40);
  check_cli_shape(core::Algo::Auto, 8, 8, 3, 40);
}

TEST(XrayCliShapes, PadAndVecVariantsCrossValidate) {
  // `same` padding stages a zero-padded input — the model must grow the
  // analyzed extents identically; vector-width overrides thread through to
  // the same resolved kernel config.
  check_cli_shape(core::Algo::Special, 1, 8, 3, 40, false, 1, 0,
                  /*same=*/true);
  check_cli_shape(core::Algo::General, 8, 16, 3, 40, false, 1, 0,
                  /*same=*/true);
  check_cli_shape(core::Algo::Special, 1, 8, 3, 40, false, 1, /*vec=*/2);
  check_cli_shape(core::Algo::General, 8, 16, 3, 40, false, 1, /*vec=*/1);
  check_cli_shape(core::Algo::ImplicitGemm, 8, 16, 3, 40, false, 1,
                  /*vec=*/1);
}

TEST(XrayCliShapes, UnsupportedAlgoThrows) {
  core::ConvOptions opt;
  opt.algo = core::Algo::NaiveDirect;
  EXPECT_THROW(
      core::conv2d_xray_model(sim::kepler_k40m(), 16, 32, 3, 64, 64, opt),
      Error);
  opt.algo = core::Algo::Winograd;
  EXPECT_THROW(
      core::conv2d_xray_model(sim::kepler_k40m(), 16, 32, 3, 64, 64, opt),
      Error);
}

TEST(XrayReport, JsonRoundTripMatchesStaticAnalysisSchema) {
  // Pins the static_analysis block downstream consumers (the CLI's --json
  // embedding, the CI xray-smoke asserts) parse.
  const sim::Arch arch = sim::kepler_k40m();
  const StaticReport rep = analyze(
      arch,
      kernels::general_conv_xray(arch, 3, 4, 8, 18, 20, {16, 4, 8, 8, 4, 2}));

  // Exactly how kconv_cli --xray --json embeds it.
  const std::string doc = "{\"static_analysis\": " + to_json(rep, 2) + "}";
  const auto root = JsonReader(doc).parse();
  ASSERT_EQ(root->type, JsonValue::Type::Object);
  const JsonValue& d = field(*root, "static_analysis");
  ASSERT_EQ(d.type, JsonValue::Type::Object);

  EXPECT_EQ(field(d, "kernel").type, JsonValue::Type::String);
  EXPECT_EQ(field(d, "kernel").str, rep.kernel);
  EXPECT_EQ(field(d, "signature").type, JsonValue::Type::String);
  EXPECT_EQ(field(d, "signature").str,
            strf("0x%016llx", static_cast<unsigned long long>(rep.signature)));
  EXPECT_EQ(field(d, "sampled").type, JsonValue::Type::Bool);
  EXPECT_FALSE(field(d, "sampled").boolean);
  EXPECT_EQ(field(d, "clean").type, JsonValue::Type::Bool);
  EXPECT_EQ(field(d, "clean").boolean, rep.clean());
  EXPECT_EQ(static_cast<u64>(field(d, "blocks_total").number),
            rep.blocks_total);
  EXPECT_EQ(static_cast<u64>(field(d, "blocks_analyzed").number),
            rep.blocks_analyzed);
  EXPECT_EQ(field(d, "gm_bytes_moved").number, rep.gm_bytes_moved);
  EXPECT_EQ(field(d, "min_gm_bytes").number, rep.min_gm_bytes);

  // Predicted counters round-trip bit-equal (the cross-validation fields).
  const JsonValue& p = field(d, "predicted");
  ASSERT_EQ(p.type, JsonValue::Type::Object);
  const std::map<std::string, u64> counters = {
      {"smem_instrs", rep.predicted.smem_instrs},
      {"smem_request_cycles", rep.predicted.smem_request_cycles},
      {"smem_bytes", rep.predicted.smem_bytes},
      {"gm_instrs", rep.predicted.gm_instrs},
      {"gm_sectors", rep.predicted.gm_sectors},
      {"gm_bytes_useful", rep.predicted.gm_bytes_useful},
      {"barriers", rep.predicted.barriers},
      {"fma_lane_ops", rep.predicted.fma_lane_ops},
      {"max_warp_instrs", rep.predicted.max_warp_instrs},
  };
  for (const auto& [key, expected] : counters) {
    ASSERT_EQ(field(p, key).type, JsonValue::Type::Number) << key;
    EXPECT_EQ(static_cast<u64>(field(p, key).number), expected) << key;
    EXPECT_GT(expected, 0u) << key << " is 0: the round trip proves nothing";
  }
  // ... and the block carries every KernelStats counter.
  for (const auto& c : sim::kKernelCounters) {
    ASSERT_EQ(field(p, c.name).type, JsonValue::Type::Number) << c.name;
    EXPECT_EQ(static_cast<u64>(field(p, c.name).number),
              rep.predicted.*c.member)
        << c.name;
  }

  // Per-site entries carry name/op/citation and both bank modes.
  const JsonValue& sites = field(d, "sites");
  ASSERT_EQ(sites.type, JsonValue::Type::Array);
  ASSERT_EQ(sites.array.size(), rep.sites.size());
  for (const auto& s : sites.array) {
    ASSERT_EQ(s->type, JsonValue::Type::Object);
    EXPECT_EQ(field(*s, "name").type, JsonValue::Type::String);
    EXPECT_EQ(field(*s, "op").type, JsonValue::Type::String);
    EXPECT_EQ(field(*s, "citation").type, JsonValue::Type::String);
    EXPECT_EQ(field(*s, "instrs").type, JsonValue::Type::Number);
  }

  // Race pairs carry the verdict vocabulary the CI smoke asserts on.
  const JsonValue& races = field(d, "races");
  ASSERT_EQ(races.type, JsonValue::Type::Array);
  ASSERT_EQ(races.array.size(), rep.races.size());
  for (const auto& r : races.array) {
    const std::string& v = field(*r, "verdict").str;
    EXPECT_TRUE(v == "proven-disjoint" || v == "possible-race" ||
                v == "definite-race")
        << v;
  }

  EXPECT_EQ(field(d, "findings").type, JsonValue::Type::Array);
}

TEST(XrayReport, FormatAndJsonCarryVerdictAndSites) {
  const sim::Arch arch = sim::kepler_k40m();
  const StaticReport rep =
      analyze(arch, kernels::special_conv_xray(arch, 3, 4, 20, 20, {}));
  const std::string text = format_static(rep);
  EXPECT_NE(text.find("=== kconv-xray ==="), std::string::npos);
  EXPECT_NE(text.find("verdict: PASS"), std::string::npos);
  EXPECT_NE(text.find("sm-stage-main"), std::string::npos);
  const std::string js = to_json(rep);
  EXPECT_NE(js.find("\"signature\""), std::string::npos);
  EXPECT_NE(js.find("\"proven-disjoint\""), std::string::npos);
}

}  // namespace
}  // namespace kconv::xray
