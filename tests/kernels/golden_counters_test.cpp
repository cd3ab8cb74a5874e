// Golden counters: every kernel family's counters and output bytes, pinned
// to a committed file.
//
// Each case runs serially on a fresh K40m with default launch options and
// records, per launch, every kKernelCounters value, blocks_total and the
// modeled seconds (exact, as a hex float), plus an FNV-1a hash of the
// output bytes. The multi-launch pipelines record every stage, each the
// fold of its launches (Winograd's 16 GEMMs, FFT's five stages).
//
// The describers of the conv kernels call the kernels' own staging
// decodes, so xray cross-validation cannot see a drift both share. This
// file can: a change to any kernel body that moves one counter or output
// byte fails here. A change that means to move them writes the new file
// from `golden_counters.actual.txt` (left in the test's working directory
// on a mismatch) and says why.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/kernels/fft_conv.hpp"
#include "src/kernels/gemm_kernels.hpp"
#include "src/kernels/general_conv.hpp"
#include "src/kernels/im2col_conv.hpp"
#include "src/kernels/implicit_gemm_conv.hpp"
#include "src/kernels/layer_ops.hpp"
#include "src/kernels/naive_conv.hpp"
#include "src/kernels/short_dtype_conv.hpp"
#include "src/kernels/smem_microbench.hpp"
#include "src/kernels/special_conv.hpp"
#include "src/kernels/winograd_conv.hpp"
#include "src/sim/sim.hpp"

#ifndef KCONV_GOLDEN_DIR
#error "KCONV_GOLDEN_DIR must name the directory holding the golden files"
#endif

namespace kconv::kernels {
namespace {

u64 fnv1a(std::span<const float> xs) {
  u64 h = 1469598103934665603ull;
  for (const std::byte b : std::as_bytes(xs)) {
    h ^= static_cast<u64>(b);
    h *= 1099511628211ull;
  }
  return h;
}

/// "name value" lines, in recording order.
class Recorder {
 public:
  void value(const std::string& name, const std::string& v) {
    lines_.push_back(name + " " + v);
  }
  void seconds(const std::string& name, double s) {
    value(name, strf("%a", s));
  }
  void launch(const std::string& name, const sim::LaunchResult& r) {
    for (const auto& c : sim::kKernelCounters) {
      value(name + "." + c.name,
            strf("%llu", static_cast<unsigned long long>(r.stats.*c.member)));
    }
    value(name + ".blocks_total",
          strf("%llu", static_cast<unsigned long long>(r.blocks_total)));
    seconds(name + ".seconds", r.timing.seconds);
  }
  void output(const std::string& name, std::span<const float> xs) {
    value(name + ".output_fnv1a",
          strf("%016llx", static_cast<unsigned long long>(fnv1a(xs))));
  }
  void run(const std::string& name, const KernelRun& r) {
    ASSERT_TRUE(r.output_valid) << name;
    launch(name, r.launch);
    output(name, r.output.flat());
  }
  const std::vector<std::string>& lines() const { return lines_; }

 private:
  std::vector<std::string> lines_;
};

tensor::Tensor random_tensor(i64 n, i64 c, i64 h, i64 w, u64 seed) {
  Rng rng(seed);
  tensor::Tensor t(n, c, h, w);
  t.fill_random(rng);
  return t;
}

tensor::Matrix random_matrix(i64 r, i64 c, u64 seed) {
  Rng rng(seed);
  tensor::Matrix m(r, c);
  for (float& v : m.data) v = rng.uniform(-1.0f, 1.0f);
  return m;
}

std::vector<float> random_bias(i64 n, u64 seed) {
  Rng rng(seed);
  std::vector<float> b(static_cast<std::size_t>(n));
  for (float& v : b) v = rng.uniform(-0.5f, 0.5f);
  return b;
}

sim::Device k40m() { return sim::Device(sim::kepler_k40m()); }

void record_gemm(Recorder& rec) {
  GemmConfig no_prefetch = gemm_magma_mod();
  no_prefetch.prefetch = false;
  const std::pair<const char*, GemmConfig> presets[] = {
      {"cublas_like", gemm_cublas_like()},
      {"magma_fermi", gemm_magma_fermi()},
      {"magma_mod", gemm_magma_mod()},
      {"no_prefetch", no_prefetch},
  };
  // Ragged in every extent, with several K-slabs per tile.
  const tensor::Matrix a = random_matrix(70, 40, 1);
  const tensor::Matrix b = random_matrix(40, 101, 2);
  for (const auto& [name, cfg] : presets) {
    sim::Device dev = k40m();
    const GemmRun run = gemm(dev, a, b, cfg);
    ASSERT_TRUE(run.output_valid) << name;
    rec.launch(std::string("gemm.") + name, run.launch);
    rec.output(std::string("gemm.") + name, run.c.data);
  }
  // A dense layer's 10 x 1 output on its fitted tile.
  sim::Device dev = k40m();
  const GemmRun fitted =
      gemm(dev, random_matrix(10, 48, 3), random_matrix(48, 1, 4),
           gemm_fitted(10, 1));
  ASSERT_TRUE(fitted.output_valid);
  rec.launch("gemm.fitted_10x1", fitted.launch);
  rec.output("gemm.fitted_10x1", fitted.c.data);
}

void record_implicit_gemm(Recorder& rec) {
  {
    sim::Device dev = k40m();
    const auto img = random_tensor(1, 3, 20, 22, 10);
    const auto flt = random_tensor(16, 3, 3, 3, 11);
    rec.run("implicit_gemm.auto",
            implicit_gemm_conv(dev, img, flt,
                               implicit_gemm_auto_config(16, 3, 3)));
  }
  // Ragged in filters, pixels and depth: partial tiles on both grid axes
  // and a last K-slab that is only partly in range.
  const auto img = random_tensor(1, 2, 13, 17, 12);
  const auto flt = random_tensor(10, 2, 3, 3, 13);
  ImplicitGemmConfig cfg;
  cfg.bm = 16;
  cfg.bn = 16;
  cfg.bk = 8;
  cfg.tm = 4;
  cfg.tn = 4;
  {
    sim::Device dev = k40m();
    rec.run("implicit_gemm.ragged", implicit_gemm_conv(dev, img, flt, cfg));
  }
  cfg.prefetch = false;
  {
    sim::Device dev = k40m();
    rec.run("implicit_gemm.ragged_no_prefetch",
            implicit_gemm_conv(dev, img, flt, cfg));
  }
  cfg.vec_width = 1;
  {
    sim::Device dev = k40m();
    rec.run("implicit_gemm.ragged_scalar",
            implicit_gemm_conv(dev, img, flt, cfg));
  }
}

void record_general(Recorder& rec) {
  struct Case {
    const char* name;
    i64 k, c, f, hi, wi;
    bool prefetch, fused;
  };
  // Table 1's configurations on images that leave partial tiles.
  const Case cases[] = {
      {"table1_k3", 3, 4, 64, 14, 38, true, false},
      {"table1_k5", 5, 2, 32, 15, 40, true, false},
      {"table1_k7", 7, 2, 32, 13, 72, true, false},
      {"no_prefetch_k3", 3, 4, 64, 14, 38, false, false},
      {"fused_k3", 3, 4, 64, 14, 38, true, true},
  };
  for (const Case& c : cases) {
    sim::Device dev = k40m();
    const auto img = random_tensor(1, c.c, c.hi, c.wi, 20 + c.k);
    const auto flt = random_tensor(c.f, c.c, c.k, c.k, 30 + c.k);
    GeneralConvConfig cfg = table1_config(c.k);
    cfg.prefetch = c.prefetch;
    const std::vector<float> bias =
        c.fused ? random_bias(c.f, 40) : std::vector<float>{};
    rec.run(std::string("general.") + c.name,
            general_conv(dev, img, flt, cfg, {}, bias));
  }
}

void record_special(Recorder& rec) {
  const auto img = random_tensor(1, 1, 21, 37, 50);
  const auto flt = random_tensor(4, 1, 3, 3, 51);
  for (const i64 vec : {1, 2, 4}) {
    sim::Device dev = k40m();
    SpecialConvConfig cfg;
    cfg.block_w = 16;
    cfg.block_h = 4;
    cfg.vec_width = vec;
    rec.run(strf("special.vec%lld", static_cast<long long>(vec)),
            special_conv(dev, img, flt, cfg));
  }
  {
    sim::Device dev = k40m();
    SpecialConvConfig cfg;
    cfg.block_w = 16;
    cfg.block_h = 4;
    const std::vector<float> bias = random_bias(4, 52);
    rec.run("special.fused", special_conv(dev, img, flt, cfg, {}, bias));
  }
  for (const DType dt : {DType::F16, DType::I8}) {
    sim::Device dev = k40m();
    ShortDtypeConvConfig cfg;
    cfg.block_w = 32;
    cfg.block_h = 4;
    cfg.dtype = dt;
    rec.run(std::string("special.") + (dt == DType::F16 ? "f16" : "i8"),
            short_dtype_conv(dev, img, flt, cfg));
  }
}

void record_baselines(Recorder& rec) {
  const auto img = random_tensor(1, 3, 12, 14, 60);
  const auto flt = random_tensor(5, 3, 3, 3, 61);
  {
    sim::Device dev = k40m();
    const KernelRun run = im2col_gemm_conv(dev, img, flt);
    ASSERT_TRUE(run.output_valid);
    for (const sim::LaunchStage& s : run.stages) {
      rec.launch("im2col." + s.name, s.launch);
    }
    rec.output("im2col", run.output.flat());
  }
  {
    sim::Device dev = k40m();
    const KernelRun run = winograd_conv(dev, img, flt);
    ASSERT_TRUE(run.output_valid);
    rec.launch("winograd.input_tf", run.stage("input_tf").launch);
    const sim::LaunchResult& gemm = run.stage("gemm").launch;
    rec.seconds("winograd.gemm_seconds", gemm.timing.seconds);
    rec.value("winograd.gemm_flops",
              strf("%llu", static_cast<unsigned long long>(
                               gemm.stats.fma_lane_ops * 2)));
    rec.launch("winograd.gemm", gemm);
    rec.launch("winograd.output_tf", run.stage("output_tf").launch);
    rec.output("winograd", run.output.flat());
  }
  {
    sim::Device dev = k40m();
    const KernelRun run = fft_conv(dev, img, flt);
    ASSERT_TRUE(run.output_valid);
    u32 launches = 0;
    for (const sim::LaunchStage& s : run.stages) {
      rec.seconds("fft." + s.name + "_seconds", s.launch.timing.seconds);
      launches += s.launches;
    }
    rec.value("fft.launches", strf("%u", launches));
    for (const sim::LaunchStage& s : run.stages) {
      rec.launch("fft." + s.name, s.launch);
    }
    rec.output("fft", run.output.flat());
  }
  {
    sim::Device dev = k40m();
    rec.run("naive", naive_conv(dev, img, flt));
  }
}

void record_layer_ops(Recorder& rec) {
  const auto x = random_tensor(2, 3, 9, 13, 70);
  {
    sim::Device dev = k40m();
    const std::vector<float> bias = random_bias(3, 71);
    rec.run("bias_relu", bias_relu(dev, x, bias));
  }
  {
    sim::Device dev = k40m();
    rec.run("max_pool_2x2", max_pool_2x2(dev, x));
  }
  for (const i64 vec : {1, 2}) {
    sim::Device dev = k40m();
    SmemMicrobenchConfig cfg;
    cfg.vec_width = vec;
    cfg.passes = 8;
    cfg.blocks = 2;
    rec.launch(strf("smem_microbench.vec%lld", static_cast<long long>(vec)),
               smem_microbench(dev, cfg).launch);
  }
}

/// "name value" lines of a golden file, by name.
std::map<std::string, std::string> parse(const std::vector<std::string>& ls) {
  std::map<std::string, std::string> out;
  for (const std::string& l : ls) {
    const auto sp = l.find(' ');
    out[l.substr(0, sp)] = sp == std::string::npos ? "" : l.substr(sp + 1);
  }
  return out;
}

TEST(GoldenCounters, EveryKernelMatchesTheCommittedGolden) {
  Recorder rec;
  record_gemm(rec);
  record_implicit_gemm(rec);
  record_general(rec);
  record_special(rec);
  record_baselines(rec);
  record_layer_ops(rec);
  ASSERT_FALSE(HasFatalFailure());

  std::vector<std::string> golden_lines;
  {
    std::ifstream in(std::string(KCONV_GOLDEN_DIR) + "/kernel_counters.txt");
    for (std::string l; std::getline(in, l);) {
      if (!l.empty() && l[0] != '#') golden_lines.push_back(l);
    }
  }
  const auto golden = parse(golden_lines);
  const auto actual = parse(rec.lines());
  ASSERT_EQ(actual.size(), rec.lines().size()) << "duplicate record names";

  int mismatches = 0;
  for (const auto& [name, v] : actual) {
    const auto it = golden.find(name);
    if (it == golden.end()) {
      ADD_FAILURE() << name << ": " << v << " (not in the golden)";
      ++mismatches;
    } else if (it->second != v) {
      ADD_FAILURE() << name << ": " << v << " (golden " << it->second << ")";
      ++mismatches;
    }
  }
  for (const auto& [name, v] : golden) {
    if (!actual.contains(name)) {
      ADD_FAILURE() << name << ": missing (golden " << v << ")";
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    std::ofstream out("golden_counters.actual.txt");
    for (const std::string& l : rec.lines()) out << l << '\n';
  }
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace kconv::kernels
