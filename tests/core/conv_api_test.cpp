#include "src/core/conv_api.hpp"

#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/sim/sim.hpp"
#include "src/tensor/compare.hpp"
#include "src/tensor/conv_ref.hpp"

namespace kconv::core {
namespace {

tensor::Tensor image(i64 c, i64 h, i64 w, u64 seed) {
  Rng rng(seed);
  tensor::Tensor t = tensor::Tensor::image(c, h, w);
  t.fill_random(rng);
  return t;
}

tensor::Tensor filters(i64 f, i64 c, i64 k, u64 seed) {
  Rng rng(seed);
  tensor::Tensor t = tensor::Tensor::filters(f, c, k);
  t.fill_random(rng);
  return t;
}

TEST(ConvApi, AutoPicksSpecialForSingleChannel) {
  sim::Device dev(sim::kepler_k40m());
  const auto img = image(1, 20, 20, 1);
  const auto flt = filters(4, 1, 3, 2);
  const auto res = conv2d(dev, img, flt);
  EXPECT_EQ(res.algo_used, Algo::Special);
  ASSERT_TRUE(res.output_valid);
  EXPECT_TRUE(tensor::allclose(res.output,
                               tensor::conv2d_reference(img, flt)));
}

TEST(ConvApi, AutoPicksGeneralForMultiChannel) {
  sim::Device dev(sim::kepler_k40m());
  const auto img = image(4, 20, 20, 3);
  const auto flt = filters(8, 4, 3, 4);
  const auto res = conv2d(dev, img, flt);
  EXPECT_EQ(res.algo_used, Algo::General);
  ASSERT_TRUE(res.output_valid);
  EXPECT_TRUE(tensor::allclose(res.output,
                               tensor::conv2d_reference(img, flt), 2e-4,
                               2e-4));
}

class AllAlgosAgree : public ::testing::TestWithParam<Algo> {};

TEST_P(AllAlgosAgree, OnAGeneralProblem) {
  const Algo algo = GetParam();
  sim::Device dev(sim::kepler_k40m());
  const auto img = image(4, 18, 22, 5);
  const auto flt = filters(8, 4, 3, 6);
  ConvOptions opt;
  opt.algo = algo;
  const auto res = conv2d(dev, img, flt, opt);
  ASSERT_TRUE(res.output_valid) << algo_name(algo);
  EXPECT_TRUE(tensor::allclose(res.output,
                               tensor::conv2d_reference(img, flt), 2e-4,
                               2e-4))
      << algo_name(algo);
  EXPECT_GT(res.effective_gflops, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Algos, AllAlgosAgree,
                         ::testing::Values(Algo::General, Algo::ImplicitGemm,
                                           Algo::Im2colGemm,
                                           Algo::NaiveDirect, Algo::Winograd),
                         [](const auto& info) {
                           std::string s = algo_name(info.param);
                           for (auto& ch : s) {
                             if (ch == '-') ch = '_';
                           }
                           return s;
                         });

TEST(ConvApi, ParseAlgoInvertsAlgoName) {
  for (const Algo a : {Algo::Auto, Algo::Special, Algo::General,
                       Algo::ImplicitGemm, Algo::Im2colGemm, Algo::NaiveDirect,
                       Algo::Winograd, Algo::Fft}) {
    Algo got = a == Algo::Auto ? Algo::Fft : Algo::Auto;
    EXPECT_TRUE(parse_algo(algo_name(a), got)) << algo_name(a);
    EXPECT_EQ(got, a) << algo_name(a);
  }
  Algo untouched = Algo::General;
  EXPECT_FALSE(parse_algo("gemm", untouched));
  EXPECT_FALSE(parse_algo("", untouched));
  EXPECT_EQ(untouched, Algo::General);
}

TEST(ConvApi, SamePaddingPreservesExtent) {
  sim::Device dev(sim::kepler_k40m());
  const auto img = image(1, 17, 23, 7);
  const auto flt = filters(2, 1, 5, 8);
  ConvOptions opt;
  opt.padding = Padding::Same;
  const auto res = conv2d(dev, img, flt, opt);
  ASSERT_TRUE(res.output_valid);
  EXPECT_EQ(res.output.h(), 17);
  EXPECT_EQ(res.output.w(), 23);
  EXPECT_TRUE(tensor::allclose(res.output,
                               tensor::conv2d_reference(img, flt, 2)));
}

TEST(ConvApi, SamePaddingRequiresOddFilter) {
  sim::Device dev(sim::kepler_k40m());
  const auto img = image(1, 10, 10, 9);
  const auto flt = filters(1, 1, 2, 10);
  ConvOptions opt;
  opt.padding = Padding::Same;
  EXPECT_THROW(conv2d(dev, img, flt, opt), Error);
}

TEST(ConvApi, SpecialAlgoOnMultiChannelThrows) {
  sim::Device dev(sim::kepler_k40m());
  const auto img = image(2, 10, 10, 11);
  const auto flt = filters(1, 2, 3, 12);
  ConvOptions opt;
  opt.algo = Algo::Special;
  EXPECT_THROW(conv2d(dev, img, flt, opt), Error);
}

TEST(ConvApi, ChannelMismatchThrows) {
  sim::Device dev(sim::kepler_k40m());
  const auto img = image(2, 10, 10, 13);
  const auto flt = filters(1, 3, 3, 14);
  EXPECT_THROW(conv2d(dev, img, flt), Error);
}

TEST(ConvApi, GeneralConfigAdaptsToAwkwardChannelCounts) {
  // C=6 and F=24 don't fit the Table 1 defaults (CSH=2 ok, FTB=64 not);
  // the dispatcher must shrink FTB/CSH rather than fail.
  sim::Device dev(sim::kepler_k40m());
  const auto img = image(6, 16, 16, 15);
  const auto flt = filters(24, 6, 3, 16);
  const auto res = conv2d(dev, img, flt);
  ASSERT_TRUE(res.output_valid);
  EXPECT_TRUE(tensor::allclose(res.output,
                               tensor::conv2d_reference(img, flt), 2e-4,
                               2e-4));
}

TEST(ConvApi, VecWidthOverridePropagates) {
  sim::Device dev(sim::kepler_k40m());
  const auto img = image(1, 20, 20, 17);
  const auto flt = filters(2, 1, 3, 18);
  ConvOptions matched;
  ConvOptions unmatched;
  unmatched.vec_width = 1;
  const auto m = conv2d(dev, img, flt, matched);
  const auto u = conv2d(dev, img, flt, unmatched);
  // Unmatched runs W threads instead of W/2: more smem instructions.
  EXPECT_GT(u.launch.stats.smem_instrs, m.launch.stats.smem_instrs);
  EXPECT_TRUE(tensor::allclose(m.output, u.output));
}

TEST(ConvApi, ConvFlopsFormula) {
  EXPECT_DOUBLE_EQ(conv_flops(3, 4, 5, 10, 12), 2.0 * 3 * 4 * 25 * 120);
}

TEST(ConvApi, AlgoNames) {
  EXPECT_STREQ(algo_name(Algo::Special), "special");
  EXPECT_STREQ(algo_name(Algo::ImplicitGemm), "implicit-gemm");
  EXPECT_STREQ(algo_name(Algo::Winograd), "winograd");
}

TEST(ConvApi, WinogradRejectsNon3x3ThroughApi) {
  sim::Device dev(sim::kepler_k40m());
  const auto img = image(2, 12, 12, 31);
  const auto flt = filters(2, 2, 5, 32);
  ConvOptions opt;
  opt.algo = Algo::Winograd;
  EXPECT_THROW(conv2d(dev, img, flt, opt), Error);
}

TEST(ConvApi, RefusesShardAxesTheKernelDoesNotDeclare) {
  // The axes come from the kernel plan's fleet hints: the special kernel
  // loops filters inside the block (no channel axis), the baselines declare
  // no axes at all. conv2d throws the conv2d_shard_error reason up front.
  const sim::Arch arch = sim::kepler_k40m();
  using S = sim::ShardStrategy;
  struct Case {
    Algo algo;
    i64 c;
    S strategy;
    std::string why;
  };
  const Case cases[] = {
      {Algo::Special, 1, S::Channel,
       "the 'special' kernel declares no channel shard axis"},
      {Algo::Auto, 1, S::Channel,
       "the 'special' kernel declares no channel shard axis"},
      {Algo::ImplicitGemm, 16, S::Batch,
       "multi-device sharding is not supported by the 'implicit-gemm' "
       "algorithm"},
      {Algo::Im2colGemm, 16, S::Spatial,
       "multi-device sharding is not supported by the 'im2col-gemm' "
       "algorithm"},
      {Algo::Special, 1, S::Spatial, ""},
      {Algo::Special, 1, S::Batch, ""},
      {Algo::General, 16, S::Channel, ""},
      {Algo::General, 16, S::Spatial, ""},
  };
  for (const Case& t : cases) {
    ConvOptions opt;
    opt.algo = t.algo;
    opt.launch.fleet.devices = 2;
    opt.launch.fleet.strategy = t.strategy;
    const std::string what =
        strf("%s/%s", algo_name(t.algo), sim::shard_name(t.strategy));
    EXPECT_EQ(conv2d_shard_error(arch, t.c, 32, 3, 20, 20, opt), t.why)
        << what;
    sim::Device dev(arch);
    const auto img = image(t.c, 20, 20, 1);
    const auto flt = filters(32, t.c, 3, 2);
    if (t.why.empty()) {
      EXPECT_TRUE(conv2d(dev, img, flt, opt).output_valid) << what;
      continue;
    }
    try {
      conv2d(dev, img, flt, opt);
      ADD_FAILURE() << what << ": sharded launch was not refused";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("kconv error: " + t.why, 0), 0u)
          << e.what();
    }
    opt.launch.fleet.devices = 1;  // one device never needs an axis
    EXPECT_EQ(conv2d_shard_error(arch, t.c, 32, 3, 20, 20, opt), "") << what;
  }
}

}  // namespace
}  // namespace kconv::core
