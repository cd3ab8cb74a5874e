// Every launch a convolution makes is reported: the composite algorithms'
// (im2col-gemm, winograd, fft) `launch` is the fold of their stages, and
// kconv-check and the JSON export cover every stage.
#include <gtest/gtest.h>

#include <string>

#include "src/common/rng.hpp"
#include "src/core/conv_api.hpp"
#include "src/sim/report.hpp"
#include "src/sim/sim.hpp"
#include "tests/support/json_reader.hpp"

namespace kconv::core {
namespace {

using testsupport::field;
using testsupport::JsonReader;
using testsupport::JsonValue;

constexpr Algo kComposites[] = {Algo::Im2colGemm, Algo::Winograd, Algo::Fft};

ConvResult run(Algo algo, const sim::LaunchOptions& lopt = {}) {
  Rng rng(71);
  tensor::Tensor img = tensor::Tensor::image(2, 14, 14);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(4, 2, 3);
  flt.fill_random(rng);
  ConvOptions opt;
  opt.algo = algo;
  opt.launch = lopt;
  sim::Device dev(sim::kepler_k40m());
  return conv2d(dev, img, flt, opt);
}

TEST(ConvStages, CompositeLaunchIsTheSumOfItsStages) {
  for (const Algo algo : kComposites) {
    SCOPED_TRACE(algo_name(algo));
    const ConvResult res = run(algo);
    ASSERT_TRUE(res.output_valid);
    ASSERT_GT(res.stages.size(), 1u);
    sim::KernelStats sum;
    u64 blocks_total = 0, blocks_executed = 0;
    double seconds = 0.0;
    for (const sim::LaunchStage& s : res.stages) {
      sum += s.launch.stats;
      blocks_total += s.launch.blocks_total;
      blocks_executed += s.launch.blocks_executed;
      seconds += s.launch.timing.seconds;
    }
    for (const auto& c : sim::kKernelCounters) {
      EXPECT_EQ(res.launch.stats.*c.member, sum.*c.member) << c.name;
    }
    EXPECT_GT(res.launch.blocks_total, 0u);
    EXPECT_EQ(res.launch.blocks_total, blocks_total);
    EXPECT_EQ(res.launch.blocks_executed, blocks_executed);
    EXPECT_EQ(res.launch.timing.seconds, seconds);
    EXPECT_EQ(res.total_seconds, seconds);
  }
}

TEST(ConvStages, SingleStageLaunchIsTheStageWhole) {
  const ConvResult res = run(Algo::General);
  ASSERT_EQ(res.stages.size(), 1u);
  const sim::LaunchStage& s = res.stages[0];
  EXPECT_EQ(s.name, "general_conv");
  EXPECT_EQ(s.launches, 1u);
  EXPECT_EQ(res.launch.stats, s.launch.stats);
  EXPECT_EQ(res.launch.timing.seconds, s.launch.timing.seconds);
  EXPECT_FALSE(res.launch.timing.bound.empty());
  EXPECT_EQ(res.launch.timing.bound, s.launch.timing.bound);
}

TEST(ConvStages, CheckCoversEveryStage) {
  sim::LaunchOptions lopt;
  lopt.hazard_check = true;
  lopt.lint = true;
  for (const Algo algo : kComposites) {
    SCOPED_TRACE(algo_name(algo));
    const ConvResult res = run(algo, lopt);
    u64 blocks = 0;
    for (const sim::LaunchStage& s : res.stages) {
      EXPECT_TRUE(s.launch.analysis.hazard_checked) << s.name;
      blocks += s.launch.blocks_total;
    }
    EXPECT_TRUE(res.launch.analysis.hazard_checked);
    EXPECT_TRUE(res.launch.analysis.linted);
    EXPECT_EQ(res.launch.analysis.blocks_checked, blocks);
    EXPECT_EQ(res.launch.analysis.blocks_checked, res.launch.blocks_total);
  }
}

TEST(ConvStages, FftJsonReportsEveryLaunch) {
  const ConvResult res = run(Algo::Fft);
  const sim::Arch arch = sim::kepler_k40m();
  const std::string json = sim::to_json(arch, res.launch, res.stages);
  const auto root = JsonReader(json).parse();
  const double blocks_total = field(*root, "blocks_total").number;
  EXPECT_GT(blocks_total, 0.0);
  EXPECT_GT(field(*root, "seconds").number, 0.0);
  EXPECT_GT(field(*root, "gm_sectors").number, 0.0);
  const JsonValue& stages = field(*root, "stages");
  ASSERT_EQ(stages.type, JsonValue::Type::Array);
  ASSERT_EQ(stages.array.size(), res.stages.size());
  double stage_blocks = 0.0, launches = 0.0;
  for (std::size_t i = 0; i < res.stages.size(); ++i) {
    const JsonValue& s = *stages.array[i];
    EXPECT_EQ(field(s, "name").str, res.stages[i].name);
    stage_blocks += field(s, "blocks_total").number;
    launches += field(s, "launches").number;
    EXPECT_EQ(static_cast<u64>(field(s, "gm_sectors_dram").number),
              res.stages[i].launch.stats.gm_sectors_dram);
  }
  EXPECT_EQ(stage_blocks, blocks_total);
  EXPECT_EQ(launches, 13.0);

  // One stage: no `stages` array.
  const ConvResult general = run(Algo::General);
  const auto one =
      JsonReader(sim::to_json(arch, general.launch, general.stages)).parse();
  EXPECT_EQ(one->object.count("stages"), 0u);
}

}  // namespace
}  // namespace kconv::core
