#include "src/core/conv_api.hpp"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/sim/sim.hpp"
#include "src/tensor/compare.hpp"
#include "src/tensor/conv_ref.hpp"

namespace kconv::core {
namespace {

TEST(ConvBatched, MatchesPerImageReference) {
  Rng rng(55);
  tensor::Tensor batch(3, 4, 14, 16);
  batch.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(8, 4, 3);
  flt.fill_random(rng);

  sim::Device dev(sim::kepler_k40m());
  const auto res = conv2d_batched(dev, batch, flt);
  ASSERT_TRUE(res.output_valid);
  EXPECT_EQ(res.output.n(), 3);
  EXPECT_EQ(res.output.c(), 8);

  const tensor::Tensor ref = tensor::conv2d_reference(batch, flt);
  EXPECT_TRUE(tensor::allclose(res.output, ref, 2e-4, 2e-4));
}

TEST(ConvBatched, SingleImageFallsThrough) {
  Rng rng(56);
  tensor::Tensor batch(1, 1, 12, 12);
  batch.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(2, 1, 3);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  const auto res = conv2d_batched(dev, batch, flt);
  EXPECT_EQ(res.algo_used, Algo::Special);
  EXPECT_TRUE(res.output_valid);
}

TEST(ConvBatched, TimeScalesWithBatch) {
  Rng rng(57);
  tensor::Tensor one(1, 4, 20, 20);
  one.fill_random(rng);
  tensor::Tensor four(4, 4, 20, 20);
  four.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(8, 4, 3);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  const double t1 = conv2d_batched(dev, one, flt).total_seconds;
  const double t4 = conv2d_batched(dev, four, flt).total_seconds;
  EXPECT_NEAR(t4 / t1, 4.0, 0.2);
}

TEST(ConvBatched, CountersSumOverTheBatch) {
  // Four copies of one image: the batch's block counts and every counter
  // compared across schedules are 4x one image's (max_warp_instrs, a max,
  // stays equal), with replay on so blocks_replayed is not trivially 0.
  Rng rng(61);
  tensor::Tensor one(1, 4, 40, 40);
  one.fill_random(rng);
  tensor::Tensor four(4, 4, 40, 40);
  for (i64 img = 0; img < 4; ++img)
    for (i64 c = 0; c < 4; ++c)
      for (i64 y = 0; y < 40; ++y)
        for (i64 x = 0; x < 40; ++x)
          four.at(img, c, y, x) = one.at(0, c, y, x);
  tensor::Tensor flt = tensor::Tensor::filters(8, 4, 3);
  flt.fill_random(rng);
  ConvOptions opt;
  opt.launch.replay = true;
  sim::Device dev(sim::kepler_k40m());
  const sim::LaunchResult l1 = conv2d_batched(dev, one, flt, opt).launch;
  const ConvResult r4 = conv2d_batched(dev, four, flt, opt);
  const sim::LaunchResult& l4 = r4.launch;

  ASSERT_GT(l1.blocks_replayed, 0u);
  EXPECT_EQ(l4.blocks_total, 4 * l1.blocks_total);
  EXPECT_EQ(l4.blocks_executed, 4 * l1.blocks_executed);
  EXPECT_EQ(l4.blocks_replayed, 4 * l1.blocks_replayed);
  for (const auto& c : sim::kKernelCounters) {
    if (!compared_at(c.cls, StatsLevel::Schedule)) continue;
    const u64 want = c.max ? l1.stats.*c.member : 4 * (l1.stats.*c.member);
    EXPECT_EQ(l4.stats.*c.member, want) << c.name;
  }
  // The batch's modeled time is its images' sum, not the last image's.
  EXPECT_EQ(l4.timing.seconds, r4.total_seconds);
  EXPECT_GT(l4.timing.seconds, 3 * l1.timing.seconds);
}

TEST(ConvBatched, SamePaddingWorksPerImage) {
  Rng rng(58);
  tensor::Tensor batch(2, 1, 11, 13);
  batch.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(2, 1, 3);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  ConvOptions opt;
  opt.padding = Padding::Same;
  const auto res = conv2d_batched(dev, batch, flt, opt);
  ASSERT_TRUE(res.output_valid);
  EXPECT_EQ(res.output.h(), 11);
  EXPECT_EQ(res.output.w(), 13);
  EXPECT_TRUE(tensor::allclose(res.output,
                               tensor::conv2d_reference(batch, flt, 1)));
}

TEST(ConvBatched, FunctionalTraceReportsZeroGflops) {
  // A Functional trace carries no timing: the batch reports 0 GFlop/s, as
  // conv2d does for one image, not a division by zero seconds.
  Rng rng(59);
  tensor::Tensor batch(2, 4, 12, 12);
  batch.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(8, 4, 3);
  flt.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  ConvOptions opt;
  opt.launch.trace = sim::TraceLevel::Functional;
  const auto res = conv2d_batched(dev, batch, flt, opt);
  ASSERT_TRUE(res.output_valid);
  EXPECT_EQ(res.total_seconds, 0.0);
  EXPECT_EQ(res.effective_gflops, 0.0);
}

TEST(ConvBatched, ImageShardedFleetIsAnalyzed) {
  // Three images round-robin over two devices: device 0 runs images 0 and
  // 2, device 1 runs image 1. The fleet block carries the analyzer's
  // ratios and verdicts, and the batch time is still the busiest device's
  // summed compute plus its staging.
  Rng rng(60);
  tensor::Tensor batch(3, 4, 14, 14);
  batch.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(8, 4, 3);
  flt.fill_random(rng);
  ConvOptions opt;
  opt.launch.fleet.devices = 2;
  sim::Device dev(sim::kepler_k40m());
  const auto res = conv2d_batched(dev, batch, flt, opt);

  std::vector<double> image_seconds;
  for (i64 img = 0; img < batch.n(); ++img) {
    tensor::Tensor one(1, batch.c(), batch.h(), batch.w());
    for (i64 c = 0; c < batch.c(); ++c)
      for (i64 y = 0; y < batch.h(); ++y)
        for (i64 x = 0; x < batch.w(); ++x)
          one.at(0, c, y, x) = batch.at(img, c, y, x);
    sim::Device single(sim::kepler_k40m());
    image_seconds.push_back(conv2d(single, one, flt).total_seconds);
  }

  const sim::FleetResult& f = res.launch.fleet;
  ASSERT_TRUE(f.enabled);
  ASSERT_EQ(f.device_reports.size(), 2u);
  EXPECT_EQ(f.device_reports[0].blocks, 2u);
  EXPECT_EQ(f.device_reports[1].blocks, 1u);
  EXPECT_EQ(f.device_reports[0].compute_seconds,
            image_seconds[0] + image_seconds[2]);
  EXPECT_EQ(f.device_reports[1].compute_seconds, image_seconds[1]);
  double makespan = 0.0;
  for (const sim::FleetDeviceReport& d : f.device_reports) {
    EXPECT_GT(d.comm_ratio, 0.0);
    makespan = std::max(makespan, d.transfer_seconds + d.compute_seconds);
  }
  EXPECT_EQ(res.total_seconds, makespan);
  EXPECT_EQ(f.seconds, makespan);
  EXPECT_GT(f.interdevice_ratio, 0.0);
  EXPECT_GT(f.interlevel_ratio, 0.0);
  EXPECT_FALSE(f.interdevice_verdict.empty());
  EXPECT_FALSE(f.interlevel_verdict.empty());

  // More devices than images: the idle device is still reported as itself.
  opt.launch.fleet.devices = 4;
  const sim::FleetResult wide =
      conv2d_batched(dev, batch, flt, opt).launch.fleet;
  ASSERT_EQ(wide.device_reports.size(), 4u);
  for (u32 d = 0; d < 4; ++d) EXPECT_EQ(wide.device_reports[d].device, d);
  EXPECT_EQ(wide.device_reports[3].blocks, 0u);
}

}  // namespace
}  // namespace kconv::core
