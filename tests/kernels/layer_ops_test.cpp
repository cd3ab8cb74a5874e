#include "src/kernels/layer_ops.hpp"

#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/kernels/device_tensor.hpp"
#include "src/sim/sim.hpp"
#include "src/tensor/compare.hpp"

namespace kconv::kernels {
namespace {

TEST(MaxPool, MatchesScalarReference) {
  Rng rng(3);
  tensor::Tensor img = tensor::Tensor::image(3, 10, 14);
  img.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  const auto run = max_pool_2x2(dev, img);
  ASSERT_TRUE(run.output_valid);
  ASSERT_EQ(run.output.h(), 5);
  ASSERT_EQ(run.output.w(), 7);
  for (i64 c = 0; c < 3; ++c) {
    for (i64 y = 0; y < 5; ++y) {
      for (i64 x = 0; x < 7; ++x) {
        const float expect = std::max(
            std::max(img.at(0, c, 2 * y, 2 * x), img.at(0, c, 2 * y, 2 * x + 1)),
            std::max(img.at(0, c, 2 * y + 1, 2 * x),
                     img.at(0, c, 2 * y + 1, 2 * x + 1)));
        EXPECT_EQ(run.output.at(0, c, y, x), expect);
      }
    }
  }
}

TEST(MaxPool, OddTailTruncates) {
  tensor::Tensor img = tensor::Tensor::image(1, 5, 7);
  sim::Device dev(sim::kepler_k40m());
  const auto run = max_pool_2x2(dev, img);
  EXPECT_EQ(run.output.h(), 2);
  EXPECT_EQ(run.output.w(), 3);
}

TEST(MaxPool, RejectsTinyInput) {
  tensor::Tensor img = tensor::Tensor::image(1, 1, 8);
  sim::Device dev(sim::kepler_k40m());
  EXPECT_THROW(max_pool_2x2(dev, img), Error);
}

TEST(BiasRelu, AppliesBiasThenClamps) {
  tensor::Tensor img = tensor::Tensor::image(2, 3, 4);
  for (i64 y = 0; y < 3; ++y)
    for (i64 x = 0; x < 4; ++x) {
      img.at(0, 0, y, x) = -1.0f;
      img.at(0, 1, y, x) = 0.25f;
    }
  const std::vector<float> bias = {0.4f, 0.5f};
  sim::Device dev(sim::kepler_k40m());
  const auto run = bias_relu(dev, img, bias);
  ASSERT_TRUE(run.output_valid);
  EXPECT_EQ(run.output.at(0, 0, 1, 1), 0.0f);    // -1 + 0.4 clamps to 0
  EXPECT_EQ(run.output.at(0, 1, 1, 1), 0.75f);   // 0.25 + 0.5
}

TEST(BiasRelu, BiasSizeMismatchThrows) {
  tensor::Tensor img = tensor::Tensor::image(2, 3, 4);
  const std::vector<float> bias = {1.0f};
  sim::Device dev(sim::kepler_k40m());
  EXPECT_THROW(bias_relu(dev, img, bias), Error);
}

// --- batched (N > 1) operation ----------------------------------------------

tensor::Tensor slice_image(const tensor::Tensor& batch, i64 n) {
  tensor::Tensor img(1, batch.c(), batch.h(), batch.w());
  for (i64 c = 0; c < batch.c(); ++c)
    for (i64 y = 0; y < batch.h(); ++y)
      for (i64 x = 0; x < batch.w(); ++x)
        img.at(0, c, y, x) = batch.at(n, c, y, x);
  return img;
}

TEST(MaxPool, BatchedMatchesPerImageRuns) {
  Rng rng(11);
  tensor::Tensor batch(3, 2, 6, 8);
  batch.fill_random(rng);
  sim::Device dev(sim::kepler_k40m());
  const auto run = max_pool_2x2(dev, batch);
  ASSERT_TRUE(run.output_valid);
  ASSERT_EQ(run.output.n(), 3);
  ASSERT_EQ(run.output.c(), 2);
  for (i64 n = 0; n < 3; ++n) {
    sim::Device solo(sim::kepler_k40m());
    const auto one = max_pool_2x2(solo, slice_image(batch, n));
    ASSERT_TRUE(one.output_valid);
    for (i64 c = 0; c < 2; ++c)
      for (i64 y = 0; y < 3; ++y)
        for (i64 x = 0; x < 4; ++x)
          EXPECT_EQ(run.output.at(n, c, y, x), one.output.at(0, c, y, x));
  }
}

TEST(BiasRelu, BatchedMatchesPerImageRuns) {
  Rng rng(13);
  tensor::Tensor batch(4, 3, 5, 6);
  batch.fill_random(rng, -1.0f, 1.0f);
  const std::vector<float> bias = {0.2f, -0.1f, 0.05f};
  sim::Device dev(sim::kepler_k40m());
  const auto run = bias_relu(dev, batch, bias);
  ASSERT_TRUE(run.output_valid);
  ASSERT_EQ(run.output.n(), 4);
  for (i64 n = 0; n < 4; ++n) {
    sim::Device solo(sim::kepler_k40m());
    const auto one = bias_relu(solo, slice_image(batch, n), bias);
    ASSERT_TRUE(one.output_valid);
    for (i64 c = 0; c < 3; ++c)
      for (i64 y = 0; y < 5; ++y)
        for (i64 x = 0; x < 6; ++x)
          EXPECT_EQ(run.output.at(n, c, y, x), one.output.at(0, c, y, x));
  }
}

TEST(BiasRelu, BatchBiasIsPerChannelNotPerPlane) {
  tensor::Tensor batch(3, 2, 4, 4);
  sim::Device dev(sim::kepler_k40m());
  // N*C = 6 entries is the wrong contract; the bias indexes channels.
  const std::vector<float> per_plane(6, 0.1f);
  EXPECT_THROW(bias_relu(dev, batch, per_plane), Error);
  const std::vector<float> per_channel(2, 0.1f);
  EXPECT_NO_THROW(bias_relu(dev, batch, per_channel));
}

TEST(BiasRelu, CoalescedAndBroadcastTraffic) {
  // Per warp: one uniform bias sector plus coalesced row accesses.
  Rng rng(5);
  tensor::Tensor img = tensor::Tensor::image(1, 4, 128);
  img.fill_random(rng);
  const std::vector<float> bias = {0.1f};
  sim::Device dev(sim::kepler_k40m());
  const auto run = bias_relu(dev, img, bias);
  // 4 rows x 128 cols: loads 512 px + 16 bias reads (1/warp), stores 512.
  // Useful bytes ~ (512*2 + 16) * 4; overfetch should be tiny.
  EXPECT_LT(run.launch.stats.gm_overfetch(dev.arch().gm_sector_bytes), 1.2);
}

// --- row-sized blocks -------------------------------------------------------
//
// Both ops launch blocks only as wide as their rows (whole warps, at most
// 128 lanes) over the grid a 128-lane block always had. The references
// below are the fixed 128-lane launches that rule replaced.

class WidePoolKernel {
 public:
  PlanesView in;
  PlanesView out;

  sim::ThreadProgram operator()(sim::ThreadCtx& t) const {
    const i64 x = static_cast<i64>(t.block_idx.x) * t.block_dim.x +
                  t.thread_idx.x;
    const i64 y = t.block_idx.y % out.h;
    const i64 c = t.block_idx.y / out.h;
    const bool live = x < out.w;
    float best = -3.4e38f;
    for (int i = 0; i < 4; ++i) {
      const i64 yy = y * 2 + i / 2, xx = x * 2 + i % 2;
      const float v = t.ld_global_if(
          live, in.buf, live ? in.idx(c, yy, xx) : 0);
      best = std::max(best, v);
      t.alu(1);
    }
    t.st_global_if(live, out.buf, live ? out.idx(c, y, x) : 0,
                            best);
    co_return;
  }
};

class WideBiasReluKernel {
 public:
  PlanesView in;
  PlanesView out;
  sim::BufferView<float> bias;

  sim::ThreadProgram operator()(sim::ThreadCtx& t) const {
    const i64 x = static_cast<i64>(t.block_idx.x) * t.block_dim.x +
                  t.thread_idx.x;
    const i64 y = t.block_idx.y % in.h;
    const i64 c = t.block_idx.y / in.h;
    const bool live = x < in.w;
    const float b = t.ld_global(bias, c);
    const float v =
        t.ld_global_if(live, in.buf, live ? in.idx(c, y, x) : 0);
    t.alu(2);
    t.st_global_if(live, out.buf, live ? out.idx(c, y, x) : 0,
                            std::max(0.0f, v + b));
    co_return;
  }
};

/// 128 lanes per block, ceil(width / 128) blocks per row.
sim::LaunchConfig wide_config(i64 width, i64 rows, u32 regs) {
  sim::LaunchConfig lc;
  lc.block = sim::Dim3{128, 1, 1};
  lc.grid = sim::Dim3{static_cast<u32>(ceil_div(width, 128)),
                      static_cast<u32>(rows), 1};
  lc.regs_per_thread = regs;
  return lc;
}

sim::LaunchResult wide_pool(const tensor::Tensor& img) {
  sim::Device dev(sim::kepler_k40m());
  DevicePlanes d_in(dev, img.c(), img.h(), img.w());
  d_in.upload(img);
  DevicePlanes d_out(dev, img.c(), img.h() / 2, img.w() / 2);
  WidePoolKernel k;
  k.in = d_in.view();
  k.out = d_out.view();
  return sim::launch(
      dev, k, wide_config(img.w() / 2, img.c() * (img.h() / 2), 16));
}

sim::LaunchResult wide_bias_relu(const tensor::Tensor& img,
                                 std::span<const float> bias) {
  sim::Device dev(sim::kepler_k40m());
  DevicePlanes d_in(dev, img.c(), img.h(), img.w());
  d_in.upload(img);
  DevicePlanes d_out(dev, img.c(), img.h(), img.w());
  auto d_bias = dev.alloc<float>(bias);
  WideBiasReluKernel k;
  k.in = d_in.view();
  k.out = d_out.view();
  k.bias = d_bias.view();
  return sim::launch(dev, k, wide_config(img.w(), img.c() * img.h(), 12));
}

constexpr i64 kRowWidths[] = {1, 3, 6, 16, 31, 32, 33, 100, 128, 129, 200};

TEST(MaxPool, RowSizedBlocksKeepGridCountersAndOutput) {
  for (const i64 wo : kRowWidths) {
    SCOPED_TRACE(testing::Message() << "output row width " << wo);
    Rng rng(static_cast<u64>(wo));
    tensor::Tensor img = tensor::Tensor::image(3, 4, 2 * wo);
    img.fill_random(rng);
    sim::Device dev(sim::kepler_k40m());
    const auto run = max_pool_2x2(dev, img);
    ASSERT_TRUE(run.output_valid);
    for (i64 c = 0; c < 3; ++c)
      for (i64 y = 0; y < 2; ++y)
        for (i64 x = 0; x < wo; ++x)
          EXPECT_EQ(run.output.at(0, c, y, x),
                    std::max(std::max(img.at(0, c, 2 * y, 2 * x),
                                      img.at(0, c, 2 * y, 2 * x + 1)),
                             std::max(img.at(0, c, 2 * y + 1, 2 * x),
                                      img.at(0, c, 2 * y + 1, 2 * x + 1))));
    EXPECT_EQ(run.launch.blocks_total,
              static_cast<u64>(3 * 2 * ceil_div(wo, 128)));

    const sim::LaunchResult wide = wide_pool(img);
    const sim::KernelStats& a = run.launch.stats;
    const sim::KernelStats& b = wide.stats;
    EXPECT_EQ(run.launch.blocks_total, wide.blocks_total);
    EXPECT_EQ(a.gm_instrs, b.gm_instrs);
    EXPECT_EQ(a.gm_sectors, b.gm_sectors);
    EXPECT_EQ(a.gm_sectors_dram, b.gm_sectors_dram);
    EXPECT_EQ(a.gm_bytes_useful, b.gm_bytes_useful);
    EXPECT_LE(run.launch.timing.seconds, wide.timing.seconds);
  }
}

TEST(MaxPool, RowSizedBlocksModelNetworkPoolsBitEqual) {
  // (C, H, W) of every pool in lenet, lenet-wide and vgg-tiny.
  const i64 shapes[][3] = {{8, 24, 24},  {16, 8, 8},  {48, 32, 32},
                           {96, 12, 12}, {96, 6, 6},  {8, 30, 30},
                           {16, 13, 13}};
  for (const auto& s : shapes) {
    SCOPED_TRACE(testing::Message() << s[0] << "x" << s[1] << "x" << s[2]);
    Rng rng(static_cast<u64>(s[0] * s[2]));
    tensor::Tensor img = tensor::Tensor::image(s[0], s[1], s[2]);
    img.fill_random(rng);
    sim::Device dev(sim::kepler_k40m());
    const auto run = max_pool_2x2(dev, img);
    const sim::LaunchResult wide = wide_pool(img);
    EXPECT_EQ(run.launch.timing.seconds, wide.timing.seconds);
    EXPECT_EQ(run.launch.timing.gflops, wide.timing.gflops);
  }
}

TEST(BiasRelu, RowSizedBlocksKeepGridAndOutput) {
  const std::vector<float> bias = {0.3f, -0.2f, 0.1f};
  for (const i64 w : kRowWidths) {
    SCOPED_TRACE(testing::Message() << "row width " << w);
    Rng rng(static_cast<u64>(w) + 100);
    tensor::Tensor img = tensor::Tensor::image(3, 2, w);
    img.fill_random(rng, -1.0f, 1.0f);
    sim::Device dev(sim::kepler_k40m());
    const auto run = bias_relu(dev, img, bias);
    ASSERT_TRUE(run.output_valid);
    for (i64 c = 0; c < 3; ++c)
      for (i64 y = 0; y < 2; ++y)
        for (i64 x = 0; x < w; ++x)
          EXPECT_EQ(run.output.at(0, c, y, x),
                    std::max(0.0f, img.at(0, c, y, x) +
                                       bias[static_cast<std::size_t>(c)]));
    EXPECT_EQ(run.launch.blocks_total,
              static_cast<u64>(3 * 2 * ceil_div(w, 128)));
    // The dropped warps issued only their unpredicated bias load.
    EXPECT_LE(run.launch.timing.seconds,
              wide_bias_relu(img, bias).timing.seconds);
  }
}

}  // namespace
}  // namespace kconv::kernels
