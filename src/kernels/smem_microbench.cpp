#include "src/kernels/smem_microbench.hpp"

#include "src/sim/sim.hpp"

namespace kconv::kernels {

namespace {

template <typename T, int N>
class SmemSweepKernel {
 public:
  i64 stride_units = 1;
  i64 elems_half = 0;  // elements per half-buffer
  u32 passes = 1;
  u32 src_off = 0, dst_off = 0;

  sim::ThreadProgram operator()(sim::ThreadCtx& t) const {
    auto src = t.shared<T>(src_off, elems_half);
    auto dst = t.shared<T>(dst_off, elems_half);
    const i64 tid = t.thread_idx.x;
    for (u32 p = 0; p < passes; ++p) {
      // Each pass: every thread moves one N-unit at its strided slot, then
      // rotates by one unit so the whole half-buffer is exercised.
      const i64 unit =
          (tid * stride_units + p) % (elems_half / N);
      Vec<T, N> v =
          t.template ld_shared<Vec<T, N>>(src, unit * N);
      t.st_shared(dst, unit * N, v);
    }
    co_await t.sync();
  }
};

template <typename T, int N>
SmemMicrobenchResult run_sweep(sim::Device& dev,
                               const SmemMicrobenchConfig& cfg) {
  SmemSweepKernel<T, N> k;
  k.stride_units = cfg.stride_units;
  k.passes = cfg.passes;

  // Two fixed 16 KiB half-buffers; strided patterns wrap modulo the unit
  // count, which preserves their bank mapping while bounding the footprint.
  k.elems_half = round_up(static_cast<i64>(16 * 1024 / sizeof(T)), 16);

  sim::SharedLayout smem;
  k.src_off = smem.alloc<T>(k.elems_half);
  k.dst_off = smem.alloc<T>(k.elems_half);

  sim::LaunchConfig lc;
  lc.grid = sim::Dim3{cfg.blocks, 1, 1};
  lc.block = sim::Dim3{cfg.threads, 1, 1};
  lc.shared_bytes = smem.size();
  lc.regs_per_thread = 16;

  SmemMicrobenchResult res;
  res.launch = sim::launch(dev, k, lc);
  const auto& s = res.launch.stats;
  if (s.smem_request_cycles > 0) {
    res.bytes_per_request_cycle =
        static_cast<double>(s.smem_bytes) /
        static_cast<double>(s.smem_request_cycles);
  }
  res.replay_factor = s.smem_replay_factor();
  return res;
}

template <typename T>
SmemMicrobenchResult dispatch_width(sim::Device& dev,
                                    const SmemMicrobenchConfig& cfg, i64 n) {
  switch (n) {
    case 1: return run_sweep<T, 1>(dev, cfg);
    case 2: return run_sweep<T, 2>(dev, cfg);
    case 4: return run_sweep<T, 4>(dev, cfg);
    case 8: return run_sweep<T, 8>(dev, cfg);
    default:
      KCONV_CHECK(false, strf("unsupported vector width %lld",
                              static_cast<long long>(n)));
      __builtin_unreachable();
  }
}

}  // namespace

SmemMicrobenchResult smem_microbench(sim::Device& dev,
                                     const SmemMicrobenchConfig& cfg) {
  KCONV_CHECK(cfg.threads >= 32 && cfg.threads <= 1024 && cfg.passes >= 1 &&
                  cfg.blocks >= 1 && cfg.stride_units >= 1,
              "invalid microbenchmark configuration");
  const std::size_t elem = dtype_size(cfg.dtype);
  i64 n = cfg.vec_width;
  if (n == 0) {
    n = std::max<i64>(1, static_cast<i64>(dev.arch().smem_bank_bytes / elem));
  }
  switch (cfg.dtype) {
    case DType::F32: return dispatch_width<float>(dev, cfg, n);
    case DType::F16: return dispatch_width<f16>(dev, cfg, n);
    case DType::I8: return dispatch_width<i8q>(dev, cfg, n);
  }
  KCONV_ASSERT(false);
  __builtin_unreachable();
}

}  // namespace kconv::kernels
