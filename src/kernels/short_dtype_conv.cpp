#include "src/kernels/short_dtype_conv.hpp"

#include "src/kernels/detail/special_kernel.hpp"
#include "src/kernels/special_conv.hpp"

namespace kconv::kernels {

KernelRun short_dtype_conv(sim::Device& dev, const tensor::Tensor& input,
                           const tensor::Tensor& filters,
                           const ShortDtypeConvConfig& cfg,
                           const sim::LaunchOptions& opt) {
  KCONV_CHECK(input.n() == 1, "short-dtype conv operates on a single image");
  KCONV_CHECK(input.c() == 1 && filters.c() == 1,
              "short-dtype conv implements the special case (C = 1)");
  KCONV_CHECK(filters.h() == filters.w(), "non-square filters unsupported");
  const SpecialPlan plan = plan_special(
      dev.arch(), filters.h(), filters.n(), input.h(), input.w(),
      {cfg.block_w, cfg.block_h, cfg.vec_width}, false, cfg.dtype);
  KCONV_CHECK(plan.error.empty(), plan.error);

  switch (cfg.dtype) {
    case DType::F32:
      return detail::run_special<float>(dev, plan, input, filters, opt, {},
                                        {});
    case DType::F16:
      return detail::run_special<f16>(dev, plan, input, filters, opt, {}, {});
    case DType::I8:
      return detail::run_special<i8q>(dev, plan, input, filters, opt, {}, {});
  }
  KCONV_ASSERT(false);
  __builtin_unreachable();
}

}  // namespace kconv::kernels
