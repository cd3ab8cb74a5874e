#include "kbench/src/stats.hpp"

#include "src/common/error.hpp"
#include "src/obs/metrics.hpp"

namespace kbench {

double percentile(const std::vector<double>& samples, double q) {
  KCONV_CHECK(!samples.empty(), "percentile of an empty sample set");
  KCONV_CHECK(q > 0.0 && q <= 1.0, "percentile rank outside (0, 1]");
  KCONV_CHECK(samples.size() <= kconv::obs::Histogram::kExactCap,
              "too many samples for an exact percentile");
  // Used as arithmetic only: no telemetry sink is involved.
  kconv::obs::Histogram h;
  for (const double v : samples) h.add(v);
  return h.percentile(q);
}

double median(const std::vector<double>& samples) {
  return percentile(samples, 0.5);
}

}  // namespace kbench
