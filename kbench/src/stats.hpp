// The arithmetic the benchmark reports with: nearest-rank percentiles and
// failure tallies.
#pragma once

#include <vector>

#include "src/common/types.hpp"

namespace kbench {

/// Nearest-rank percentile, the ceil(q * n)-th smallest sample, as
/// kconv::obs::Histogram computes it. Throws kconv::Error on an empty sample
/// set, on q outside (0, 1] and past the histogram's exact tier.
double percentile(const std::vector<double>& samples, double q);

/// percentile(samples, 0.5): the middle sample of an odd-sized set, the
/// lower middle one of an even-sized set.
double median(const std::vector<double>& samples);

/// Ops attempted and failed. A failure is a throw, a `!ok` reply or a
/// failed output check.
struct Tally {
  kconv::u64 attempted = 0;
  kconv::u64 failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// failed / attempted; 0 before the first op.
  double error_rate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

}  // namespace kbench
