#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) {
    if (!(v > 0)) return 0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double TailPercentile(size_t n) {
  if (n < 40) return 50;
  for (double p : {99.0, 95.0, 90.0, 75.0}) {
    // Samples strictly above the p-th percentile's rank.
    double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
    if (beyond >= 10.0) return p;
  }
  return 50;  // unreachable for n >= 40: 25% of 40 is 10
}

}  // namespace perfbench
