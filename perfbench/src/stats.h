// The benchmark's own arithmetic: medians, quantiles, the geometric mean
// and the rule that picks which tail percentile a sample can support.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample, the
/// same definition as numpy's default. Returns 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Geometric mean of strictly positive values; 0 when the sample is empty
/// or holds a value <= 0 (a latency can never be 0, so a 0 here reads as
/// "not measured" rather than as a fast result).
double GeoMean(const std::vector<double>& values);

/// The tail percentile a sample of `n` supports: the highest of
/// 99, 95, 90 and 75 that leaves at least ten samples beyond it, or 50
/// (the median alone) below forty samples, where no percentile would be
/// a tail.
double TailPercentile(size_t n);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
