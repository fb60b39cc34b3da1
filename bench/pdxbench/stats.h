#ifndef PDXBENCH_STATS_H_
#define PDXBENCH_STATS_H_

// Sample statistics for the workloads, the results file and --compare.
// Percentiles use the nearest-rank definition and refuse to report a tail
// that fewer than kMinBeyond samples lie beyond. Quartiles across runs
// follow Python's statistics.quantiles(values, n=4), the rule the spread
// check in README.md uses.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace pdxbench {

inline constexpr size_t kMinBeyond = 10;

// Nearest-rank p-th percentile (0 < p <= 100): the value at 1-based rank
// ceil(p/100 * n) of the sorted sample. nullopt when fewer than
// `min_beyond` samples lie beyond that rank, which includes every empty
// sample.
inline std::optional<double> Percentile(std::vector<double> values, double p,
                                        size_t min_beyond = kMinBeyond) {
  const size_t n = values.size();
  if (n == 0) return std::nullopt;
  // The epsilon absorbs p*n/100 landing a rounding error above an integer.
  double exact = p * static_cast<double>(n) / 100.0 - 1e-9;
  size_t rank = static_cast<size_t>(std::max(1.0, std::ceil(exact)));
  rank = std::min(rank, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

struct Tail {
  double pct = 0;
  double value = 0;
};

// The highest percentile not above `target` among 99.9, 99, 95, 90, 75
// and 50 that Percentile reports; nullopt when even p50 lacks samples.
inline std::optional<Tail> TailPercentile(const std::vector<double>& values,
                                          double target) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (p > target) continue;
    if (std::optional<double> v = Percentile(values, p)) return Tail{p, *v};
  }
  return std::nullopt;
}

// Median, averaging the middle pair of an even sample (as Python's
// statistics.median does). 0 for an empty sample.
inline double Median(std::vector<double> values) {
  const size_t n = values.size();
  if (n == 0) return 0;
  std::sort(values.begin(), values.end());
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};

// Python's statistics.quantiles(values, n=4) (method "exclusive"); a
// single sample gives that sample for all three cut points.
inline Quartiles QuartilesOf(std::vector<double> values) {
  Quartiles q;
  const size_t n = values.size();
  if (n == 0) return q;
  std::sort(values.begin(), values.end());
  if (n == 1) {
    q.q1 = q.median = q.q3 = values[0];
    return q;
  }
  const size_t m = n + 1;
  double cuts[3];
  for (size_t i = 1; i <= 3; ++i) {
    size_t j = std::clamp<size_t>(i * m / 4, 1, n - 1);
    double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    cuts[i - 1] = (values[j - 1] * (4 - delta) + values[j] * delta) / 4.0;
  }
  q.q1 = cuts[0];
  q.median = cuts[1];
  q.q3 = cuts[2];
  return q;
}

// Share of the pairs (parent[i], change[i]) that the change wins; ties
// count for neither side.
inline double PairWinFraction(const std::vector<double>& parent,
                              const std::vector<double>& change,
                              bool lower_is_better) {
  const size_t pairs = std::min(parent.size(), change.size());
  if (pairs == 0) return 0;
  size_t wins = 0;
  for (size_t i = 0; i < pairs; ++i) {
    if (lower_is_better ? change[i] < parent[i] : change[i] > parent[i]) {
      ++wins;
    }
  }
  return static_cast<double>(wins) / static_cast<double>(pairs);
}

}  // namespace pdxbench

#endif  // PDXBENCH_STATS_H_
