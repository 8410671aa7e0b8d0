// Harness statistics for bench_e2e and its comparison rule (README.md,
// "Comparing two sets of runs"). compare.py applies the same rule in Python;
// stats_test.cpp pins the cases both must agree on.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace lgv::e2e {

/// Value at quantile q in [0, 1], interpolating linearly between closest
/// ranks; 0 for an empty sample.
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double idx = std::clamp(q, 0.0, 1.0) * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

/// A tail percentile is reported only with this many samples beyond it.
inline constexpr double kTailSamples = 10.0;

/// The highest of p50, p90, p99 and p99.9 that has at least kTailSamples of
/// `n` samples beyond it, as a percentage; 0 when not even p50 has.
inline double reportable_percentile(size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= kTailSamples - 1e-9) best = p;
  }
  return best;
}

/// Samples per block in block_quantile: the fewest that give p99 ten samples
/// beyond it.
inline constexpr size_t kBlockSamples = 1000;

/// The median, over consecutive blocks of kBlockSamples samples, of each
/// block's q-quantile; the plain quantile when there is no full block. A
/// burst of host noise then moves one block's value, not the run's.
inline double block_quantile(const std::vector<double>& samples, double q) {
  if (samples.size() < kBlockSamples) return quantile(samples, q);
  std::vector<double> per_block;
  for (size_t b = 0; b + kBlockSamples <= samples.size(); b += kBlockSamples) {
    per_block.push_back(quantile(
        {samples.begin() + static_cast<std::ptrdiff_t>(b),
         samples.begin() + static_cast<std::ptrdiff_t>(b + kBlockSamples)},
        q));
  }
  return quantile(per_block, 0.5);
}

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  /// Distance between the quartiles as a share of the median.
  double spread() const {
    if (median == 0.0) return q3 == q1 ? 0.0 : std::numeric_limits<double>::infinity();
    return (q3 - q1) / std::abs(median);
  }
};

/// Python's statistics.quantiles(values, n=4) (its default "exclusive"
/// method) and statistics.median, so the harness, compare.py and any reader
/// with a Python prompt get the same numbers.
inline Quartiles quartiles(std::vector<double> xs) {
  Quartiles q;
  if (xs.empty()) return q;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  q.median = n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
  if (n == 1) {
    q.q1 = q.q3 = xs[0];
    return q;
  }
  auto cut = [&xs, n](size_t i) {
    const size_t m = n + 1;
    const size_t j = std::clamp<size_t>(i * m / 4, 1, n - 1);
    const auto delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0;
  };
  q.q1 = cut(1);
  q.q3 = cut(3);
  return q;
}

/// Missions attempted and failed, by cause.
struct FailureTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> by_cause;

  /// `cause` empty = the mission passed every check.
  void add(const std::string& cause) {
    ++attempted;
    if (cause.empty()) return;
    ++failed;
    ++by_cause[cause];
  }
  double fail_frac() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

enum class Verdict { kWithin, kWorse, kBetter, kUnresolved };

/// Judge a change's runs against a base's for one (workload, metric).
/// `bound` is the share of the base median by which the change may be worse.
///  - When either side's quartile spread exceeds the bound, the runs cannot
///    resolve a change of that size: the verdict is "unresolved", unless
///    every change run reads better than every base run.
///  - Otherwise the medians decide: worse by more than the bound is WORSE,
///    better by more than it is "better", anything else "within".
///  - bound 0 ("no increase") skips the spread rule: any worse median is
///    WORSE.
inline Verdict judge(const std::vector<double>& base, const std::vector<double>& change,
                     double bound, bool lower_is_better) {
  const Quartiles qb = quartiles(base);
  const Quartiles qc = quartiles(change);
  const double sign = lower_is_better ? 1.0 : -1.0;
  double worse = sign * (qc.median - qb.median);  // > 0: the change is worse
  if (qb.median != 0.0) {
    worse /= std::abs(qb.median);
  } else if (worse != 0.0) {
    worse = std::copysign(std::numeric_limits<double>::infinity(), worse);
  }

  if (bound > 0.0 && std::max(qb.spread(), qc.spread()) > bound) {
    if (base.empty() || change.empty()) return Verdict::kUnresolved;
    const auto [bmin, bmax] = std::minmax_element(base.begin(), base.end());
    const auto [cmin, cmax] = std::minmax_element(change.begin(), change.end());
    const bool all_better = lower_is_better ? *cmax < *bmin : *cmin > *bmax;
    return all_better ? Verdict::kBetter : Verdict::kUnresolved;
  }
  if (worse > bound) return Verdict::kWorse;
  if (worse < -bound) return Verdict::kBetter;
  return Verdict::kWithin;
}

}  // namespace lgv::e2e
