// Harness statistics of bench_e2e (stats.h). Runs no missions.
#include "stats.h"

#include <gtest/gtest.h>

namespace lgv::e2e {
namespace {

TEST(E2eStats, PercentileNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(reportable_percentile(0), 0.0);
  EXPECT_EQ(reportable_percentile(19), 0.0);
  EXPECT_EQ(reportable_percentile(20), 50.0);
  EXPECT_EQ(reportable_percentile(99), 50.0);
  EXPECT_EQ(reportable_percentile(100), 90.0);
  EXPECT_EQ(reportable_percentile(999), 90.0);
  EXPECT_EQ(reportable_percentile(1000), 99.0);
  EXPECT_EQ(reportable_percentile(9999), 99.0);
  EXPECT_EQ(reportable_percentile(10000), 99.9);
}

TEST(E2eStats, QuantileInterpolatesBetweenRanks) {
  EXPECT_EQ(quantile({}, 0.5), 0.0);
  EXPECT_EQ(quantile({4.0}, 0.99), 4.0);
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({0.0, 10.0}, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0}, 1.0), 3.0);
}

TEST(E2eStats, BlockQuantileIsTheMedianOfWholeBlocks) {
  // Under one block: the plain quantile.
  EXPECT_DOUBLE_EQ(block_quantile({1.0, 2.0, 3.0}, 0.5), 2.0);
  // Three blocks; the middle one's p99 wins, and a slow burst confined to
  // one block does not move the result. The partial tail block is ignored.
  std::vector<double> xs;
  for (const double level : {1.0, 2.0, 50.0}) xs.insert(xs.end(), kBlockSamples, level);
  xs.insert(xs.end(), 10, 1000.0);
  EXPECT_DOUBLE_EQ(block_quantile(xs, 0.99), 2.0);
  EXPECT_DOUBLE_EQ(block_quantile(xs, 0.5), 2.0);
}

TEST(E2eStats, QuartilesMatchPythonStatistics) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const Quartiles a = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(a.q1, 2.75);
  EXPECT_DOUBLE_EQ(a.median, 5.5);
  EXPECT_DOUBLE_EQ(a.q3, 8.25);
  EXPECT_DOUBLE_EQ(a.spread(), 5.5 / 5.5);
  // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
  const Quartiles b = quartiles({1, 2, 3});
  EXPECT_DOUBLE_EQ(b.q1, 1.0);
  EXPECT_DOUBLE_EQ(b.median, 2.0);
  EXPECT_DOUBLE_EQ(b.q3, 3.0);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: extrapolated.
  const Quartiles c = quartiles({2, 1});
  EXPECT_DOUBLE_EQ(c.q1, 0.75);
  EXPECT_DOUBLE_EQ(c.q3, 2.25);
  const Quartiles one = quartiles({7});
  EXPECT_EQ(one.q1, 7.0);
  EXPECT_EQ(one.q3, 7.0);
  EXPECT_EQ(one.spread(), 0.0);
  EXPECT_EQ(quartiles({0, 0, 0}).spread(), 0.0);
}

TEST(E2eStats, FailuresCountAgainstAttempts) {
  FailureTally t;
  EXPECT_EQ(t.fail_frac(), 0.0);
  t.add("");
  t.add("timeout");
  t.add("signal:11");
  t.add("timeout");
  EXPECT_EQ(t.attempted, 4u);
  EXPECT_EQ(t.failed, 3u);
  EXPECT_DOUBLE_EQ(t.fail_frac(), 0.75);
  EXPECT_EQ(t.by_cause.at("timeout"), 2u);
  EXPECT_EQ(t.by_cause.at("signal:11"), 1u);
}

TEST(E2eStats, MediansDecideWithinTheBound) {
  const std::vector<double> base = {100, 101, 99, 100, 100};
  EXPECT_EQ(judge(base, {105, 104, 106, 105, 105}, 0.10, true), Verdict::kWithin);
  EXPECT_EQ(judge(base, {115, 114, 116, 115, 115}, 0.10, true), Verdict::kWorse);
  EXPECT_EQ(judge(base, {85, 84, 86, 85, 85}, 0.10, true), Verdict::kBetter);
  // Higher is better: the same numbers flip.
  EXPECT_EQ(judge(base, {85, 84, 86, 85, 85}, 0.10, false), Verdict::kWorse);
  EXPECT_EQ(judge(base, {115, 114, 116, 115, 115}, 0.10, false), Verdict::kBetter);
}

TEST(E2eStats, WideSpreadIsUnresolvedUnlessEveryRunWins) {
  const std::vector<double> noisy = {70, 100, 130, 90, 110};  // spread 0.4
  EXPECT_EQ(judge(noisy, {100, 100, 100, 100, 100}, 0.10, true), Verdict::kUnresolved);
  EXPECT_EQ(judge({100, 100, 100}, noisy, 0.10, true), Verdict::kUnresolved);
  // Every change run beats every base run: better despite the spread.
  EXPECT_EQ(judge(noisy, {40, 50, 60, 45, 55}, 0.10, true), Verdict::kBetter);
  EXPECT_EQ(judge(noisy, {200, 250, 300}, 0.10, false), Verdict::kBetter);
}

TEST(E2eStats, ZeroBoundMeansNoIncrease) {
  EXPECT_EQ(judge({0, 0, 0}, {0, 0, 0}, 0.0, true), Verdict::kWithin);
  EXPECT_EQ(judge({0, 0, 0}, {0, 0.1, 0.1}, 0.0, true), Verdict::kWorse);
  EXPECT_EQ(judge({0.1, 0.1, 0.1}, {0, 0, 0}, 0.0, true), Verdict::kBetter);
  // The spread rule does not apply: a noisy but unchanged metric holds.
  EXPECT_EQ(judge({1, 5, 9}, {1, 5, 9}, 0.0, true), Verdict::kWithin);
}

}  // namespace
}  // namespace lgv::e2e
