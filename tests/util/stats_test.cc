#include "src/util/stats.h"

#include <cmath>
#include <utility>

#include <gtest/gtest.h>

namespace bsdtrace {
namespace {

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.Add(42.0);
  EXPECT_EQ(s.count(), 1);
  EXPECT_EQ(s.mean(), 42.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 42.0);
  EXPECT_EQ(s.max(), 42.0);
  EXPECT_EQ(s.sum(), 42.0);
}

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // population variance
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSinglePass) {
  RunningStats all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10 + i * 0.1;
    all.Add(x);
    (i < 37 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.Add(1.0);
  a.Add(3.0);
  a.Merge(b);  // no-op
  EXPECT_EQ(a.count(), 2);
  b.Merge(a);  // copies
  EXPECT_EQ(b.count(), 2);
  EXPECT_EQ(b.mean(), 2.0);
}

// Up to kExactZeros, AddZeros is the per-add loop bit for bit; past it the
// excess merges in closed form, in O(1).
TEST(RunningStats, AddZerosExactThenClosedForm) {
  for (const int64_t n : {int64_t{0}, int64_t{-3}, int64_t{1}, int64_t{1000},
                          RunningStats::kExactZeros}) {
    RunningStats loop, helper;
    loop.Add(7.5);
    helper.Add(7.5);
    for (int64_t i = 0; i < n; ++i) {
      loop.Add(0.0);
    }
    helper.AddZeros(n);
    EXPECT_EQ(helper.count(), loop.count()) << n;
    EXPECT_EQ(helper.mean(), loop.mean()) << n;
    EXPECT_EQ(helper.variance(), loop.variance()) << n;
    EXPECT_EQ(helper.min(), loop.min()) << n;
    EXPECT_EQ(helper.max(), loop.max()) << n;
  }

  const int64_t huge = int64_t{1} << 50;
  RunningStats s;
  s.Add(3.0);
  s.AddZeros(huge);
  s.Add(1.0);
  EXPECT_EQ(s.count(), huge + 2);
  EXPECT_EQ(s.sum(), 4.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 3.0);
  EXPECT_NEAR(s.mean(), 4.0 / static_cast<double>(huge), 1e-20);

  RunningStats only_zeros;
  only_zeros.AddZeros(RunningStats::kExactZeros + 5);
  EXPECT_EQ(only_zeros.count(), RunningStats::kExactZeros + 5);
  EXPECT_EQ(only_zeros.mean(), 0.0);
  EXPECT_EQ(only_zeros.variance(), 0.0);
  EXPECT_EQ(only_zeros.max(), 0.0);
}

TEST(WeightedCdf, EmptyBehaviour) {
  WeightedCdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_EQ(cdf.FractionAtOrBelow(10.0), 0.0);
  EXPECT_EQ(cdf.total_weight(), 0.0);
}

TEST(WeightedCdf, UnweightedFractions) {
  WeightedCdf cdf;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    cdf.Add(v);
  }
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(100.0), 1.0);
}

TEST(WeightedCdf, WeightsShiftTheCurve) {
  WeightedCdf cdf;
  cdf.Add(1.0, 1.0);
  cdf.Add(10.0, 9.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(1.0), 0.1);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(10.0), 1.0);
}

TEST(WeightedCdf, ZeroWeightIgnored) {
  WeightedCdf cdf;
  cdf.Add(5.0, 0.0);
  EXPECT_TRUE(cdf.empty());
}

TEST(WeightedCdf, Quantiles) {
  WeightedCdf cdf;
  for (int i = 1; i <= 100; ++i) {
    cdf.Add(i);
  }
  EXPECT_EQ(cdf.Quantile(0.5), 50.0);
  EXPECT_EQ(cdf.Quantile(0.9), 90.0);
  EXPECT_EQ(cdf.Quantile(1.0), 100.0);
  EXPECT_EQ(cdf.Quantile(0.0), 1.0);
}

TEST(WeightedCdf, MinMaxMean) {
  WeightedCdf cdf;
  cdf.Add(2.0, 1.0);
  cdf.Add(4.0, 3.0);
  EXPECT_EQ(cdf.MinValue(), 2.0);
  EXPECT_EQ(cdf.MaxValue(), 4.0);
  EXPECT_DOUBLE_EQ(cdf.Mean(), 3.5);
}

TEST(WeightedCdf, DuplicateValuesAccumulate) {
  WeightedCdf cdf;
  cdf.Add(5.0, 2.0);
  cdf.Add(5.0, 2.0);
  cdf.Add(6.0, 1.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(5.0), 0.8);
}

TEST(WeightedCdf, InterleavedAddAndQuery) {
  WeightedCdf cdf;
  cdf.Add(1.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(1.0), 1.0);
  cdf.Add(3.0);  // must re-sort lazily
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(1.0), 0.5);
}

TEST(WeightedCdf, EvaluateMatchesPointQueries) {
  WeightedCdf cdf;
  for (double v : {1.0, 5.0, 9.0}) {
    cdf.Add(v);
  }
  const auto ys = cdf.Evaluate({0.0, 1.0, 5.0, 9.0});
  ASSERT_EQ(ys.size(), 4u);
  EXPECT_EQ(ys[0], 0.0);
  EXPECT_NEAR(ys[1], 1.0 / 3, 1e-12);
  EXPECT_NEAR(ys[2], 2.0 / 3, 1e-12);
  EXPECT_EQ(ys[3], 1.0);
}

// Merging by move must equal merging by copy and leave the source empty,
// whether the receiver adopts the samples (empty) or appends them.
TEST(WeightedCdf, MoveMergeEqualsCopyMergeAndEmptiesSource) {
  auto source = [] {
    WeightedCdf cdf;
    cdf.Add(3.0, 2.0);
    cdf.Add(1.0);
    cdf.Add(2.0, 0.5);
    return cdf;
  };
  WeightedCdf non_empty;
  non_empty.Add(2.0);
  non_empty.Add(7.0, 3.0);
  for (const WeightedCdf& receiver : {WeightedCdf(), non_empty}) {
    WeightedCdf copied = receiver;
    const WeightedCdf copy_source = source();
    copied.Merge(copy_source);
    WeightedCdf moved = receiver;
    WeightedCdf from = source();
    EXPECT_EQ(from.total_weight(), 3.5);  // sorts the source first
    moved.Merge(std::move(from));
    EXPECT_TRUE(from.empty());
    EXPECT_EQ(from.sample_count(), 0);
    EXPECT_EQ(from.total_weight(), 0.0);
    EXPECT_EQ(moved.sorted_samples(), copied.sorted_samples());
    EXPECT_EQ(moved.total_weight(), copied.total_weight());
    // The merged distribution keeps working after further samples.
    moved.Add(0.5);
    copied.Add(0.5);
    EXPECT_EQ(moved.FractionAtOrBelow(1.0), copied.FractionAtOrBelow(1.0));
    EXPECT_EQ(moved.sorted_samples(), copied.sorted_samples());
  }
}

TEST(Histogram, LinearBuckets) {
  Histogram h = Histogram::Linear(0, 10, 5);
  h.Add(-1);   // underflow
  h.Add(0.5);  // [0,2)
  h.Add(9.9);  // [8,10)
  h.Add(10);   // overflow (>= last bound)
  EXPECT_EQ(h.total_weight(), 4.0);
  EXPECT_EQ(h.bucket_weight(0), 1.0);
  EXPECT_EQ(h.bucket_weight(1), 1.0);
  EXPECT_EQ(h.bucket_weight(5), 1.0);
  EXPECT_EQ(h.bucket_weight(6), 1.0);
}

TEST(Histogram, ExponentialBuckets) {
  Histogram h = Histogram::Exponential(1, 2, 4);  // bounds 1,2,4,8,16
  h.Add(3);
  h.Add(3);
  h.Add(20);
  EXPECT_EQ(h.bucket_weight(2), 2.0);  // [2,4)
  EXPECT_EQ(h.bucket_weight(5), 1.0);  // overflow
}

TEST(Histogram, WeightedAdds) {
  Histogram h = Histogram::Linear(0, 4, 2);
  h.Add(1.0, 5.0);
  EXPECT_EQ(h.total_weight(), 5.0);
  EXPECT_EQ(h.bucket_weight(1), 5.0);
}

TEST(Histogram, CumulativeFractionInterpolates) {
  Histogram h = Histogram::Linear(0, 10, 10);
  for (int i = 0; i < 10; ++i) {
    h.Add(i + 0.5);
  }
  EXPECT_NEAR(h.CumulativeFraction(5.0), 0.5, 0.05);
  EXPECT_EQ(h.CumulativeFraction(-1.0), 0.0);
  EXPECT_NEAR(h.CumulativeFraction(10.0), 1.0, 1e-12);
}

TEST(Histogram, BucketLabels) {
  Histogram h = Histogram::Linear(0, 10, 2);
  EXPECT_EQ(h.BucketLabel(0), "(-inf, 0)");
  EXPECT_EQ(h.BucketLabel(1), "[0, 5)");
  EXPECT_EQ(h.BucketLabel(2), "[5, 10)");
  EXPECT_EQ(h.BucketLabel(3), "[10, +inf)");
}

TEST(FormatBytes, Units) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(4096), "4.0 KB");
  EXPECT_EQ(FormatBytes(400 * 1024), "400.0 KB");
  EXPECT_EQ(FormatBytes(16.0 * 1024 * 1024), "16.0 MB");
  EXPECT_EQ(FormatBytes(2.0 * 1024 * 1024 * 1024), "2.0 GB");
}

TEST(FormatPercent, Decimals) {
  EXPECT_EQ(FormatPercent(0.576), "57.6%");
  EXPECT_EQ(FormatPercent(0.5, 0), "50%");
  EXPECT_EQ(FormatPercent(1.0, 0), "100%");
}

}  // namespace
}  // namespace bsdtrace
