// Streaming statistics, histograms, and weighted empirical CDFs.
//
// These are the measurement primitives behind every table and figure in the
// paper: Table IV needs means and standard deviations over intervals, and
// Figures 1-4 are cumulative distributions weighted either by count ("percent
// of files") or by a secondary weight ("percent of bytes").

#ifndef BSDTRACE_SRC_UTIL_STATS_H_
#define BSDTRACE_SRC_UTIL_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bsdtrace {

// Single-pass mean / variance / extrema (Welford's algorithm).
class RunningStats {
 public:
  // Inline: the cache simulator calls this once per eviction.
  void Add(double x) {
    if (count_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = x < min_ ? x : min_;
      max_ = x > max_ ? x : max_;
    }
    ++count_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  // Population variance; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

  // Merges another accumulator into this one (parallel reduction).
  void Merge(const RunningStats& other);

  // Adds n samples of 0.0 (n <= 0 adds none).  The first kExactZeros are
  // n calls of Add(0.0), bit for bit; the rest merge as one block of zeros
  // in closed form, so a gap of 2^40 empty intervals costs no more than one
  // of 2^20.  Every analysis engine fills its gaps through this one helper,
  // so they agree bit for bit on any gap.
  static constexpr int64_t kExactZeros = int64_t{1} << 20;
  void AddZeros(int64_t n);

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// An empirical distribution built from weighted samples.  Supports the two
// query directions the paper uses: "what fraction of weight lies at or below
// x" (reading a CDF curve) and "what x bounds a given fraction" (quantiles).
//
// Samples are buffered and sorted lazily on first query.  Every query —
// including total_weight() and Mean() — is computed over the canonical
// (value, weight)-sorted order, so results depend only on the sample
// multiset, never on insertion order.  That makes Merge() a plain
// concatenation and lets a parallel analysis pass reproduce the serial
// pass bit for bit.
class WeightedCdf {
 public:
  // Adds a sample with weight 1.
  void Add(double value) { Add(value, 1.0); }
  // Adds a sample with the given non-negative weight.
  void Add(double value, double weight);

  // Absorbs all of other's samples (parallel reduction).
  void Merge(const WeightedCdf& other);
  // The same, leaving `other` empty: an empty receiver adopts other's
  // samples instead of copying them.
  void Merge(WeightedCdf&& other);

  int64_t sample_count() const { return static_cast<int64_t>(samples_.size()); }
  double total_weight() const;
  bool empty() const { return samples_.empty(); }

  // Fraction of total weight with value <= x, in [0, 1].
  double FractionAtOrBelow(double x) const;

  // Smallest sample value v such that FractionAtOrBelow(v) >= q.
  // q must be in [0, 1]; returns the max sample for q = 1.
  double Quantile(double q) const;

  double MinValue() const;
  double MaxValue() const;
  // Weighted mean of the samples.
  double Mean() const;

  // Evaluates the CDF at each of the given x positions (for plotting).
  std::vector<double> Evaluate(const std::vector<double>& xs) const;

  // The samples in canonical sorted order — exact-comparison hook for the
  // parallel/serial parity tests.
  const std::vector<std::pair<double, double>>& sorted_samples() const;

 private:
  void EnsureSorted() const;

  mutable std::vector<std::pair<double, double>> samples_;  // (value, weight)
  mutable std::vector<double> cumulative_;                  // prefix sums of weight
  mutable bool sorted_ = false;
};

// Fixed-boundary histogram.  Bucket i covers [bounds[i-1], bounds[i]); an
// underflow bucket covers (-inf, bounds[0]) and an overflow bucket
// [bounds.back(), +inf).  Used for interval-based measurements and reporting.
class Histogram {
 public:
  // Bounds must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> bounds);

  // Convenience factories.
  static Histogram Linear(double lo, double hi, size_t buckets);
  static Histogram Exponential(double first_bound, double factor, size_t buckets);

  void Add(double x) { Add(x, 1.0); }
  void Add(double x, double weight);

  size_t bucket_count() const { return counts_.size(); }  // includes under/overflow
  double bucket_weight(size_t i) const { return counts_[i]; }
  double total_weight() const { return total_; }
  // Bucket label like "[4096, 8192)"; index as for bucket_weight.
  std::string BucketLabel(size_t i) const;

  // Fraction of weight at or below x (linear interpolation within buckets).
  double CumulativeFraction(double x) const;

 private:
  std::vector<double> bounds_;
  std::vector<double> counts_;  // size bounds_.size() + 1
  double total_ = 0.0;
};

// Formats a byte count with binary units, e.g. "384 KB", "4.0 MB".
std::string FormatBytes(double bytes);

// Formats a fraction as a percentage with the given precision, e.g. "57.6%".
std::string FormatPercent(double fraction, int decimals = 1);

}  // namespace bsdtrace

#endif  // BSDTRACE_SRC_UTIL_STATS_H_
