#include "src/util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <utility>

namespace bsdtrace {

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::AddZeros(int64_t n) {
  const int64_t exact = std::min(n, kExactZeros);
  for (int64_t i = 0; i < exact; ++i) {
    Add(0.0);
  }
  if (n > exact) {
    RunningStats block;  // n - exact zeros: mean, m2, min, max and sum all 0
    block.count_ = n - exact;
    Merge(block);
  }
}

void WeightedCdf::Add(double value, double weight) {
  assert(weight >= 0.0);
  if (weight == 0.0) {
    return;
  }
  samples_.emplace_back(value, weight);
  sorted_ = false;
}

void WeightedCdf::Merge(const WeightedCdf& other) {
  if (other.samples_.empty()) {
    return;
  }
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  sorted_ = false;
}

void WeightedCdf::Merge(WeightedCdf&& other) {
  if (samples_.empty()) {
    std::swap(*this, other);
  } else {
    Merge(other);
  }
  other = WeightedCdf();
}

void WeightedCdf::EnsureSorted() const {
  if (sorted_) {
    return;
  }
  // Ties on value are broken by weight so the prefix sums — and therefore
  // every query — are a pure function of the sample multiset.
  std::sort(samples_.begin(), samples_.end());
  cumulative_.resize(samples_.size());
  double running = 0.0;
  for (size_t i = 0; i < samples_.size(); ++i) {
    running += samples_[i].second;
    cumulative_[i] = running;
  }
  sorted_ = true;
}

double WeightedCdf::total_weight() const {
  if (samples_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  return cumulative_.back();
}

const std::vector<std::pair<double, double>>& WeightedCdf::sorted_samples() const {
  EnsureSorted();
  return samples_;
}

double WeightedCdf::FractionAtOrBelow(double x) const {
  if (samples_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  const double total = cumulative_.back();
  if (total <= 0.0) {
    return 0.0;
  }
  // Last index with value <= x.
  auto it = std::upper_bound(samples_.begin(), samples_.end(), x,
                             [](double v, const auto& s) { return v < s.first; });
  if (it == samples_.begin()) {
    return 0.0;
  }
  const size_t idx = static_cast<size_t>(it - samples_.begin()) - 1;
  return cumulative_[idx] / total;
}

double WeightedCdf::Quantile(double q) const {
  assert(!samples_.empty());
  assert(q >= 0.0 && q <= 1.0);
  EnsureSorted();
  const double target = q * cumulative_.back();
  auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), target);
  if (it == cumulative_.end()) {
    return samples_.back().first;
  }
  return samples_[static_cast<size_t>(it - cumulative_.begin())].first;
}

double WeightedCdf::MinValue() const {
  assert(!samples_.empty());
  EnsureSorted();
  return samples_.front().first;
}

double WeightedCdf::MaxValue() const {
  assert(!samples_.empty());
  EnsureSorted();
  return samples_.back().first;
}

double WeightedCdf::Mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  const double total = cumulative_.back();
  if (total <= 0.0) {
    return 0.0;
  }
  double acc = 0.0;
  for (const auto& [v, w] : samples_) {
    acc += v * w;
  }
  return acc / total;
}

std::vector<double> WeightedCdf::Evaluate(const std::vector<double>& xs) const {
  std::vector<double> out;
  out.reserve(xs.size());
  for (double x : xs) {
    out.push_back(FractionAtOrBelow(x));
  }
  return out;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  assert(!bounds_.empty());
  for (size_t i = 1; i < bounds_.size(); ++i) {
    assert(bounds_[i] > bounds_[i - 1]);
  }
  counts_.assign(bounds_.size() + 1, 0.0);
}

Histogram Histogram::Linear(double lo, double hi, size_t buckets) {
  assert(buckets >= 1 && hi > lo);
  std::vector<double> bounds;
  bounds.reserve(buckets + 1);
  for (size_t i = 0; i <= buckets; ++i) {
    bounds.push_back(lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(buckets));
  }
  return Histogram(std::move(bounds));
}

Histogram Histogram::Exponential(double first_bound, double factor, size_t buckets) {
  assert(buckets >= 1 && first_bound > 0.0 && factor > 1.0);
  std::vector<double> bounds;
  bounds.reserve(buckets + 1);
  double b = first_bound;
  for (size_t i = 0; i <= buckets; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return Histogram(std::move(bounds));
}

void Histogram::Add(double x, double weight) {
  auto it = std::upper_bound(bounds_.begin(), bounds_.end(), x);
  const size_t idx = static_cast<size_t>(it - bounds_.begin());
  counts_[idx] += weight;
  total_ += weight;
}

std::string Histogram::BucketLabel(size_t i) const {
  char buf[64];
  if (i == 0) {
    std::snprintf(buf, sizeof(buf), "(-inf, %g)", bounds_.front());
  } else if (i == counts_.size() - 1) {
    std::snprintf(buf, sizeof(buf), "[%g, +inf)", bounds_.back());
  } else {
    std::snprintf(buf, sizeof(buf), "[%g, %g)", bounds_[i - 1], bounds_[i]);
  }
  return buf;
}

double Histogram::CumulativeFraction(double x) const {
  if (total_ <= 0.0) {
    return 0.0;
  }
  double acc = 0.0;
  // Underflow bucket is entirely below bounds_[0].
  if (x < bounds_.front()) {
    // Cannot interpolate an unbounded bucket; report zero below the range.
    return 0.0;
  }
  acc += counts_[0];
  for (size_t i = 1; i < counts_.size(); ++i) {
    const double lo = bounds_[i - 1];
    const double hi = (i < bounds_.size()) ? bounds_[i] : lo;
    if (i == counts_.size() - 1) {
      // Overflow bucket: include fully only if x is at/above its start.
      if (x >= lo) {
        acc += counts_[i];
      }
      break;
    }
    if (x >= hi) {
      acc += counts_[i];
    } else {
      acc += counts_[i] * (x - lo) / (hi - lo);
      break;
    }
  }
  return acc / total_;
}

std::string FormatBytes(double bytes) {
  char buf[64];
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  int u = 0;
  double v = bytes;
  while (v >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  if (u == 0) {
    std::snprintf(buf, sizeof(buf), "%.0f %s", v, units[u]);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f %s", v, units[u]);
  }
  return buf;
}

std::string FormatPercent(double fraction, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

}  // namespace bsdtrace
