#include "src/util/stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/util/logging.h"

namespace cloudcache {

void RunningStats::Add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const int64_t total = count_ + other.count_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) /
                         static_cast<double>(total);
  mean_ = (mean_ * static_cast<double>(count_) +
           other.mean_ * static_cast<double>(other.count_)) /
          static_cast<double>(total);
  count_ = total;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

TimeSeries::TimeSeries(size_t capacity) : capacity_(capacity) {
  CLOUDCACHE_CHECK_GE(capacity, 2u);
}

void TimeSeries::Add(double time, double value) {
  // Every kept point but the newest is on the stride; an off-stride newest
  // point only stands in for the series' end until the next offer.
  if (!times_.empty() && !OnStride(offered_ - 1)) {
    times_.pop_back();
    values_.pop_back();
  }
  if (times_.size() == capacity_) Decimate();
  times_.push_back(time);
  values_.push_back(value);
  ++offered_;
}

void TimeSeries::Decimate() {
  // Kept point i sits at ordinal i << stride_level_, so the even indices
  // are exactly the ordinals on the doubled stride; index 0 stays first.
  size_t kept = 0;
  for (size_t i = 0; i < times_.size(); i += 2, ++kept) {
    times_[kept] = times_[i];
    values_[kept] = values_[i];
  }
  times_.resize(kept);
  values_.resize(kept);
  ++stride_level_;
}

TimeSeries TimeSeries::Downsample(size_t max_points) const {
  const size_t n = times_.size();
  if (n <= max_points || max_points < 2) return *this;
  TimeSeries out(max_points);
  for (size_t k = 0; k < max_points; ++k) {
    const size_t i = k * (n - 1) / (max_points - 1);
    out.Add(times_[i], values_[i]);
  }
  return out;
}

bool TimeSeries::RestoreRaw(std::vector<double> times,
                            std::vector<double> values, uint32_t stride_level,
                            uint64_t offered) {
  if (times.size() != values.size() || times.size() > capacity_ ||
      stride_level >= 64) {
    return false;
  }
  // `offered` points keep ordinals 0, stride, 2*stride, ... plus the
  // newest, which is off the stride unless it lands on it.
  uint64_t expected = 0;
  if (offered > 0) {
    const uint64_t newest = offered - 1;
    const uint64_t off_stride = newest & ((uint64_t{1} << stride_level) - 1);
    expected = (newest >> stride_level) + 1 + (off_stride != 0 ? 1 : 0);
  }
  if (times.size() != expected) return false;
  times_ = std::move(times);
  values_ = std::move(values);
  stride_level_ = stride_level;
  offered_ = offered;
  return true;
}

}  // namespace cloudcache
