#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace cloudcache {

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Numerically stable over millions of samples; used for per-query response
/// time and cost statistics in the simulator.
class RunningStats {
 public:
  /// Adds one observation.
  void Add(double x);

  /// Merges another accumulator into this one (parallel sweeps).
  void Merge(const RunningStats& other);

  int64_t count() const { return count_; }
  /// Mean of the observations; 0 if empty.
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 with fewer than two observations.
  double variance() const;
  /// sqrt(variance()).
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Raw accumulator fields for checkpointing: m2 is not derivable from
  /// variance() below two samples, and min/max sit at ±inf while empty, so
  /// an exact restore needs the internals rather than the public views.
  double raw_mean() const { return mean_; }
  double raw_m2() const { return m2_; }
  double raw_min() const { return min_; }
  double raw_max() const { return max_; }
  void RestoreRaw(int64_t count, double mean, double m2, double sum,
                  double min, double max) {
    count_ = count;
    mean_ = mean;
    m2_ = m2;
    sum_ = sum;
    min_ = min;
    max_ = max;
  }

 private:
  int64_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double sum_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// A (time, value) series bounded to `capacity` points, for run timelines.
///
/// Every offered point is kept until the series is full. A full series
/// then keeps every other point and doubles its own stride: from then on
/// it keeps only offered points whose ordinal is a multiple of
/// 2^stride_level(). The first point and the newest offered point are
/// always kept, so a timeline of any run length costs O(capacity) memory
/// and stays evenly spaced by offer count.
class TimeSeries {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  TimeSeries() : TimeSeries(kDefaultCapacity) {}
  /// `capacity` must be at least 2.
  explicit TimeSeries(size_t capacity);

  /// Offers a point; times must be non-decreasing.
  void Add(double time, double value);

  size_t size() const { return times_.size(); }
  size_t capacity() const { return capacity_; }
  const std::vector<double>& times() const { return times_; }
  const std::vector<double>& values() const { return values_; }
  /// log2 of the stride between kept points, in offered points.
  uint32_t stride_level() const { return stride_level_; }
  /// Points offered so far, kept or not.
  uint64_t offered() const { return offered_; }

  /// Last value, or 0 if empty.
  double Last() const { return values_.empty() ? 0.0 : values_.back(); }

  /// At most `max_points` evenly-spaced-by-index points, keeping first and
  /// last. Returns the whole series if it is already small enough.
  TimeSeries Downsample(size_t max_points) const;

  /// Replaces the whole series for checkpoint restore. Returns false, and
  /// leaves the series as it was, unless the parts are a state this series
  /// could have reached: equal-length vectors within capacity, and exactly
  /// the points `offered` offers at `stride_level` keep.
  bool RestoreRaw(std::vector<double> times, std::vector<double> values,
                  uint32_t stride_level, uint64_t offered);

 private:
  /// Whether the point offered at `ordinal` is on the current stride.
  bool OnStride(uint64_t ordinal) const {
    return (ordinal & ((uint64_t{1} << stride_level_) - 1)) == 0;
  }
  /// Keeps every other point and doubles the stride.
  void Decimate();

  size_t capacity_;
  uint32_t stride_level_ = 0;
  uint64_t offered_ = 0;
  std::vector<double> times_;
  std::vector<double> values_;
};

}  // namespace cloudcache
