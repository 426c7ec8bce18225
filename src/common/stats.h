// Streaming statistics used by the serving-engine metrics (means and
// time-weighted averages such as "average number of outstanding LLM
// requests").
#pragma once

#include <cstdint>

#include "common/types.h"

namespace aimetro {

/// Welford streaming mean/variance plus min/max.
class RunningStat {
 public:
  void add(double x);
  std::int64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  void merge(const RunningStat& other);

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Time-weighted average of a piecewise-constant signal, e.g. the number of
/// outstanding LLM requests over virtual time. This is the metric the paper
/// calls "achieved parallelism" (§4.2).
class TimeWeightedStat {
 public:
  /// Record that the signal changed to `value` at time `t`. Times must be
  /// non-decreasing.
  void set(SimTime t, double value);
  /// Average over [first_set_time, t_end]; requires at least one set().
  double average_until(SimTime t_end) const;
  double current() const { return value_; }
  SimTime first_time() const { return first_; }

 private:
  bool started_ = false;
  SimTime first_ = 0;
  SimTime last_ = 0;
  double value_ = 0.0;
  double weighted_sum_ = 0.0;  // integral of value dt, microsecond units
};

}  // namespace aimetro
