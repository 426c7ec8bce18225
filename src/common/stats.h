// Time-weighted averages used by the serving-engine metrics, such as
// "average number of outstanding LLM requests".
#pragma once

#include "common/types.h"

namespace aimetro {

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

 private:
  bool started_ = false;
  SimTime first_ = 0;
  SimTime last_ = 0;
  double value_ = 0.0;
  double weighted_sum_ = 0.0;  // integral of value dt, microsecond units
};

}  // namespace aimetro
