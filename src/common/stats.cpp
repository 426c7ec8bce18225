#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace aimetro {

void RunningStat::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

void RunningStat::merge(const RunningStat& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_ + other.n_);
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) / n;
  mean_ = (mean_ * static_cast<double>(n_) +
           other.mean_ * static_cast<double>(other.n_)) /
          n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  n_ += other.n_;
}

void TimeWeightedStat::set(SimTime t, double value) {
  if (!started_) {
    started_ = true;
    first_ = last_ = t;
    value_ = value;
    return;
  }
  AIM_CHECK_MSG(t >= last_, "TimeWeightedStat: time went backwards");
  weighted_sum_ += value_ * static_cast<double>(t - last_);
  last_ = t;
  value_ = value;
}

double TimeWeightedStat::average_until(SimTime t_end) const {
  AIM_CHECK(started_);
  AIM_CHECK(t_end >= last_);
  const double total = weighted_sum_ + value_ * static_cast<double>(t_end - last_);
  const double span = static_cast<double>(t_end - first_);
  return span > 0.0 ? total / span : value_;
}

}  // namespace aimetro
