#include "common/stats.h"

#include "common/check.h"

namespace aimetro {

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
