#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"

namespace aimetro {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

void Rng::reseed(std::uint64_t seed) {
  // Expand the seed through SplitMix64 as recommended by the xoshiro authors.
  std::uint64_t s = seed;
  for (auto& word : s_) {
    s = splitmix64(s);
    word = s;
  }
  // Avoid the all-zero state (cannot occur from splitmix, but be safe).
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  AIM_CHECK_MSG(lo <= hi, "uniform_int: lo=" << lo << " hi=" << hi);
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next());  // full 64-bit
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = (~std::uint64_t{0}) - (~std::uint64_t{0}) % range;
  std::uint64_t v = next();
  while (v >= limit) v = next();
  return lo + static_cast<std::int64_t>(v % range);
}

double Rng::uniform() {
  // 53 random mantissa bits -> uniform in [0,1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::normal(double mean, double stddev) {
  // Box-Muller; draw both uniforms every call for deterministic stream shape.
  double u1 = uniform();
  const double u2 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

std::int64_t Rng::poisson(double lambda) {
  AIM_CHECK(lambda >= 0.0);
  if (lambda == 0.0) return 0;
  if (lambda < 30.0) {
    // Knuth inversion.
    const double l = std::exp(-lambda);
    std::int64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform();
    } while (p > l);
    return k - 1;
  }
  // Normal approximation with continuity correction.
  const double v = normal(lambda, std::sqrt(lambda));
  return std::max<std::int64_t>(0, static_cast<std::int64_t>(std::lround(v)));
}

WeightedTable::WeightedTable(std::vector<double> weights)
    : weights_(std::move(weights)) {
  AIM_CHECK(!weights_.empty());
  prefix_.reserve(weights_.size());
  double total = 0.0;
  for (double w : weights_) {
    AIM_CHECK(w >= 0.0);
    total += w;
    prefix_.push_back(total);
  }
  AIM_CHECK_MSG(total > 0.0, "weighted_index: all weights are zero");
  // The rounding bound, with u = 2^-53 and n weights. Each rounded
  // addition or subtraction errs by at most u times its result, and one
  // with a subnormal result is exact. Running sum i has i rounded
  // additions, each result at most the total, so it differs from the exact
  // prefix sum by at most i*u*total. For r in [0, total), every exact
  // difference the scan rounds is at most twice the total in magnitude, so
  // its remainder after i + 1 subtractions differs from r minus the exact
  // prefix sum by at most 2(i + 1)*u*total. So when r is more than
  // 3n*u*total from running sum i, the scan's remainder there has the sign
  // of r minus that sum. The margin is 8n*u*total, which also covers the
  // rounding of the margin and of the differences find() compares with it;
  // the added subnormal step covers a product that underflows.
  margin_ = total * (static_cast<double>(weights_.size()) * 0x1p-50) +
            std::numeric_limits<double>::denorm_min();
}

std::size_t WeightedTable::scan(double r) const {
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    r -= weights_[i];
    if (r < 0.0) return i;
  }
  return weights_.size() - 1;
}

std::size_t WeightedTable::find(double r) const {
  // Running sums and scan remainders are both monotone, so the scan picks
  // index j when its remainder is still >= 0 after j subtractions and
  // negative after j + 1; the last index needs only the first.
  const std::size_t n = prefix_.size();
  const std::size_t j = static_cast<std::size_t>(
      std::upper_bound(prefix_.begin(), prefix_.end(), r) - prefix_.begin());
  if (j < n && (j == 0 || r - prefix_[j - 1] >= margin_) &&
      (j + 1 == n || prefix_[j] - r > margin_)) {
    return j;
  }
  return scan(r);
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  const WeightedTable table(weights);
  return table.scan(uniform() * table.total());
}

std::size_t Rng::weighted_index(const WeightedTable& table) {
  return table.find(uniform() * table.total());
}

}  // namespace aimetro
