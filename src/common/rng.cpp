#include "common/rng.h"

#include <algorithm>
#include <cmath>

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

double Rng::weight_total(const std::vector<double>& weights) {
  AIM_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    AIM_CHECK(w >= 0.0);
    total += w;
  }
  AIM_CHECK_MSG(total > 0.0, "weighted_index: all weights are zero");
  return total;
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  return weighted_index(weights, weight_total(weights));
}

std::size_t Rng::weighted_index(const std::vector<double>& weights,
                                double total) {
  AIM_CHECK(!weights.empty() && total > 0.0);
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace aimetro
