// Deterministic random number generation.
//
// All stochastic components (trace generator, tie-breaking, fake LLM) draw
// from Rng so that a (seed, parameters) pair fully determines a workload.
// xoshiro256** is small, fast, and has well-understood statistical quality.
#pragma once

#include <cstdint>
#include <vector>

namespace aimetro {

/// Deterministic xoshiro256** generator with convenience distributions.
/// Satisfies UniformRandomBitGenerator so it also plugs into <random>.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() { return next(); }

  std::uint64_t next();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Normal via Box-Muller (no state caching; deterministic ordering).
  double normal(double mean, double stddev);

  /// Poisson via inversion for small lambda, normal approximation for large.
  std::int64_t poisson(double lambda);

  /// Sample an index from non-negative weights (at least one positive).
  std::size_t weighted_index(const std::vector<double>& weights);

  /// The same draw, given total = weight_total(weights) from the caller,
  /// so a loop drawing from one vector sums and checks it only once.
  /// Returns exactly the index weighted_index(weights) would.
  std::size_t weighted_index(const std::vector<double>& weights,
                             double total);

  /// Sum of `weights` in index order, after checking what weighted_index
  /// requires: non-empty, non-negative, at least one positive.
  static double weight_total(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4] = {};
};

/// SplitMix64, used for seeding and stateless hashing of small keys.
std::uint64_t splitmix64(std::uint64_t x);

}  // namespace aimetro
