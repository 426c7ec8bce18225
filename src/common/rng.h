// Deterministic random number generation.
//
// All stochastic components (trace generator, tie-breaking, fake LLM) draw
// from Rng so that a (seed, parameters) pair fully determines a workload.
// xoshiro256** is small, fast, and has well-understood statistical quality.
//
// A weighted draw is defined by its subtractive scan: r = uniform() * total,
// then the weights are subtracted from r in index order until it goes
// negative. Trace bytes depend on every index the scan picks. A weight
// vector drawn from many times goes into a WeightedTable, whose draw
// binary-searches the running sums instead. Rounding can put the scan on
// the other side of a sum only when r lies within a proved bound of it, and
// there the table runs the scan itself, so it returns the scan's index
// every time.
#pragma once

#include <cstdint>
#include <vector>

namespace aimetro {

/// A fixed weight vector prepared for many draws: its running sums in index
/// order, computed once, so a draw costs a binary search, not a scan.
class WeightedTable {
 public:
  /// Requires what Rng::weighted_index does: non-empty, non-negative, at
  /// least one positive.
  explicit WeightedTable(std::vector<double> weights);

  /// The weights summed in index order: the scan's total.
  double total() const { return prefix_.back(); }

  /// The index the subtractive scan picks for the point r: the first i at
  /// which r - w[0] - ... - w[i], rounded after every subtraction, is
  /// negative, or the last index if none is.
  std::size_t scan(double r) const;

  /// scan(r), found as the first running sum above r. When r lies within
  /// the rounding margin of that sum or of the one before it, this is
  /// scan(r) itself.
  std::size_t find(double r) const;

 private:
  std::vector<double> weights_;
  std::vector<double> prefix_;  // prefix_[i] = prefix_[i - 1] + weights_[i]
  double margin_ = 0.0;
};

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

  /// Sample an index from non-negative weights (at least one positive) by
  /// the subtractive scan.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// The same draw from a prepared table: one uniform, and exactly the
  /// index weighted_index(<the table's weights>) would return.
  std::size_t weighted_index(const WeightedTable& table);

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
