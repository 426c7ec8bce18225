// Rectangular region partition for the sharded world (the spatial half
// of the boundary-lag protocol).
//
// The world is cut into `shards` vertical strips spanning the x-range of
// the initial population. Every agent has exactly one home strip (the
// strip containing its position); probes and commits whose influence box
// stays inside one strip can be answered — and synchronized — entirely
// within that strip. A box that straddles a boundary maps to the
// contiguous strip span it overlaps, which is exactly the set of shards
// that must reconcile (see "Sharded world" in docs/ARCHITECTURE.md).
//
// Two representations coexist:
//   - equal-width (the historical default): strip boundaries at
//     x_min + k * width/shards, classified with one floor division;
//   - arbitrary sorted cuts: interior boundaries anywhere in
//     [x_min, x_max], classified with a binary search. Built from an
//     agent-position histogram (equal_population — every strip holds the
//     same share of agents; see "Adaptive partitioning" in
//     docs/ARCHITECTURE.md).
// Both use the same half-open convention (a position exactly on a
// boundary belongs to the right strip). A partition is fixed for the
// whole run.
//
// Positions outside [x_min, x_max] clamp to the edge strips, so the
// partition stays total as agents wander: shard_of is defined for every
// Pos and span_of_box for every box.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace aimetro::world {

/// How a partition's boundaries are initially placed.
///  - kEqualWidth: equal-width strips over the x-extent (the historical
///    construction; ignores where the agents actually are).
///  - kEqualPopulation: boundaries at population quantiles of the initial
///    agent x-positions, so every strip starts with the same agent share.
enum class PartitionKind : std::uint8_t { kEqualWidth, kEqualPopulation };

class RegionPartition {
 public:
  /// Contiguous inclusive strip range [lo, hi].
  struct Span {
    std::int32_t lo = 0;
    std::int32_t hi = 0;
    bool single() const { return lo == hi; }
  };

  /// `shards` equal-width strips over [x_min, x_max]. A degenerate range
  /// (x_max <= x_min) collapses every position into strip 0.
  RegionPartition(std::int32_t shards, double x_min, double x_max)
      : shards_(shards), x_min_(x_min), x_max_(x_max) {
    AIM_CHECK(shards >= 1);
    const double width = x_max - x_min;
    strip_width_ = width > 0.0 ? width / static_cast<double>(shards) : 0.0;
  }

  /// cuts.size() + 1 strips over [x_min, x_max] with the given interior
  /// boundaries (must be sorted and inside the range). Equal cuts are
  /// legal: the strip between them is empty, never home to any position.
  RegionPartition(std::vector<double> cuts, double x_min, double x_max)
      : shards_(static_cast<std::int32_t>(cuts.size()) + 1),
        x_min_(x_min),
        x_max_(x_max),
        cuts_(std::move(cuts)) {
    AIM_CHECK(x_max_ >= x_min_);
    for (std::size_t k = 0; k < cuts_.size(); ++k) {
      AIM_CHECK_MSG(cuts_[k] >= x_min_ && cuts_[k] <= x_max_,
                    "partition cut outside [x_min, x_max]");
      AIM_CHECK_MSG(k == 0 || cuts_[k - 1] <= cuts_[k],
                    "partition cuts must be sorted");
    }
  }

  /// Boundaries at the population quantiles of `xs` (the agent
  /// x-positions; consumed). Strip k gets agents of rank [k*n/shards,
  /// (k+1)*n/shards), with each cut at the midpoint between the
  /// straddling ranks — a position-histogram build, O(n log n).
  static RegionPartition equal_population(std::int32_t shards,
                                          std::vector<double> xs) {
    AIM_CHECK(shards >= 1);
    AIM_CHECK(!xs.empty());
    std::sort(xs.begin(), xs.end());
    const double x_min = xs.front();
    const double x_max = xs.back();
    if (shards == 1 || x_max <= x_min) {
      return RegionPartition(shards, x_min, x_max);
    }
    const std::size_t n = xs.size();
    std::vector<double> cuts;
    cuts.reserve(static_cast<std::size_t>(shards) - 1);
    for (std::int32_t k = 1; k < shards; ++k) {
      const std::size_t r = std::clamp<std::size_t>(
          n * static_cast<std::size_t>(k) / static_cast<std::size_t>(shards),
          1, n - 1);
      double cut = 0.5 * (xs[r - 1] + xs[r]);
      // Duplicate x values can make midpoints regress; empty strips are
      // fine, unsorted cuts are not.
      if (!cuts.empty()) cut = std::max(cut, cuts.back());
      cuts.push_back(cut);
    }
    return RegionPartition(std::move(cuts), x_min, x_max);
  }

  std::int32_t shards() const { return shards_; }
  double x_min() const { return x_min_; }
  double x_max() const { return x_max_; }
  /// True for the equal-width representation (boundaries are implicit).
  bool uniform() const { return cuts_.empty(); }

  /// The k-th boundary position, k in [0, shards]: boundary(0) = x_min,
  /// boundary(shards) = x_max, interior boundaries between strips k-1
  /// and k.
  double boundary(std::int32_t k) const {
    AIM_CHECK(k >= 0 && k <= shards_);
    if (k == 0) return x_min_;
    if (k == shards_) return x_max_;
    if (!cuts_.empty()) return cuts_[static_cast<std::size_t>(k) - 1];
    return strip_width_ > 0.0 ? x_min_ + strip_width_ * k : x_min_;
  }

  /// Home strip of a position, clamped to [0, shards-1].
  std::int32_t shard_of(Pos p) const {
    if (!cuts_.empty()) {
      if (std::isnan(p.x)) return 0;  // match the equal-width clamp
      const auto it = std::upper_bound(cuts_.begin(), cuts_.end(), p.x);
      return static_cast<std::int32_t>(it - cuts_.begin());
    }
    if (strip_width_ <= 0.0) return 0;
    const double raw = std::floor((p.x - x_min_) / strip_width_);
    return clamp_strip(raw);
  }

  /// The inclusive strip range overlapped by the Chebyshev box of
  /// half-extent `radius` around `center` — the shards a probe (or a
  /// commit's influence region) must visit.
  Span span_of_box(Pos center, double radius) const {
    AIM_CHECK(radius >= 0.0);
    return Span{shard_of(Pos{center.x - radius, center.y}),
                shard_of(Pos{center.x + radius, center.y})};
  }

 private:
  std::int32_t clamp_strip(double raw) const {
    if (!(raw >= 0.0)) return 0;  // also catches NaN
    if (raw >= static_cast<double>(shards_)) return shards_ - 1;
    return static_cast<std::int32_t>(raw);
  }

  std::int32_t shards_;
  double x_min_;
  double x_max_;
  double strip_width_ = 0.0;
  /// Interior boundaries (size shards_ - 1) when non-uniform; empty for
  /// the equal-width representation.
  std::vector<double> cuts_;
};

}  // namespace aimetro::world
