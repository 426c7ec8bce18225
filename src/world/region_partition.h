// Rectangular region partition for the sharded world (the spatial half
// of the boundary-lag protocol).
//
// The world is cut into `shards` equal-width vertical strips spanning the
// x-range of the initial population, classified with one floor division.
// Every agent has exactly one home strip (the strip containing its
// position); probes and commits whose influence box stays inside one
// strip can be answered — and synchronized — entirely within that strip.
// A box that straddles a boundary maps to the contiguous strip span it
// overlaps, which is exactly the set of shards that must reconcile (see
// "Sharded world" in docs/ARCHITECTURE.md). A position exactly on a
// boundary belongs to the right strip. A partition is fixed for the
// whole run.
//
// Positions outside [x_min, x_max] clamp to the edge strips, so the
// partition stays total as agents wander: shard_of is defined for every
// Pos and span_of_box for every box.
#pragma once

#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "common/types.h"

namespace aimetro::world {

/// Kept only because metro_bench/metro_bench.cpp names both values:
/// strips are always equal-width, and core::Scoreboard and
/// runtime::Engine check-fail on kEqualPopulation.
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
      : shards_(shards), x_min_(x_min) {
    AIM_CHECK(shards >= 1);
    const double width = x_max - x_min;
    strip_width_ = width > 0.0 ? width / static_cast<double>(shards) : 0.0;
  }

  /// Home strip of a position, clamped to [0, shards-1].
  std::int32_t shard_of(Pos p) const {
    if (strip_width_ <= 0.0) return 0;
    const double raw = std::floor((p.x - x_min_) / strip_width_);
    if (!(raw >= 0.0)) return 0;  // also catches NaN
    if (raw >= static_cast<double>(shards_)) return shards_ - 1;
    return static_cast<std::int32_t>(raw);
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
  std::int32_t shards_;
  double x_min_;
  double strip_width_ = 0.0;
};

}  // namespace aimetro::world
