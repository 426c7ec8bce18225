// Dense uniform-grid index over agent positions.
//
// The dependency graph re-examines an agent's relationships against "any
// other relevant agents" (§3.3) after each step; the index turns that from
// O(n) into a local cell-box probe. query_box returns everything within a
// Chebyshev box, which is a superset of the Euclidean, Manhattan and
// Chebyshev balls of the same radius — callers apply their exact metric on
// the candidates, keeping the index metric-agnostic.
//
// Why the probe is bounded by the occupied extent: the scoreboard's
// blocking-radius box grows linearly with how far agents run ahead of the
// slowest one, so its cell count grows quadratically with out-of-order
// lag — on a full SmallVille day a probe box averages ~100 cells and
// reaches thousands, against a map of a few hundred cells holding at most
// 25 agents. Every probe is therefore clamped to the bounding box of the
// cells agents have occupied, and visits at most min(box, occupied extent)
// cells, each by array index.
//
// Layout: one bucket per cell in a row-major grid. The bounds are
// grow-only: they cover every cell an agent has ever occupied (a removal
// never shrinks them). bulk_insert sizes the grid to its items once;
// later growth past the allocated grid re-lays it out with a quarter of
// its extent as slack on each side that grows (geometric growth), so a
// population spreading cell by cell re-lays out O(log extent) times.
// Growth past kMaxCells check-fails with the extent in the message (an
// agent far outside its world is a bug, not a reason to allocate
// gigabytes of empty buckets).
//
// Hot-path design: buckets store (id, pos) entries so a box query never
// touches the id->pos hash map, and query_box_into appends into a
// caller-owned buffer so steady-state queries allocate nothing.
#pragma once

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace aimetro::world {

class SpatialIndex {
 public:
  /// Largest grid (allocated cells) the index may lay out: 2^23 cells,
  /// about 200 MB of empty buckets — 3.7x the 100k-agent metro_ville
  /// world at the scoreboard's 5-unit cells.
  static constexpr std::int64_t kMaxCells = std::int64_t{1} << 23;

  explicit SpatialIndex(double cell_size) : cell_size_(cell_size) {
    AIM_CHECK(cell_size > 0.0);
  }

  void insert(AgentId id, Pos pos);
  /// Insert every (id, pos) pair at once (ids must be distinct and not
  /// yet indexed). Sizes the grid to cover the items (and anything
  /// already indexed) in one layout, and reserves the id map up front.
  void bulk_insert(const std::vector<std::pair<AgentId, Pos>>& items);
  /// No-op if absent.
  void remove(AgentId id);
  /// Insert-or-move.
  void update(AgentId id, Pos pos);
  bool contains(AgentId id) const { return positions_.count(id) > 0; }
  Pos position(AgentId id) const;
  std::size_t size() const { return positions_.size(); }

  /// All agents with |dx| <= half_extent and |dy| <= half_extent from
  /// `center` (cell-rounded superset; exact box filter applied).
  /// Deterministic order (sorted by id).
  std::vector<AgentId> query_box(Pos center, double half_extent) const;

  /// query_box into a caller-owned buffer: `out` is cleared, filled with
  /// the sorted matches, and keeps its capacity across calls — the
  /// allocation-free form for per-commit hot paths.
  void query_box_into(Pos center, double half_extent,
                      std::vector<AgentId>* out) const;

  /// Agents within Euclidean distance `radius` of `center`, sorted by id.
  std::vector<AgentId> query_radius(Pos center, double radius) const;

 private:
  using Cell = Tile;

  struct Entry {
    AgentId id;
    Pos pos;
  };

  /// Inclusive cell rectangle; empty while lo > hi.
  struct CellBox {
    Cell lo{0, 0};
    Cell hi{-1, -1};
    bool empty() const { return lo.x > hi.x || lo.y > hi.y; }
    bool contains(Cell c) const {
      return c.x >= lo.x && c.x <= hi.x && c.y >= lo.y && c.y <= hi.y;
    }
    CellBox including(Cell c) const;
    std::int64_t cols() const { return std::int64_t{hi.x} - lo.x + 1; }
    std::int64_t rows() const { return std::int64_t{hi.y} - lo.y + 1; }
    bool within_cap() const {
      return cols() <= kMaxCells && rows() <= kMaxCells &&
             cols() * rows() <= kMaxCells;
    }
  };

  Cell cell_of(Pos p) const {
    return Cell{static_cast<std::int32_t>(std::floor(p.x / cell_size_)),
                static_cast<std::int32_t>(std::floor(p.y / cell_size_))};
  }
  /// The bucket of `c`, which must lie inside the allocated grid.
  std::vector<Entry>& bucket(Cell c);
  /// The bucket of `c`, growing the grid and the occupied bounds first.
  std::vector<Entry>& occupy(Cell c);
  /// Re-lay the buckets out over `grid` (a superset of the current grid).
  void relayout(const CellBox& grid);

  double cell_size_;
  std::unordered_map<AgentId, Pos> positions_;
  /// Grow-only bounding box of every cell ever occupied; probes clamp
  /// to it.
  CellBox occupied_;
  /// Allocated grid (a superset of occupied_) and its row-major buckets.
  CellBox grid_;
  std::vector<std::vector<Entry>> cells_;
};

}  // namespace aimetro::world
