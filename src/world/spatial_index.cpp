#include "world/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace aimetro::world {

namespace {

template <typename Bucket>
void erase_entry(Bucket& bucket, AgentId id) {
  // Bucket order is irrelevant (probes sort their output), so the entry
  // is swapped with the last one and popped.
  const auto it =
      std::find_if(bucket.begin(), bucket.end(),
                   [id](const auto& entry) { return entry.id == id; });
  AIM_CHECK(it != bucket.end());
  *it = bucket.back();
  bucket.pop_back();
}

std::int32_t saturate(std::int64_t v) {
  return static_cast<std::int32_t>(
      std::clamp<std::int64_t>(v, std::numeric_limits<std::int32_t>::min(),
                               std::numeric_limits<std::int32_t>::max()));
}

}  // namespace

SpatialIndex::CellBox SpatialIndex::CellBox::including(Cell c) const {
  if (empty()) return CellBox{c, c};
  return CellBox{Cell{std::min(lo.x, c.x), std::min(lo.y, c.y)},
                 Cell{std::max(hi.x, c.x), std::max(hi.y, c.y)}};
}

std::vector<SpatialIndex::Entry>& SpatialIndex::bucket(Cell c) {
  return cells_[static_cast<std::size_t>(
      (std::int64_t{c.y} - grid_.lo.y) * grid_.cols() + (c.x - grid_.lo.x))];
}

std::vector<SpatialIndex::Entry>& SpatialIndex::occupy(Cell c) {
  if (!grid_.contains(c)) {
    // Each side that must grow moves out to `c` or by a quarter of the
    // grid's extent, whichever is further: a population spreading one
    // cell at a time re-lays out O(log extent) times, and in a bounded
    // world the unused slack stays a fraction of the grid.
    const CellBox exact = grid_.including(c);
    CellBox grown = exact;
    if (!grid_.empty()) {
      const std::int64_t dx = std::max<std::int64_t>(1, grid_.cols() / 4);
      const std::int64_t dy = std::max<std::int64_t>(1, grid_.rows() / 4);
      if (c.x < grid_.lo.x) {
        grown.lo.x = saturate(std::min<std::int64_t>(c.x, grid_.lo.x - dx));
      }
      if (c.x > grid_.hi.x) {
        grown.hi.x = saturate(std::max<std::int64_t>(c.x, grid_.hi.x + dx));
      }
      if (c.y < grid_.lo.y) {
        grown.lo.y = saturate(std::min<std::int64_t>(c.y, grid_.lo.y - dy));
      }
      if (c.y > grid_.hi.y) {
        grown.hi.y = saturate(std::max<std::int64_t>(c.y, grid_.hi.y + dy));
      }
    }
    relayout(grown.within_cap() ? grown : exact);
  }
  occupied_ = occupied_.including(c);
  return bucket(c);
}

void SpatialIndex::relayout(const CellBox& grid) {
  AIM_CHECK_MSG(grid.within_cap(),
                "spatial index extent x in [" << grid.lo.x << ", "
                    << grid.hi.x << "], y in [" << grid.lo.y << ", "
                    << grid.hi.y << "] cells (" << grid.cols() << " x "
                    << grid.rows() << " at cell size " << cell_size_
                    << ") exceeds the cap of " << kMaxCells << " cells");
  std::vector<std::vector<Entry>> cells(
      static_cast<std::size_t>(grid.cols() * grid.rows()));
  if (!grid_.empty()) {
    for (std::int32_t y = grid_.lo.y; y <= grid_.hi.y; ++y) {
      for (std::int32_t x = grid_.lo.x; x <= grid_.hi.x; ++x) {
        cells[static_cast<std::size_t>((std::int64_t{y} - grid.lo.y) *
                                           grid.cols() +
                                       (x - grid.lo.x))] =
            std::move(bucket(Cell{x, y}));
      }
    }
  }
  cells_ = std::move(cells);
  grid_ = grid;
}

void SpatialIndex::insert(AgentId id, Pos pos) {
  AIM_CHECK_MSG(positions_.count(id) == 0, "agent " << id << " already indexed");
  occupy(cell_of(pos)).push_back(Entry{id, pos});
  positions_.emplace(id, pos);
}

void SpatialIndex::bulk_insert(const std::vector<std::pair<AgentId, Pos>>& items) {
  CellBox grid = grid_;
  for (const auto& item : items) grid = grid.including(cell_of(item.second));
  if (grid.lo != grid_.lo || grid.hi != grid_.hi) relayout(grid);
  positions_.reserve(positions_.size() + items.size());
  for (const auto& [id, pos] : items) insert(id, pos);
}

void SpatialIndex::remove(AgentId id) {
  auto it = positions_.find(id);
  if (it == positions_.end()) return;
  erase_entry(bucket(cell_of(it->second)), id);
  positions_.erase(it);
}

void SpatialIndex::update(AgentId id, Pos pos) {
  auto it = positions_.find(id);
  if (it == positions_.end()) {
    insert(id, pos);
    return;
  }
  const Cell old_cell = cell_of(it->second);
  const Cell new_cell = cell_of(pos);
  if (old_cell == new_cell) {
    auto& cell = bucket(old_cell);
    const auto eit =
        std::find_if(cell.begin(), cell.end(),
                     [id](const Entry& e) { return e.id == id; });
    AIM_CHECK(eit != cell.end());
    eit->pos = pos;
  } else {
    // Grow (or check-fail) before touching the old bucket, so a failed
    // move leaves the index as it was.
    auto& dest = occupy(new_cell);
    erase_entry(bucket(old_cell), id);
    dest.push_back(Entry{id, pos});
  }
  it->second = pos;
}

Pos SpatialIndex::position(AgentId id) const {
  auto it = positions_.find(id);
  AIM_CHECK_MSG(it != positions_.end(), "agent " << id << " not indexed");
  return it->second;
}

void SpatialIndex::query_box_into(Pos center, double half_extent,
                                  std::vector<AgentId>* out) const {
  AIM_CHECK(half_extent >= 0.0);
  out->clear();
  if (occupied_.empty()) return;
  // Clamp to the occupied bounds in floating point: a lagging probe's box
  // can be far wider than the world (and than the int32 cell range).
  const double x0 = std::max(std::floor((center.x - half_extent) / cell_size_),
                             static_cast<double>(occupied_.lo.x));
  const double x1 = std::min(std::floor((center.x + half_extent) / cell_size_),
                             static_cast<double>(occupied_.hi.x));
  const double y0 = std::max(std::floor((center.y - half_extent) / cell_size_),
                             static_cast<double>(occupied_.lo.y));
  const double y1 = std::min(std::floor((center.y + half_extent) / cell_size_),
                             static_cast<double>(occupied_.hi.y));
  if (x0 > x1 || y0 > y1) return;
  const auto lo_x = static_cast<std::int32_t>(x0);
  const auto hi_x = static_cast<std::int32_t>(x1);
  const auto stride = static_cast<std::size_t>(grid_.cols());
  for (auto cy = static_cast<std::int32_t>(y0);
       cy <= static_cast<std::int32_t>(y1); ++cy) {
    const std::vector<Entry>* row =
        &cells_[static_cast<std::size_t>(cy - grid_.lo.y) * stride +
                static_cast<std::size_t>(lo_x - grid_.lo.x)];
    for (std::int32_t cx = lo_x; cx <= hi_x; ++cx, ++row) {
      for (const Entry& e : *row) {
        if (std::abs(e.pos.x - center.x) <= half_extent &&
            std::abs(e.pos.y - center.y) <= half_extent) {
          out->push_back(e.id);
        }
      }
    }
  }
  std::sort(out->begin(), out->end());
}

std::vector<AgentId> SpatialIndex::query_box(Pos center,
                                             double half_extent) const {
  std::vector<AgentId> out;
  query_box_into(center, half_extent, &out);
  return out;
}

std::vector<AgentId> SpatialIndex::query_radius(Pos center,
                                                double radius) const {
  std::vector<AgentId> out = query_box(center, radius);
  out.erase(std::remove_if(out.begin(), out.end(),
                           [&](AgentId id) {
                             return euclidean(positions_.at(id), center) >
                                    radius;
                           }),
            out.end());
  return out;
}

}  // namespace aimetro::world
