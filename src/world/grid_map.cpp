#include "world/grid_map.h"

#include <algorithm>

#include "common/check.h"
#include "common/strings.h"

namespace aimetro::world {

GridMap::GridMap(std::int32_t width, std::int32_t height)
    : width_(width),
      height_(height),
      segment_stride_(width),
      walkable_(static_cast<std::size_t>(width) * height, true) {
  AIM_CHECK(width > 0 && height > 0);
}

void GridMap::set_walkable(Tile t, bool walkable) {
  AIM_CHECK(in_bounds(t));
  walkable_[idx(t)] = walkable;
}

void GridMap::block_rect(const Rect& r) {
  for (std::int32_t y = r.y0; y <= r.y1; ++y) {
    for (std::int32_t x = r.x0; x <= r.x1; ++x) {
      const Tile t{x, y};
      if (in_bounds(t)) walkable_[idx(t)] = false;
    }
  }
}

std::vector<Tile> GridMap::neighbors(Tile t) const {
  std::vector<Tile> out;
  out.reserve(4);
  const Tile candidates[4] = {
      {t.x + 1, t.y}, {t.x - 1, t.y}, {t.x, t.y + 1}, {t.x, t.y - 1}};
  for (const Tile& c : candidates) {
    if (walkable(c)) out.push_back(c);
  }
  return out;
}

void GridMap::add_arena(std::string name, Rect rect) {
  AIM_CHECK_MSG(arena_index_.count(name) == 0, "duplicate arena " << name);
  arena_index_.emplace(name, arenas_.size());
  arenas_.push_back(Arena{std::move(name), rect});
}

const Arena* GridMap::arena(const std::string& name) const {
  auto it = arena_index_.find(name);
  return it == arena_index_.end() ? nullptr : &arenas_[it->second];
}

void GridMap::add_object(std::string name, Tile tile) {
  AIM_CHECK_MSG(object_index_.count(name) == 0, "duplicate object " << name);
  AIM_CHECK(in_bounds(tile));
  object_index_.emplace(name, objects_.size());
  objects_.push_back(MapObject{std::move(name), tile});
}

const MapObject* GridMap::object(const std::string& name) const {
  auto it = object_index_.find(name);
  return it == object_index_.end() ? nullptr : &objects_[it->second];
}

GridMap GridMap::smallville(std::int32_t n_homes) {
  // The paper describes SmallVille as a 100x140 grid. We lay it out as
  // 140 wide x 100 tall: homes along the top and bottom, public venues in
  // the middle band, and streets everywhere else.
  constexpr std::int32_t kWidth = 140;
  constexpr std::int32_t kHeight = 100;
  GridMap map(kWidth, kHeight);
  AIM_CHECK(n_homes >= 1 && n_homes <= 26);

  // Homes: 8x8 plots spaced along the top (y in [4,11]) and bottom
  // (y in [88,95]) rows, alternating.
  for (std::int32_t i = 0; i < n_homes; ++i) {
    const std::int32_t col = i / 2;
    const std::int32_t x0 = 4 + col * 10;
    const bool top = (i % 2) == 0;
    const std::int32_t y0 = top ? 4 : kHeight - 12;
    const Rect plot{x0, y0, x0 + 7, y0 + 7};
    map.add_arena(strformat("home_%d", i), plot);
    map.add_object(strformat("bed_%d", i), Tile{plot.x0 + 1, plot.y0 + 1});
    map.add_object(strformat("stove_%d", i), Tile{plot.x0 + 5, plot.y0 + 1});
    // Walls around the home with a 2-tile door gap at the street side.
    for (std::int32_t x = plot.x0; x <= plot.x1; ++x) {
      map.set_walkable(Tile{x, top ? plot.y0 : plot.y1}, false);
    }
    const std::int32_t door_x = plot.x0 + 3;
    map.set_walkable(Tile{door_x, top ? plot.y0 : plot.y1}, true);
    map.set_walkable(Tile{door_x + 1, top ? plot.y0 : plot.y1}, true);
  }

  // Public venues in the central band.
  const struct {
    const char* name;
    Rect rect;
    const char* obj;
  } venues[] = {
      {"cafe", Rect{10, 40, 25, 55}, "espresso_machine"},
      {"supply_store", Rect{40, 40, 55, 55}, "shelf"},
      {"college", Rect{70, 38, 95, 58}, "lectern"},
      {"bar", Rect{105, 40, 120, 55}, "counter"},
      {"park", Rect{30, 64, 110, 80}, "fountain"},
  };
  for (const auto& v : venues) {
    map.add_arena(v.name, v.rect);
    map.add_object(v.obj, v.rect.center());
  }

  // A couple of unwalkable wall segments to force street routing.
  map.block_rect(Rect{0, 30, 60, 30});
  map.block_rect(Rect{66, 30, kWidth - 1, 30});
  map.block_rect(Rect{0, 62, 24, 62});
  map.block_rect(Rect{30, 62, kWidth - 1, 62});

  return map;
}

GridMap GridMap::plaza(std::int32_t n_homes) {
  constexpr std::int32_t kSize = 80;
  GridMap map(kSize, kSize);
  AIM_CHECK(n_homes >= 1 && n_homes <= 14);

  // Homes: 8x8 plots along the top and bottom edges, alternating.
  for (std::int32_t i = 0; i < n_homes; ++i) {
    const std::int32_t col = i / 2;
    const std::int32_t x0 = 3 + col * 11;
    const bool top = (i % 2) == 0;
    const std::int32_t y0 = top ? 2 : kSize - 10;
    const Rect plot{x0, y0, x0 + 7, y0 + 7};
    map.add_arena(strformat("home_%d", i), plot);
    map.add_object(strformat("bed_%d", i), Tile{plot.x0 + 1, plot.y0 + 1});
  }

  // The hub: one big central plaza, with a cafe and a bar facing it.
  map.add_arena("plaza", Rect{28, 28, 52, 52});
  map.add_object("fountain", Tile{40, 40});
  map.add_arena("cafe", Rect{12, 32, 24, 46});
  map.add_object("espresso_machine", Tile{18, 39});
  map.add_arena("bar", Rect{56, 32, 68, 46});
  map.add_object("counter", Tile{62, 39});
  map.add_arena("park", Rect{28, 58, 52, 68});
  map.add_object("bench", Tile{40, 63});
  return map;
}

GridMap GridMap::urban_grid(std::int32_t n_districts, std::int32_t n_homes) {
  constexpr std::int32_t kWidth = 140;
  constexpr std::int32_t kHeight = 100;
  GridMap map(kWidth, kHeight);
  AIM_CHECK(n_districts >= 1 && n_districts <= 9);
  AIM_CHECK(n_homes >= 1 && n_homes <= 18);

  // Residential west side: two columns of 8x8 plots.
  for (std::int32_t i = 0; i < n_homes; ++i) {
    const std::int32_t row = i / 2;
    const std::int32_t x0 = (i % 2) == 0 ? 3 : 14;
    const std::int32_t y0 = 3 + row * 10;
    const Rect plot{x0, y0, x0 + 7, y0 + 7};
    map.add_arena(strformat("home_%d", i), plot);
    map.add_object(strformat("bed_%d", i), Tile{plot.x0 + 1, plot.y0 + 1});
  }

  // Office districts stacked on the east side, three per column.
  for (std::int32_t d = 0; d < n_districts; ++d) {
    const std::int32_t col = d / 3;
    const std::int32_t row = d % 3;
    const std::int32_t x0 = 92 + col * 16;
    const std::int32_t y0 = 6 + row * 32;
    const Rect block{x0, y0, x0 + 13, y0 + 13};
    map.add_arena(strformat("office_%d", d), block);
    map.add_object(strformat("desk_%d", d), block.center());
  }

  // Midtown amenities between homes and offices.
  map.add_arena("cafe", Rect{52, 42, 66, 56});
  map.add_object("espresso_machine", Tile{59, 49});
  map.add_arena("park", Rect{48, 8, 80, 30});
  map.add_object("fountain", Tile{64, 19});

  // Two full-height north-south walls between the residential west and
  // the office east force every commute through a few two-tile gates —
  // the chokepoints that couple commuters at rush hour. (Homes end at
  // x=21, the cafe/park band sits between the walls, offices start at
  // x=92, so no arena is severed.)
  map.block_rect(Rect{40, 0, 40, kHeight - 1});
  map.set_walkable(Tile{40, 20}, true);
  map.set_walkable(Tile{40, 21}, true);
  map.set_walkable(Tile{40, 70}, true);
  map.set_walkable(Tile{40, 71}, true);
  map.block_rect(Rect{86, 0, 86, kHeight - 1});
  map.set_walkable(Tile{86, 49}, true);
  map.set_walkable(Tile{86, 50}, true);
  return map;
}

GridMap GridMap::arena(std::int32_t width, std::int32_t height) {
  GridMap map(width, height);
  map.add_object("fountain", Tile{width / 2, height / 2});
  return map;
}

GridMap GridMap::concatenate(const GridMap& segment, std::int32_t copies,
                             bool divider) {
  AIM_CHECK(copies >= 1);
  const std::int32_t stride = segment.width_ + (divider ? 1 : 0);
  GridMap out(stride * copies, segment.height_);
  out.segment_stride_ = stride;
  for (std::int32_t k = 0; k < copies; ++k) {
    const std::int32_t off = k * stride;
    for (std::int32_t y = 0; y < segment.height_; ++y) {
      for (std::int32_t x = 0; x < segment.width_; ++x) {
        out.walkable_[out.idx(Tile{off + x, y})] =
            segment.walkable_[segment.idx(Tile{x, y})];
      }
      if (divider && k + 1 < copies) {
        out.walkable_[out.idx(Tile{off + segment.width_, y})] = false;
      }
    }
    const std::string prefix = strformat("seg%d/", k);
    for (const Arena& a : segment.arenas_) {
      out.add_arena(prefix + a.name,
                    Rect{a.rect.x0 + off, a.rect.y0, a.rect.x1 + off, a.rect.y1});
    }
    for (const MapObject& o : segment.objects_) {
      out.add_object(prefix + o.name, Tile{o.tile.x + off, o.tile.y});
    }
  }
  return out;
}

}  // namespace aimetro::world
