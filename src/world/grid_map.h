// Grid world substrate: the SmallVille-style tile map.
//
// GenAgent's SmallVille is a 100x140 tile world where agents inhabit named
// places (homes, cafe, college, ...), navigate streets, and interact with
// objects. The map provides walkability, named rectangular arenas, named
// objects pinned to tiles, and horizontal concatenation — the paper scales
// to 1000 agents by "concatenating multiple SmallVilles into a single,
// large ville" (§4.3).
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace aimetro::world {

/// Inclusive rectangle of tiles.
struct Rect {
  std::int32_t x0 = 0;
  std::int32_t y0 = 0;
  std::int32_t x1 = 0;
  std::int32_t y1 = 0;

  bool contains(Tile t) const {
    return t.x >= x0 && t.x <= x1 && t.y >= y0 && t.y <= y1;
  }
  Tile center() const { return Tile{(x0 + x1) / 2, (y0 + y1) / 2}; }
};

/// A named region of the map (a home, the cafe, the park, ...).
struct Arena {
  std::string name;
  Rect rect;
};

/// A named interactable object on a tile (a bed, the espresso machine, ...).
struct MapObject {
  std::string name;
  Tile tile;
};

class GridMap {
 public:
  /// All tiles walkable initially.
  GridMap(std::int32_t width, std::int32_t height);

  std::int32_t width() const { return width_; }
  std::int32_t height() const { return height_; }

  bool in_bounds(Tile t) const {
    return t.x >= 0 && t.x < width_ && t.y >= 0 && t.y < height_;
  }
  bool walkable(Tile t) const { return in_bounds(t) && walkable_[idx(t)]; }
  void set_walkable(Tile t, bool walkable);
  /// Marks every tile in `r` unwalkable (a building block / wall).
  void block_rect(const Rect& r);

  /// Walkable 4-neighbors of `t`.
  std::vector<Tile> neighbors(Tile t) const;

  // ---- Arenas ----
  void add_arena(std::string name, Rect rect);
  const Arena* arena(const std::string& name) const;
  /// First arena containing `t`, or nullptr.
  const Arena* arena_at(Tile t) const;
  const std::vector<Arena>& arenas() const { return arenas_; }

  // ---- Objects ----
  void add_object(std::string name, Tile tile);
  const MapObject* object(const std::string& name) const;
  const std::vector<MapObject>& objects() const { return objects_; }

  /// The canonical GenAgent world: 140 wide x 100 tall, with homes,
  /// a cafe, a supply store, a college, a bar, and a park connected by
  /// streets. `n_homes` homes are laid out along the top and bottom rows.
  static GridMap smallville(std::int32_t n_homes = 15);

  /// A dense social hub: an 80x80 town square with one central plaza
  /// flanked by a cafe and a bar, homes ringing the edges. Nearly every
  /// path crosses the plaza, so evening socializing produces hub-dominated
  /// (power-law) contact graphs and large agent clusters.
  static GridMap plaza(std::int32_t n_homes = 14);

  /// An OpenCity-style commuter city: residential plots along the west
  /// edge, `n_districts` office districts stacked in the east, a cafe and
  /// park in the middle band. Homes and offices are far apart, producing
  /// origin-destination commute flows that decouple agents for most of the
  /// day and couple them hard at rush hour.
  static GridMap urban_grid(std::int32_t n_districts = 6,
                            std::int32_t n_homes = 18);

  /// A featureless open arena with a single central "fountain" object —
  /// the live-agent (gym) playground used by quickstart-style scenarios.
  static GridMap arena(std::int32_t width = 40, std::int32_t height = 40);

  /// Concatenate `copies` instances of `segment` left-to-right, offsetting
  /// arena/object names with a "seg<k>/" prefix, matching the paper's
  /// large-ville construction. A one-tile unwalkable divider column is
  /// placed between segments so traces generated per segment stay
  /// independent (as in the paper, where segments replay independent
  /// traces but share time and space).
  static GridMap concatenate(const GridMap& segment, std::int32_t copies,
                             bool divider = true);

  /// Width of one segment in a concatenated map (== width() if single).
  std::int32_t segment_stride() const { return segment_stride_; }

 private:
  std::int32_t width_;
  std::int32_t height_;
  std::int32_t segment_stride_;
  std::vector<bool> walkable_;
  std::vector<Arena> arenas_;
  std::vector<MapObject> objects_;
  std::unordered_map<std::string, std::size_t> arena_index_;
  std::unordered_map<std::string, std::size_t> object_index_;

  std::size_t idx(Tile t) const {
    return static_cast<std::size_t>(t.y) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(t.x);
  }
};

}  // namespace aimetro::world
