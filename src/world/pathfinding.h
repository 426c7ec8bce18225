// A* pathfinding on the grid map (4-connected, Manhattan heuristic).
// Used by the trace generator to route agents between arenas; the live
// gym agents step to a neighbor tile and never call it.
#pragma once

#include <vector>

#include "common/types.h"
#include "world/grid_map.h"

namespace aimetro::world {

/// Shortest walkable path from `start` to `goal`, inclusive of both
/// endpoints. Returns an empty vector when no path exists. If
/// start == goal, returns {start}. Deterministic tie-breaking: the open
/// list pops by lowest f, then highest g, then earliest insertion, with
/// neighbors inserted in +x, -x, +y, -y order. The open list is a bucket
/// queue that pops in exactly that order: Manhattan h changes by one per
/// move, so only levels f and f + 2 are ever open, and within a level
/// highest g is lowest h, each (f, h) bucket served first-in first-out.
/// Search state lives in per-thread arrays indexed by tile and reused
/// across calls, so concurrent calls from different threads are safe.
std::vector<Tile> find_path(const GridMap& map, Tile start, Tile goal);

/// Nearest walkable tile to `t` (BFS ring search); returns `t` itself when
/// already walkable. Check-fails if the map has no walkable tile within
/// `max_ring` rings.
Tile nearest_walkable(const GridMap& map, Tile t, std::int32_t max_ring = 64);

}  // namespace aimetro::world
