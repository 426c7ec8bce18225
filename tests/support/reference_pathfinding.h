// Reference A* for differential tests of world::find_path.
//
// The original hash-map implementation, kept verbatim as an oracle: the
// same 4-connected Manhattan search and the same (f, g, seq) open-list
// order, with best-g and parent held in unordered_maps. world::find_path
// must return exactly this path (tie-breaking included) for every map,
// start and goal.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "world/grid_map.h"

namespace aimetro::test_support {

namespace reference_detail {

inline std::int32_t manhattan_tiles(Tile a, Tile b) {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

struct Node {
  std::int32_t f;     // g + h
  std::int32_t g;     // cost so far
  std::uint64_t seq;  // insertion order for deterministic ties
  Tile tile;
};

struct NodeGreater {
  bool operator()(const Node& a, const Node& b) const {
    if (a.f != b.f) return a.f > b.f;
    if (a.g != b.g) return a.g < b.g;  // prefer deeper nodes on f-ties
    return a.seq > b.seq;
  }
};

}  // namespace reference_detail

inline std::vector<Tile> reference_find_path(const world::GridMap& map,
                                             Tile start, Tile goal) {
  using reference_detail::manhattan_tiles;
  using reference_detail::Node;
  using reference_detail::NodeGreater;
  if (!map.walkable(start) || !map.walkable(goal)) return {};
  if (start == goal) return {start};

  std::priority_queue<Node, std::vector<Node>, NodeGreater> open;
  std::unordered_map<Tile, Tile, TileHash> came_from;
  std::unordered_map<Tile, std::int32_t, TileHash> best_g;
  std::uint64_t seq = 0;

  open.push(Node{manhattan_tiles(start, goal), 0, seq++, start});
  best_g[start] = 0;

  while (!open.empty()) {
    const Node cur = open.top();
    open.pop();
    if (cur.tile == goal) {
      std::vector<Tile> path{goal};
      Tile t = goal;
      while (!(t == start)) {
        t = came_from.at(t);
        path.push_back(t);
      }
      std::reverse(path.begin(), path.end());
      return path;
    }
    auto bit = best_g.find(cur.tile);
    if (bit != best_g.end() && cur.g > bit->second) continue;  // stale entry
    for (Tile next : map.neighbors(cur.tile)) {
      const std::int32_t g = cur.g + 1;
      auto it = best_g.find(next);
      if (it != best_g.end() && it->second <= g) continue;
      best_g[next] = g;
      came_from[next] = cur.tile;
      open.push(Node{g + manhattan_tiles(next, goal), g, seq++, next});
    }
  }
  return {};
}

}  // namespace aimetro::test_support
