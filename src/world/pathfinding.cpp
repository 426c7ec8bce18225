#include "world/pathfinding.h"

#include <algorithm>
#include <cstdlib>

#include "common/check.h"

namespace aimetro::world {

namespace {

std::int32_t manhattan_tiles(Tile a, Tile b) {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

struct Node {
  std::int32_t f;     // g + h
  std::int32_t g;     // cost so far
  std::uint32_t seq;  // insertion order for deterministic ties
  Tile tile;
};

struct NodeGreater {
  bool operator()(const Node& a, const Node& b) const {
    if (a.f != b.f) return a.f > b.f;
    if (a.g != b.g) return a.g < b.g;  // prefer deeper nodes on f-ties
    return a.seq > b.seq;
  }
};

/// One thread's search state, reused across calls. A tile's best g and
/// parent are valid only while its stamp equals the current search's, so
/// starting a search bumps one counter instead of clearing map-sized
/// arrays. The arrays grow to the largest map searched and stay.
struct SearchScratch {
  struct Cell {
    std::uint32_t stamp = 0;
    std::int32_t g = 0;
    Tile parent;
  };
  std::vector<Cell> cells;  // indexed y * width + x
  std::vector<Node> open;   // binary heap under NodeGreater
  std::uint32_t stamp = 0;

  void begin(std::size_t n_tiles) {
    if (cells.size() < n_tiles) cells.resize(n_tiles);
    if (++stamp == 0) {  // wrapped: every old stamp could alias
      for (Cell& c : cells) c.stamp = 0;
      stamp = 1;
    }
    open.clear();
  }
};

}  // namespace

std::vector<Tile> find_path(const GridMap& map, Tile start, Tile goal) {
  if (!map.walkable(start) || !map.walkable(goal)) return {};
  if (start == goal) return {start};

  const auto width = static_cast<std::size_t>(map.width());
  const std::size_t n_tiles = width * static_cast<std::size_t>(map.height());
  // Each tile is pushed at most four times, so seq cannot wrap.
  AIM_CHECK_MSG(n_tiles < (std::size_t{1} << 30), "map too large for A*");
  thread_local SearchScratch scratch;
  scratch.begin(n_tiles);
  const std::uint32_t stamp = scratch.stamp;
  std::vector<SearchScratch::Cell>& cells = scratch.cells;
  std::vector<Node>& open = scratch.open;
  auto cell = [&](Tile t) -> SearchScratch::Cell& {
    return cells[static_cast<std::size_t>(t.y) * width +
                 static_cast<std::size_t>(t.x)];
  };
  std::uint32_t seq = 0;

  open.push_back(Node{manhattan_tiles(start, goal), 0, seq++, start});
  cell(start) = {stamp, 0, start};

  while (!open.empty()) {
    std::pop_heap(open.begin(), open.end(), NodeGreater{});
    const Node cur = open.back();
    open.pop_back();
    if (cur.tile == goal) {
      std::vector<Tile> path{goal};
      for (Tile t = goal; !(t == start);) {
        t = cell(t).parent;
        path.push_back(t);
      }
      std::reverse(path.begin(), path.end());
      return path;
    }
    if (cur.g > cell(cur.tile).g) continue;  // stale entry
    const Tile t = cur.tile;
    for (const Tile next : {Tile{t.x + 1, t.y}, Tile{t.x - 1, t.y},
                            Tile{t.x, t.y + 1}, Tile{t.x, t.y - 1}}) {
      if (!map.walkable(next)) continue;
      const std::int32_t g = cur.g + 1;
      SearchScratch::Cell& c = cell(next);
      if (c.stamp == stamp && c.g <= g) continue;
      c = {stamp, g, t};
      open.push_back(Node{g + manhattan_tiles(next, goal), g, seq++, next});
      std::push_heap(open.begin(), open.end(), NodeGreater{});
    }
  }
  return {};
}

Tile nearest_walkable(const GridMap& map, Tile t, std::int32_t max_ring) {
  if (map.walkable(t)) return t;
  for (std::int32_t r = 1; r <= max_ring; ++r) {
    // Scan the ring in deterministic order.
    for (std::int32_t dy = -r; dy <= r; ++dy) {
      for (std::int32_t dx = -r; dx <= r; ++dx) {
        if (std::max(std::abs(dx), std::abs(dy)) != r) continue;
        const Tile cand{t.x + dx, t.y + dy};
        if (map.walkable(cand)) return cand;
      }
    }
  }
  AIM_CHECK_MSG(false, "no walkable tile near (" << t.x << "," << t.y << ")");
  return t;  // unreachable
}

}  // namespace aimetro::world
