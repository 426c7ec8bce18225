#include "world/pathfinding.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "common/check.h"

namespace aimetro::world {

namespace {

std::int32_t manhattan_tiles(Tile a, Tile b) {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();

/// One thread's search state, reused across calls. A tile's best g and
/// parent are valid only while its stamp equals the current search's, so
/// starting a search bumps one counter instead of clearing map-sized
/// arrays. The arrays grow to the largest map searched and stay.
///
/// The open list is a bucket queue. Manhattan h moves by exactly 1 per
/// step, so f = g + h keeps its parity and a push from a node popped at
/// level f lands at f or f + 2: two levels are open at a time. Within a
/// level, higher g is lower h, so bucket (level, h) in increasing h, each
/// served first-in first-out, pops in the heap order (lowest f, highest g,
/// earliest push). An entry's g is its level minus its h, so an entry
/// stores only its tile and its bucket link. Popped slots go to a free
/// list, so the pool holds at most the open list's peak size.
struct SearchScratch {
  struct Cell {
    std::uint32_t stamp = 0;
    std::int32_t g = 0;
    Tile parent;
  };
  struct Entry {
    Tile tile;
    std::uint32_t next;  // next entry in its bucket, or in the free list
  };
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  /// One open level: the entries of one f, bucketed by h.
  struct Level {
    std::vector<Bucket> by_h;  // indexed by h
    std::size_t size = 0;
    std::int32_t min_h = 0;  // no entry has a smaller h
  };
  std::vector<Cell> cells;  // indexed y * width + x
  std::vector<Entry> pool;  // entries of every bucket, plus freed slots
  std::uint32_t free = kNil;
  Level levels[2];  // level f lives at (f / 2) % 2, beside f + 2
  std::uint32_t stamp = 0;

  Level& level_of(std::int32_t f) { return levels[(f >> 1) & 1]; }

  void begin(std::size_t n_tiles, std::size_t n_h) {
    if (cells.size() < n_tiles) cells.resize(n_tiles);
    if (++stamp == 0) {  // wrapped: every old stamp could alias
      for (Cell& c : cells) c.stamp = 0;
      stamp = 1;
    }
    pool.clear();
    free = kNil;
    for (Level& level : levels) {
      level.by_h.assign(n_h, Bucket{});
      level.size = 0;
    }
  }

  void push(std::int32_t f, std::int32_t h, Tile tile) {
    std::uint32_t slot = free;
    if (slot == kNil) {
      slot = static_cast<std::uint32_t>(pool.size());
      pool.push_back(Entry{tile, kNil});
    } else {
      free = pool[slot].next;
      pool[slot] = Entry{tile, kNil};
    }
    Level& level = level_of(f);
    Bucket& b = level.by_h[static_cast<std::size_t>(h)];
    if (b.tail == kNil) {
      b.head = slot;
    } else {
      pool[b.tail].next = slot;
    }
    b.tail = slot;
    if (level.size++ == 0 || h < level.min_h) level.min_h = h;
  }

  /// Pops the first entry of level f, which must be non-empty; returns
  /// its tile and sets `*h`.
  Tile pop(std::int32_t f, std::int32_t* h) {
    Level& level = level_of(f);
    while (level.by_h[static_cast<std::size_t>(level.min_h)].head == kNil) {
      ++level.min_h;
    }
    *h = level.min_h;
    Bucket& b = level.by_h[static_cast<std::size_t>(level.min_h)];
    const std::uint32_t slot = b.head;
    b.head = pool[slot].next;
    if (b.head == kNil) b.tail = kNil;
    --level.size;
    pool[slot].next = free;
    free = slot;
    return pool[slot].tile;
  }
};

}  // namespace

std::vector<Tile> find_path(const GridMap& map, Tile start, Tile goal) {
  if (!map.walkable(start) || !map.walkable(goal)) return {};
  if (start == goal) return {start};

  const auto width = static_cast<std::size_t>(map.width());
  const std::size_t n_tiles = width * static_cast<std::size_t>(map.height());
  // Each tile is pushed at most four times, so the open list never holds
  // 2^32 - 1 entries and a 32-bit index (with kNil spare) cannot wrap.
  AIM_CHECK_MSG(n_tiles < (std::size_t{1} << 30), "map too large for A*");
  thread_local SearchScratch scratch;
  scratch.begin(n_tiles, static_cast<std::size_t>(map.width()) +
                             static_cast<std::size_t>(map.height()) - 1);
  const std::uint32_t stamp = scratch.stamp;
  std::vector<SearchScratch::Cell>& cells = scratch.cells;
  auto cell = [&](Tile t) -> SearchScratch::Cell& {
    return cells[static_cast<std::size_t>(t.y) * width +
                 static_cast<std::size_t>(t.x)];
  };

  std::int32_t f = manhattan_tiles(start, goal);
  scratch.push(f, f, start);
  cell(start) = {stamp, 0, start};

  while (true) {
    if (scratch.level_of(f).size == 0) {
      if (scratch.level_of(f + 2).size == 0) return {};
      f += 2;
    }
    std::int32_t h = 0;
    const Tile t = scratch.pop(f, &h);
    if (t == goal) {
      std::vector<Tile> path{goal};
      for (Tile p = goal; !(p == start);) {
        p = cell(p).parent;
        path.push_back(p);
      }
      std::reverse(path.begin(), path.end());
      return path;
    }
    if (f - h > cell(t).g) continue;  // stale entry
    const std::int32_t g = f - h + 1;
    for (const Tile next : {Tile{t.x + 1, t.y}, Tile{t.x - 1, t.y},
                            Tile{t.x, t.y + 1}, Tile{t.x, t.y - 1}}) {
      if (!map.walkable(next)) continue;
      SearchScratch::Cell& c = cell(next);
      if (c.stamp == stamp && c.g <= g) continue;
      c = {stamp, g, t};
      const std::int32_t next_h = manhattan_tiles(next, goal);
      scratch.push(g + next_h, next_h, next);
    }
  }
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
