#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/metric.h"
#include "support/reference_pathfinding.h"
#include "world/csr_graph.h"
#include "world/graph_index.h"
#include "world/grid_map.h"
#include "world/pathfinding.h"
#include "world/region_partition.h"
#include "world/social_graph.h"
#include "world/spatial_index.h"
#include "world/world_state.h"

namespace aimetro::world {
namespace {

TEST(GridMap, BoundsAndWalkability) {
  GridMap map(10, 5);
  EXPECT_TRUE(map.walkable(Tile{0, 0}));
  EXPECT_TRUE(map.walkable(Tile{9, 4}));
  EXPECT_FALSE(map.walkable(Tile{10, 0}));
  EXPECT_FALSE(map.walkable(Tile{0, -1}));
  map.set_walkable(Tile{3, 3}, false);
  EXPECT_FALSE(map.walkable(Tile{3, 3}));
  map.block_rect(Rect{0, 0, 2, 2});
  EXPECT_FALSE(map.walkable(Tile{1, 1}));
}

TEST(GridMap, NeighborsRespectWalls) {
  GridMap map(5, 5);
  map.set_walkable(Tile{2, 1}, false);
  const auto n = map.neighbors(Tile{2, 2});
  EXPECT_EQ(n.size(), 3u);  // up blocked
  const auto corner = map.neighbors(Tile{0, 0});
  EXPECT_EQ(corner.size(), 2u);
}

TEST(GridMap, ArenasAndObjects) {
  GridMap map(20, 20);
  map.add_arena("cafe", Rect{2, 2, 6, 6});
  map.add_object("machine", Tile{4, 4});
  ASSERT_NE(map.arena("cafe"), nullptr);
  EXPECT_EQ(map.arena("nope"), nullptr);
  EXPECT_EQ(map.arena_at(Tile{3, 3})->name, "cafe");
  EXPECT_EQ(map.arena_at(Tile{10, 10}), nullptr);
  EXPECT_EQ(map.object("machine")->tile, (Tile{4, 4}));
  EXPECT_THROW(map.add_arena("cafe", Rect{}), CheckError);
}

TEST(GridMap, SmallvilleLayout) {
  const GridMap map = GridMap::smallville(25);
  EXPECT_EQ(map.width(), 140);
  EXPECT_EQ(map.height(), 100);
  EXPECT_NE(map.arena("home_0"), nullptr);
  EXPECT_NE(map.arena("home_24"), nullptr);
  EXPECT_NE(map.arena("cafe"), nullptr);
  EXPECT_NE(map.arena("park"), nullptr);
  EXPECT_NE(map.object("bed_0"), nullptr);
  EXPECT_NE(map.object("espresso_machine"), nullptr);
}

TEST(GridMap, SmallvilleHomesReachCafe) {
  const GridMap map = GridMap::smallville(25);
  for (int h : {0, 1, 12, 24}) {
    const Tile bed = map.object("bed_" + std::to_string(h))->tile;
    const Tile start = nearest_walkable(map, bed);
    const Tile goal = nearest_walkable(map, map.arena("cafe")->rect.center());
    EXPECT_FALSE(find_path(map, start, goal).empty()) << "home_" << h;
  }
}

TEST(GridMap, ConcatenationOffsetsAndDividers) {
  const GridMap seg = GridMap::smallville(4);
  const GridMap big = GridMap::concatenate(seg, 3);
  EXPECT_EQ(big.width(), (seg.width() + 1) * 3);
  EXPECT_EQ(big.segment_stride(), seg.width() + 1);
  ASSERT_NE(big.arena("seg0/cafe"), nullptr);
  ASSERT_NE(big.arena("seg2/cafe"), nullptr);
  EXPECT_EQ(big.arena("seg1/cafe")->rect.x0,
            big.arena("seg0/cafe")->rect.x0 + seg.width() + 1);
  // Dividers prevent cross-segment paths.
  const Tile in_seg0 = nearest_walkable(big, big.arena("seg0/cafe")->rect.center());
  const Tile in_seg1 = nearest_walkable(big, big.arena("seg1/cafe")->rect.center());
  EXPECT_TRUE(find_path(big, in_seg0, in_seg1).empty());
}

TEST(SpatialIndex, InsertQueryRemove) {
  SpatialIndex idx(4.0);
  idx.insert(0, Pos{1, 1});
  idx.insert(1, Pos{2, 2});
  idx.insert(2, Pos{50, 50});
  EXPECT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx.query_radius(Pos{0, 0}, 5.0),
            (std::vector<AgentId>{0, 1}));
  EXPECT_EQ(idx.query_radius(Pos{50, 50}, 0.5), (std::vector<AgentId>{2}));
  idx.remove(1);
  EXPECT_EQ(idx.query_radius(Pos{0, 0}, 5.0), (std::vector<AgentId>{0}));
  idx.remove(1);  // no-op
  EXPECT_EQ(idx.size(), 2u);
}

TEST(SpatialIndex, UpdateMovesAcrossCells) {
  SpatialIndex idx(4.0);
  idx.insert(7, Pos{0, 0});
  idx.update(7, Pos{100, 100});
  EXPECT_TRUE(idx.query_radius(Pos{0, 0}, 10.0).empty());
  EXPECT_EQ(idx.query_radius(Pos{100, 100}, 1.0), (std::vector<AgentId>{7}));
  EXPECT_EQ(idx.position(7), (Pos{100, 100}));
  idx.update(42, Pos{5, 5});  // insert-or-move inserts
  EXPECT_TRUE(idx.contains(42));
}

TEST(SpatialIndex, BoxQueryIsChebyshevBall) {
  SpatialIndex idx(3.0);
  idx.insert(0, Pos{0, 0});
  idx.insert(1, Pos{4, 4});    // chebyshev 4, euclidean 5.66
  idx.insert(2, Pos{5, 0});    // chebyshev 5
  EXPECT_EQ(idx.query_box(Pos{0, 0}, 4.0), (std::vector<AgentId>{0, 1}));
  EXPECT_EQ(idx.query_radius(Pos{0, 0}, 5.0), (std::vector<AgentId>{0, 2}));
}

TEST(SpatialIndex, BulkInsertMatchesIncrementalInserts) {
  SpatialIndex bulk(4.0);
  SpatialIndex one_by_one(4.0);
  std::vector<std::pair<AgentId, Pos>> items;
  for (AgentId i = 0; i < 64; ++i) {
    const Pos p{static_cast<double>((i * 17) % 40),
                static_cast<double>((i * 29) % 40)};
    items.emplace_back(i, p);
    one_by_one.insert(i, p);
  }
  bulk.bulk_insert(items);
  EXPECT_EQ(bulk.size(), one_by_one.size());
  for (double r : {0.0, 3.0, 10.0, 50.0}) {
    EXPECT_EQ(bulk.query_box(Pos{20, 20}, r),
              one_by_one.query_box(Pos{20, 20}, r));
  }
}

TEST(SpatialIndex, QueryIntoBufferReusesCapacityAndSorts) {
  SpatialIndex idx(4.0);
  for (AgentId i = 0; i < 32; ++i) {
    idx.insert(i, Pos{static_cast<double>(i % 8), static_cast<double>(i / 8)});
  }
  std::vector<AgentId> buf;
  idx.query_box_into(Pos{3.5, 1.5}, 10.0, &buf);
  EXPECT_EQ(buf.size(), 32u);
  EXPECT_TRUE(std::is_sorted(buf.begin(), buf.end()));
  const std::size_t cap = buf.capacity();
  idx.query_box_into(Pos{0, 0}, 0.5, &buf);
  EXPECT_EQ(buf, (std::vector<AgentId>{0}));
  EXPECT_EQ(buf.capacity(), cap);  // cleared, not reallocated
  // Same-cell position updates must be visible to the box filter.
  idx.update(0, Pos{1.0, 1.0});
  idx.query_box_into(Pos{0, 0}, 0.5, &buf);
  EXPECT_TRUE(buf.empty());
}

TEST(SpatialIndex, DenseGridMatchesBruteForceUnderRandomMutations) {
  // Differential check of the grid layout, its growth and the probe clamp:
  // after every mutation, box probes of every size — from a point up to
  // far past the occupied extent — must return exactly the live agents a
  // brute-force filter finds. Moves reach negative and far-positive cells
  // so the grid re-lays out on every side.
  constexpr double kCell = 3.0;
  SpatialIndex idx(kCell);
  std::map<AgentId, Pos> live;
  Rng rng(20261017);
  auto random_pos = [&rng]() {
    const double roll = rng.uniform();
    if (roll < 0.1) {
      return Pos{rng.uniform(-150.0, 0.0), rng.uniform(-90.0, 30.0)};
    }
    if (roll < 0.2) {
      return Pos{rng.uniform(300.0, 600.0), rng.uniform(0.0, 400.0)};
    }
    if (roll < 0.5) {  // exact multiples of the cell size sit on cell edges
      return Pos{kCell * static_cast<double>(rng.uniform_int(-3, 20)),
                 kCell * static_cast<double>(rng.uniform_int(-3, 20))};
    }
    return Pos{rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0)};
  };
  auto pick_live = [&]() {
    auto it = live.begin();
    std::advance(it, rng.uniform_int(
                         0, static_cast<std::int64_t>(live.size()) - 1));
    return it;
  };
  auto check_all_probes = [&](const std::string& after) {
    std::vector<Pos> centers = {Pos{0.0, 0.0}, Pos{-1000.0, 2500.0},
                                random_pos()};
    if (!live.empty()) centers.push_back(pick_live()->second);
    std::vector<AgentId> got;
    for (const Pos& c : centers) {
      for (double h : {0.0, 0.5, kCell, 7.25, 40.0, 200.0, 800.0, 5000.0}) {
        std::vector<AgentId> want;
        for (const auto& [id, p] : live) {
          if (std::abs(p.x - c.x) <= h && std::abs(p.y - c.y) <= h) {
            want.push_back(id);
          }
        }
        idx.query_box_into(c, h, &got);
        ASSERT_EQ(got, want) << after << "; probe at (" << c.x << ", " << c.y
                             << ") half-extent " << h;
      }
    }
    ASSERT_EQ(idx.size(), live.size()) << after;
  };

  AgentId next_id = 0;
  for (int op = 0; op < 400; ++op) {
    const double roll = rng.uniform();
    std::string after;
    if (op % 100 == 50) {
      std::vector<std::pair<AgentId, Pos>> batch;
      for (int k = 0; k < 20; ++k) {
        batch.emplace_back(next_id, random_pos());
        live[next_id++] = batch.back().second;
      }
      idx.bulk_insert(batch);
      after = "bulk_insert";
    } else if (live.empty() || roll < 0.3) {
      const Pos p = random_pos();
      idx.insert(next_id, p);
      live[next_id] = p;
      after = "insert " + std::to_string(next_id++);
    } else {
      const auto it = pick_live();
      const AgentId id = it->first;
      if (roll < 0.45) {
        idx.remove(id);
        live.erase(it);
        after = "remove " + std::to_string(id);
      } else {
        // Half the moves are small steps (often within one cell).
        const Pos p = roll < 0.7 ? Pos{it->second.x + rng.uniform(-2.0, 2.0),
                                       it->second.y + rng.uniform(-2.0, 2.0)}
                                 : random_pos();
        idx.update(id, p);
        it->second = p;
        after = "update " + std::to_string(id);
      }
    }
    check_all_probes(after);
    for (const auto& [id, p] : live) ASSERT_EQ(idx.position(id), p);
  }
}

TEST(SpatialIndex, GrowthPastTheCellCapCheckFails) {
  // 1-unit cells: a 4000 x 4000-unit extent needs 16M cells, past the cap.
  SpatialIndex idx(1.0);
  idx.insert(0, Pos{0, 0});
  idx.insert(1, Pos{1000, 0});
  try {
    idx.insert(2, Pos{3999, 3999});
    FAIL() << "growth past kMaxCells must check-fail";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("x in [0, 3999], y in [0, 3999]"), std::string::npos)
        << what;
  }
  // The failed insert changed nothing; the same extent is refused on the
  // move and bulk paths too.
  EXPECT_FALSE(idx.contains(2));
  EXPECT_EQ(idx.query_box(Pos{0, 0}, 1e6), (std::vector<AgentId>{0, 1}));
  EXPECT_THROW(idx.update(1, Pos{3999, 3999}), CheckError);
  EXPECT_EQ(idx.position(1), (Pos{1000, 0}));
  EXPECT_THROW(idx.bulk_insert({{2, Pos{-3999, -3999}}}), CheckError);
  EXPECT_EQ(idx.size(), 2u);
}

TEST(SocialGraph, NewmanWattsIsConnectedSortedAndDeterministic) {
  const CsrGraph adj = newman_watts_graph(/*nodes=*/50, /*degree=*/4,
                                          /*shortcut_prob=*/0.3, /*seed=*/9);
  ASSERT_EQ(adj.node_count(), 50);
  for (std::int32_t i = 0; i < adj.node_count(); ++i) {
    const auto row = adj.neighbors(i);
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end())) << "node " << i;
    EXPECT_TRUE(std::adjacent_find(row.begin(), row.end()) == row.end())
        << "duplicate neighbor at node " << i;
    for (std::int32_t j : row) {
      ASSERT_GE(j, 0);
      ASSERT_LT(j, 50);
      EXPECT_NE(j, i) << "self-loop at " << i;
      // Undirected: every edge appears from both ends.
      const auto back = adj.neighbors(j);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), i));
    }
    // The ring lattice is kept intact (shortcuts only add edges), so
    // every node keeps at least its degree-4 ring neighborhood.
    EXPECT_GE(row.size(), 4u) << "node " << i;
  }
  // Connected: BFS from node 0 reaches everything (the ring guarantees
  // it; this pins the guarantee).
  std::vector<bool> seen(50, false);
  std::vector<std::int32_t> stack{0};
  seen[0] = true;
  std::int32_t reached = 1;
  while (!stack.empty()) {
    const std::int32_t v = stack.back();
    stack.pop_back();
    for (std::int32_t w : adj.neighbors(v)) {
      if (!seen[static_cast<std::size_t>(w)]) {
        seen[static_cast<std::size_t>(w)] = true;
        ++reached;
        stack.push_back(w);
      }
    }
  }
  EXPECT_EQ(reached, adj.node_count());
  // Deterministic in the seed; shortcut_prob > 0 actually adds shortcuts.
  EXPECT_EQ(newman_watts_graph(50, 4, 0.3, 9), adj);
  EXPECT_NE(newman_watts_graph(50, 4, 0.3, 10), adj);
  std::size_t edge_ends = 0;
  for (std::int32_t i = 0; i < adj.node_count(); ++i) {
    edge_ends += adj.neighbors(i).size();
  }
  EXPECT_GT(edge_ends, 50u * 4u);  // ring + at least one shortcut
  // Degenerate knobs are rejected loudly.
  EXPECT_THROW(newman_watts_graph(2, 2, 0.1, 1), CheckError);
  EXPECT_THROW(newman_watts_graph(10, 3, 0.1, 1), CheckError);   // odd degree
  EXPECT_THROW(newman_watts_graph(10, 10, 0.1, 1), CheckError);  // >= nodes
}

/// The message of the CheckError `make` throws, or "" when it throws none.
template <typename Make>
std::string check_error_of(Make make) {
  try {
    make();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(CsrGraph, RejectsBadShapesNamingTheProblem) {
  using Rows = std::vector<std::vector<std::int32_t>>;
  const CsrGraph graph(Rows{{1, 2}, {0}, {0}, {}});
  EXPECT_EQ(graph.node_count(), 4);
  const auto row = graph.neighbors(0);
  EXPECT_EQ(std::vector<std::int32_t>(row.begin(), row.end()),
            (std::vector<std::int32_t>{1, 2}));
  EXPECT_TRUE(graph.neighbors(3).empty());
  // Row form and flat form build the same graph.
  EXPECT_EQ(CsrGraph({0, 2, 3, 4, 4}, {1, 2, 0, 0}), graph);
  // The empty graph is what grid traces carry; only the default
  // constructor makes one.
  EXPECT_TRUE(CsrGraph().empty());
  EXPECT_EQ(CsrGraph().node_count(), 0);
  const struct {
    Rows rows;
    const char* names;
  } bad[] = {
      {{}, "graph has no nodes"},
      {{{2, 1}, {0}, {0}}, "graph node 0 lists its neighbors out of order"},
      {{{1}, {0, 2}}, "graph neighbor 2 of node 1 is not a node id"},
      {{{1, 2}, {0}, {}}, "one-way graph edge 0 -> 2: node 2 does not list 0"},
  };
  for (const auto& c : bad) {
    EXPECT_NE(check_error_of([&] { CsrGraph{c.rows}; }).find(c.names),
              std::string::npos)
        << c.names;
  }
  // Flat offsets must start at 0, rise, and end at the neighbor count.
  const std::string offsets = "graph row offsets do not partition";
  EXPECT_NE(check_error_of([] { CsrGraph({0, 2, 1}, {1, 0}); }).find(offsets),
            std::string::npos);
  EXPECT_NE(check_error_of([] { CsrGraph({0, 1, 1}, {1, 0}); }).find(offsets),
            std::string::npos);
}

TEST(GraphIndex, InsertRemoveUpdateAndBallProbes) {
  // 0-1-2-3-4 chain: hop balls are exactly id ranges.
  const std::vector<std::vector<std::int32_t>> adj{
      {1}, {0, 2}, {1, 3}, {2, 4}, {3}};
  const CsrGraph graph(adj);
  GraphIndex idx(&graph);
  EXPECT_EQ(idx.node_count(), 5);
  // No walk yet: no node has a hop distance.
  EXPECT_EQ(idx.hop_distance(Pos{0, 0}),
            std::numeric_limits<double>::infinity());
  for (AgentId i = 0; i < 5; ++i) {
    idx.insert(i, Pos{static_cast<double>(i), 0});
  }
  EXPECT_EQ(idx.size(), 5u);
  EXPECT_EQ(idx.query_ball(Pos{2, 0}, 1.0), (std::vector<AgentId>{1, 2, 3}));
  EXPECT_EQ(idx.hop_distance(Pos{3, 0}), 1.0);
  EXPECT_EQ(idx.hop_distance(Pos{4, 0}),
            std::numeric_limits<double>::infinity());  // outside the ball
  // floor(1.9) = 1 hop: fractional radii round down (hop distances are
  // integral, so this IS the metric ball of radius 1.9).
  EXPECT_EQ(idx.query_ball(Pos{2, 0}, 1.9), (std::vector<AgentId>{1, 2, 3}));
  EXPECT_EQ(idx.query_ball(Pos{0, 0}, 0.0), (std::vector<AgentId>{0}));
  EXPECT_EQ(idx.query_ball(Pos{0, 0}, 10.0),
            (std::vector<AgentId>{0, 1, 2, 3, 4}));
  idx.remove(2);
  EXPECT_EQ(idx.query_ball(Pos{2, 0}, 1.0), (std::vector<AgentId>{1, 3}));
  idx.remove(2);  // no-op
  EXPECT_EQ(idx.size(), 4u);
  idx.update(0, Pos{4, 0});  // move across the chain
  EXPECT_EQ(idx.query_ball(Pos{4, 0}, 1.0), (std::vector<AgentId>{0, 3, 4}));
  idx.update(2, Pos{2, 0});  // insert-or-move inserts
  EXPECT_TRUE(idx.contains(2));
  EXPECT_EQ(idx.position(2), (Pos{2, 0}));
  // Crowds: many agents on one node all come back, sorted by id.
  idx.update(4, Pos{2, 0});
  idx.update(1, Pos{2, 0});
  EXPECT_EQ(idx.query_ball(Pos{2, 0}, 0.0), (std::vector<AgentId>{1, 2, 4}));
}

TEST(GraphIndex, RandomizedBallMatchesBruteMetricScan) {
  // The exactness claims behind the scoreboard's graph probes: the
  // depth-floor(r) BFS ball equals the set of agents whose GraphMetric
  // distance is <= r, and the walk's hop_distance equals that distance
  // inside the ball and is +inf outside it — for random small-world
  // graphs, placements, centers, and (fractional) radii. Between probes
  // agents move and leave: each round empties one node (its agents
  // scatter), crowds another, removes an agent and, every other probe,
  // refills the emptied node, and probes center on the emptied and the
  // crowded node in turn, so an occupancy count that drifted from the
  // buckets would hide or invent agents. Odd rounds add an isolated node
  // and stand agent 0 on it (agent 0 never churns), so every other center
  // sees it at the metric's kDisconnected. After each probe one occupied
  // node (agent 0's among them) is probed again at radii that rise and
  // fall, so a ball centered on it replays the node's stored BFS order
  // shallower than it was built, extends it deeper, and on the isolated
  // node runs out before the depth asked for; churn empties nodes whose
  // orders are then freed and reused by other nodes.
  Rng rng(77);
  for (int round = 0; round < 8; ++round) {
    const CsrGraph ring =
        newman_watts_graph(20 + 15 * round, 4, 0.15, 900 + round);
    std::vector<std::vector<std::int32_t>> adj;
    for (std::int32_t u = 0; u < ring.node_count(); ++u) {
      adj.emplace_back(ring.neighbors(u).begin(), ring.neighbors(u).end());
    }
    if (round % 2 == 1) adj.emplace_back();
    const auto nodes = static_cast<int>(adj.size());
    const CsrGraph graph(adj);
    const core::GraphMetric metric(graph);
    GraphIndex idx(&graph);
    auto random_node = [&] {
      return Pos{static_cast<double>(rng.uniform_int(0, nodes - 1)), 0};
    };
    const int n_agents = 10 + 7 * round;
    auto random_churner = [&] {
      return static_cast<AgentId>(rng.uniform_int(1, n_agents - 1));
    };
    std::vector<std::optional<Pos>> pos;  // nullopt: removed
    auto at = [&](AgentId i) -> std::optional<Pos>& {
      return pos[static_cast<std::size_t>(i)];
    };
    for (AgentId i = 0; i < n_agents; ++i) {
      pos.push_back(random_node());
      if (i == 0 && round % 2 == 1) pos.back()->x = nodes - 1;
      idx.insert(i, *pos.back());
    }
    Pos emptied = *at(1);
    Pos crowd = *at(1);
    const double radii[] = {0.0, 1.0, 1.5, 2.0, 2.9, 3.0, 6.0};
    for (int probe = 0; probe < 21; ++probe) {
      if (probe > 0) {
        std::optional<Pos> scatter_from;
        while (!scatter_from) scatter_from = at(random_churner());
        emptied = *scatter_from;
        for (AgentId i = 1; i < n_agents; ++i) {
          if (at(i) != emptied) continue;
          do {
            at(i) = random_node();
          } while (at(i) == emptied);
          idx.update(i, *at(i));
        }
        crowd = random_node();
        for (int k = 0; k < 4; ++k) {
          const AgentId i = random_churner();
          if (!at(i)) continue;
          at(i) = crowd;
          idx.update(i, crowd);
        }
        const AgentId gone = random_churner();
        if (at(gone)) {
          idx.remove(gone);
          at(gone).reset();
        }
        if (probe % 2 == 0) {
          for (AgentId i = 1; i < n_agents; ++i) {
            if (at(i)) continue;
            at(i) = emptied;
            idx.insert(i, emptied);
            break;
          }
        }
      }
      std::size_t live = 0;
      for (const std::optional<Pos>& p : pos) live += p.has_value() ? 1 : 0;
      ASSERT_EQ(idx.size(), live);
      auto expect_ball = [&](Pos center, double radius) {
        std::vector<AgentId> brute;
        for (AgentId i = 0; i < n_agents; ++i) {
          if (at(i) && metric.distance(center, *at(i)) <= radius) {
            brute.push_back(i);
          }
        }
        EXPECT_EQ(idx.query_ball(center, radius), brute)
            << "round " << round << " probe " << probe << " center "
            << center.x << " radius " << radius;
        for (AgentId i = 0; i < n_agents; ++i) {
          if (!at(i)) continue;
          const double dist = metric.distance(center, *at(i));
          EXPECT_EQ(idx.hop_distance(*at(i)),
                    dist <= radius ? dist
                                   : std::numeric_limits<double>::infinity())
              << "round " << round << " probe " << probe << " center "
              << center.x << " radius " << radius << " agent " << i
              << " metric " << dist;
        }
      };
      expect_ball(probe % 3 == 0   ? emptied
                  : probe % 3 == 1 ? crowd
                                   : random_node(),
                  radii[probe % 7]);
      const auto pick = static_cast<AgentId>(probe % n_agents);
      const Pos occupied = at(pick) ? *at(pick) : *at(0);
      for (const double radius : {2.0, 6.0, 1.0, 3.0, 0.0, 6.0}) {
        expect_ball(occupied, radius);
      }
    }
  }
}

TEST(Pathfinding, ShortestOnOpenGrid) {
  GridMap map(20, 20);
  const auto path = find_path(map, Tile{1, 1}, Tile{6, 4});
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), (Tile{1, 1}));
  EXPECT_EQ(path.back(), (Tile{6, 4}));
  EXPECT_EQ(path.size(), 9u);  // manhattan distance 8 + start
  // Each hop is a 4-neighbor move.
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_EQ(std::abs(path[i].x - path[i - 1].x) +
                  std::abs(path[i].y - path[i - 1].y),
              1);
  }
}

TEST(Pathfinding, RoutesAroundWalls) {
  GridMap map(10, 10);
  map.block_rect(Rect{5, 0, 5, 8});  // wall with gap at y=9
  const auto path = find_path(map, Tile{2, 2}, Tile{8, 2});
  ASSERT_FALSE(path.empty());
  EXPECT_GT(path.size(), 7u);  // must detour
  bool passes_gap = false;
  for (const Tile& t : path) {
    if (t.x == 5) {
      EXPECT_EQ(t.y, 9);
      passes_gap = true;
    }
  }
  EXPECT_TRUE(passes_gap);
}

TEST(Pathfinding, UnreachableReturnsEmpty) {
  GridMap map(10, 10);
  map.block_rect(Rect{4, 0, 4, 9});
  EXPECT_TRUE(find_path(map, Tile{0, 0}, Tile{9, 9}).empty());
  EXPECT_EQ(find_path(map, Tile{2, 2}, Tile{2, 2}).size(), 1u);
}

TEST(Pathfinding, MatchesReferenceExactly) {
  // The dense-array search must return the hash-map reference's path
  // vector exactly, tie-breaking included, on every kind of map the
  // generator and the edge cases can produce.
  std::size_t found = 0;
  std::size_t unreachable = 0;
  auto expect_same = [&](const GridMap& map, Tile a, Tile b,
                         const std::string& where) {
    const std::vector<Tile> path = find_path(map, a, b);
    EXPECT_EQ(path, test_support::reference_find_path(map, a, b))
        << where << " (" << a.x << "," << a.y << ") -> (" << b.x << ","
        << b.y << ")";
    ++(path.empty() ? unreachable : found);
  };
  auto random_tile = [](const GridMap& map, Rng& rng) {
    return Tile{static_cast<std::int32_t>(rng.uniform_int(0, map.width() - 1)),
                static_cast<std::int32_t>(
                    rng.uniform_int(0, map.height() - 1))};
  };

  // Seeded random wall maps. Every third map adds a full wall with a
  // 1-wide gap (a corridor every crossing path must thread); on every
  // fifteenth the gap stays sealed, so goals past the wall are
  // unreachable.
  Rng rng(20261017);
  for (int round = 0; round < 80; ++round) {
    GridMap map(static_cast<std::int32_t>(rng.uniform_int(1, 36)),
                static_cast<std::int32_t>(rng.uniform_int(1, 36)));
    const double density = rng.uniform(0.0, 0.4);
    for (std::int32_t y = 0; y < map.height(); ++y) {
      for (std::int32_t x = 0; x < map.width(); ++x) {
        if (rng.bernoulli(density)) map.set_walkable(Tile{x, y}, false);
      }
    }
    if (round % 3 == 0 && map.width() >= 3) {
      const auto wall_x =
          static_cast<std::int32_t>(rng.uniform_int(1, map.width() - 2));
      map.block_rect(Rect{wall_x, 0, wall_x, map.height() - 1});
      if (round % 5 != 0) {
        map.set_walkable(
            Tile{wall_x, static_cast<std::int32_t>(
                             rng.uniform_int(0, map.height() - 1))},
            true);
      }
    }
    const std::string where = "random map " + std::to_string(round);
    for (int q = 0; q < 30; ++q) {
      // Endpoints are drawn from all tiles, walls included.
      const Tile a = random_tile(map, rng);
      expect_same(map, a, q == 0 ? a : random_tile(map, rng), where);
    }
    // Off-map endpoints.
    expect_same(map, Tile{-1, 0}, Tile{0, 0}, where);
    expect_same(map, Tile{0, 0}, Tile{map.width(), map.height()}, where);
  }
  EXPECT_GT(found, 500u);
  EXPECT_GT(unreachable, 500u);

  // The generator's own maps: the SmallVille segment, a two-segment
  // concatenation (whose divider makes cross-segment goals unreachable),
  // the plaza and urban_grid.
  const GridMap segment = GridMap::smallville(25);
  const std::pair<std::string, GridMap> generator_maps[] = {
      {"smallville", segment},
      {"smallville x2", GridMap::concatenate(segment, 2)},
      {"plaza", GridMap::plaza()},
      {"urban_grid", GridMap::urban_grid()},
  };
  for (const auto& [where, map] : generator_maps) {
    for (int q = 0; q < 40; ++q) {
      expect_same(map, nearest_walkable(map, random_tile(map, rng)),
                  nearest_walkable(map, random_tile(map, rng)), where);
    }
    for (const Arena& from : map.arenas()) {
      expect_same(map, nearest_walkable(map, from.rect.center()),
                  nearest_walkable(map, map.arenas().front().rect.center()),
                  where);
    }
  }

  // Searches that cross many f levels: a 300x200 map cut by a wall with
  // one gap, and a serpentine maze whose walls leave a gap at alternate
  // ends, so a path across it doubles back through every corridor.
  GridMap cut(300, 200);
  cut.block_rect(Rect{150, 0, 150, 199});
  cut.set_walkable(Tile{150, 163}, true);
  GridMap maze(61, 41);
  for (std::int32_t x = 1; x < maze.width(); x += 2) {
    maze.block_rect(Rect{x, 0, x, maze.height() - 1});
    maze.set_walkable(Tile{x, (x / 2) % 2 == 0 ? maze.height() - 1 : 0}, true);
  }
  for (const auto& [where, map] :
       {std::pair<std::string, const GridMap&>{"cut 300x200", cut},
        std::pair<std::string, const GridMap&>{"serpentine", maze}}) {
    for (int q = 0; q < 20; ++q) {
      expect_same(map, nearest_walkable(map, random_tile(map, rng)),
                  nearest_walkable(map, random_tile(map, rng)), where);
    }
    expect_same(map, Tile{0, 0}, Tile{map.width() - 1, map.height() - 1},
                where);
  }

  // Scratch state is reused across searches on one thread: an unreachable
  // search drains the open list, and the reachable search after it (on
  // the same map, then on a smaller one) must still match.
  GridMap sealed = cut;
  sealed.set_walkable(Tile{150, 163}, false);
  expect_same(sealed, Tile{3, 5}, Tile{297, 190}, "sealed 300x200");
  expect_same(sealed, Tile{3, 5}, Tile{140, 190}, "sealed 300x200");
  expect_same(maze, Tile{0, 40}, Tile{60, 0}, "serpentine after sealed");
}

TEST(Pathfinding, NearestWalkable) {
  GridMap map(10, 10);
  map.block_rect(Rect{3, 3, 5, 5});
  EXPECT_EQ(nearest_walkable(map, Tile{7, 7}), (Tile{7, 7}));
  const Tile near = nearest_walkable(map, Tile{4, 4});
  EXPECT_TRUE(map.walkable(near));
  EXPECT_LE(chebyshev(near.center(), Pos{4, 4}), 2.0);
}

class WorldStateTest : public ::testing::Test {
 protected:
  WorldStateTest() : map_(GridMap(20, 20)) {
    map_.add_object("fountain", Tile{10, 10});
  }
  GridMap map_;
};

TEST_F(WorldStateTest, MoveCommitAndPerception) {
  WorldState w(&map_, {Tile{1, 1}, Tile{3, 1}, Tile{15, 15}});
  EXPECT_EQ(w.tile_of(0), (Tile{1, 1}));
  std::vector<StepIntent> intents(1);
  intents[0].agent = 0;
  intents[0].move_to = Tile{2, 1};
  const auto outcomes = w.resolve_conflict_and_commit(0, intents);
  EXPECT_TRUE(outcomes[0].move_ok);
  EXPECT_EQ(w.tile_of(0), (Tile{2, 1}));
  EXPECT_EQ(w.agents_within(Pos{2, 1}, 2.0), (std::vector<AgentId>{0, 1}));
}

TEST_F(WorldStateTest, MoveConflictLowestIdWins) {
  WorldState w(&map_, {Tile{1, 1}, Tile{3, 1}});
  std::vector<StepIntent> intents(2);
  intents[0].agent = 1;  // shuffled order: resolution must sort by id
  intents[0].move_to = Tile{2, 1};
  intents[1].agent = 0;
  intents[1].move_to = Tile{2, 1};
  const auto outcomes = w.resolve_conflict_and_commit(0, intents);
  // outcomes are in id order after sorting
  EXPECT_EQ(outcomes[0].agent, 0);
  EXPECT_TRUE(outcomes[0].move_ok);
  EXPECT_EQ(outcomes[1].agent, 1);
  EXPECT_FALSE(outcomes[1].move_ok);
  EXPECT_EQ(w.tile_of(0), (Tile{2, 1}));
  EXPECT_EQ(w.tile_of(1), (Tile{3, 1}));
}

TEST_F(WorldStateTest, CannotMoveOntoStationaryAgent) {
  WorldState w(&map_, {Tile{1, 1}, Tile{2, 1}});
  std::vector<StepIntent> intents(1);
  intents[0].agent = 0;
  intents[0].move_to = Tile{2, 1};
  const auto outcomes = w.resolve_conflict_and_commit(0, intents);
  EXPECT_FALSE(outcomes[0].move_ok);
}

TEST_F(WorldStateTest, SwapAllowedWhenBothVacate) {
  WorldState w(&map_, {Tile{1, 1}, Tile{2, 1}});
  std::vector<StepIntent> intents(2);
  intents[0].agent = 0;
  intents[0].move_to = Tile{2, 1};
  intents[1].agent = 1;
  intents[1].move_to = Tile{1, 1};
  const auto outcomes = w.resolve_conflict_and_commit(0, intents);
  EXPECT_TRUE(outcomes[0].move_ok);
  EXPECT_TRUE(outcomes[1].move_ok);
  EXPECT_EQ(w.tile_of(0), (Tile{2, 1}));
  EXPECT_EQ(w.tile_of(1), (Tile{1, 1}));
}

TEST_F(WorldStateTest, SpeedLimitEnforced) {
  WorldState w(&map_, {Tile{1, 1}});
  std::vector<StepIntent> intents(1);
  intents[0].agent = 0;
  intents[0].move_to = Tile{5, 5};  // too far for one step
  const auto outcomes = w.resolve_conflict_and_commit(0, intents);
  EXPECT_FALSE(outcomes[0].move_ok);
  EXPECT_EQ(w.tile_of(0), (Tile{1, 1}));
}

TEST_F(WorldStateTest, ObjectClaimsAdjacencyAndContention) {
  WorldState w(&map_, {Tile{10, 11}, Tile{11, 10}, Tile{1, 1}});
  std::vector<StepIntent> intents(3);
  for (int i = 0; i < 3; ++i) {
    intents[static_cast<std::size_t>(i)].agent = i;
    intents[static_cast<std::size_t>(i)].claim_object = "fountain";
  }
  const auto outcomes = w.resolve_conflict_and_commit(0, intents);
  EXPECT_TRUE(outcomes[0].claim_ok);    // adjacent, lowest id
  EXPECT_FALSE(outcomes[1].claim_ok);   // adjacent but lost
  EXPECT_FALSE(outcomes[2].claim_ok);   // too far away
  ASSERT_NE(w.object_holder("fountain"), nullptr);
  EXPECT_EQ(*w.object_holder("fountain"), "agent_0");
  // Held object rejects later claimers.
  std::vector<StepIntent> again(1);
  again[0].agent = 1;
  again[0].claim_object = "fountain";
  EXPECT_FALSE(w.resolve_conflict_and_commit(1, again)[0].claim_ok);
}

TEST_F(WorldStateTest, EventsFilteredAndSorted) {
  WorldState w(&map_, {Tile{5, 5}, Tile{6, 5}, Tile{15, 15}});
  std::vector<StepIntent> intents(3);
  for (int i = 0; i < 3; ++i) {
    intents[static_cast<std::size_t>(i)].agent = i;
    intents[static_cast<std::size_t>(i)].emit_event =
        "ev" + std::to_string(i);
  }
  w.resolve_conflict_and_commit(3, intents);
  const auto near = w.events_near(Pos{5, 5}, 4.0, 3, 3);
  ASSERT_EQ(near.size(), 2u);
  EXPECT_EQ(near[0].source, 0);
  EXPECT_EQ(near[1].source, 1);
  EXPECT_TRUE(w.events_near(Pos{5, 5}, 4.0, 4, 9).empty());
  EXPECT_EQ(w.event_count(), 3u);
}

TEST_F(WorldStateTest, AgentsWithinMatchesLinearScan) {
  // The shared-index perception query must equal the obvious O(n) scan
  // for randomized placements, centers, and radii (including radii far
  // beyond the index cell size and zero-radius self-hits).
  Rng rng(123);
  GridMap map(40, 40);
  std::vector<Tile> tiles;
  for (int i = 0; i < 60; ++i) {
    tiles.push_back(Tile{static_cast<std::int32_t>(rng.uniform_int(0, 39)),
                         static_cast<std::int32_t>(rng.uniform_int(0, 39))});
  }
  WorldState w(&map, tiles);
  for (int probe = 0; probe < 40; ++probe) {
    const Pos center{rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0)};
    const double radius = rng.uniform(0.0, probe % 4 == 0 ? 60.0 : 8.0);
    std::vector<AgentId> brute;
    for (std::size_t i = 0; i < tiles.size(); ++i) {
      if (euclidean(tiles[i].center(), center) <= radius) {
        brute.push_back(static_cast<AgentId>(i));
      }
    }
    EXPECT_EQ(w.agents_within(center, radius), brute)
        << "probe " << probe << " radius " << radius;
  }
}

TEST(WorldStateGraph, NodesAreVenuesMovesFollowEdges) {
  // Graph mode: legality is edge membership, and nodes hold crowds — the
  // exclusive-occupancy rules of grid mode must NOT apply.
  const CsrGraph graph({{1}, {0, 2}, {1, 3}, {2}});
  GridMap substrate(4, 1);
  WorldState w(&substrate, {Tile{0, 0}, Tile{1, 0}, Tile{1, 0}}, &graph);
  EXPECT_TRUE(w.graph_world());
  EXPECT_EQ(w.tile_of(1), w.tile_of(2));  // two agents share node 1

  // Edge move onto an occupied node succeeds (venues, not tiles).
  std::vector<StepIntent> intents(1);
  intents[0].agent = 0;
  intents[0].move_to = Tile{1, 0};
  auto outcomes = w.resolve_conflict_and_commit(0, intents);
  EXPECT_TRUE(outcomes[0].move_ok);
  EXPECT_EQ(w.tile_of(0), (Tile{1, 0}));  // three agents on node 1 now

  // Non-edge hops are denied: node 1's neighbors are {0, 2}, not 3.
  intents[0].move_to = Tile{3, 0};
  outcomes = w.resolve_conflict_and_commit(1, intents);
  EXPECT_FALSE(outcomes[0].move_ok);
  EXPECT_EQ(w.tile_of(0), (Tile{1, 0}));

  // Staying put is always legal; out-of-bounds nodes are denied.
  intents[0].move_to = Tile{1, 0};
  EXPECT_TRUE(w.resolve_conflict_and_commit(2, intents)[0].move_ok);
  intents[0].move_to = Tile{7, 0};
  EXPECT_FALSE(w.resolve_conflict_and_commit(3, intents)[0].move_ok);

  // Two agents converging on the same node both win — no conflict.
  std::vector<StepIntent> both(2);
  both[0].agent = 1;
  both[0].move_to = Tile{2, 0};
  both[1].agent = 2;
  both[1].move_to = Tile{2, 0};
  const auto pair = w.resolve_conflict_and_commit(4, both);
  EXPECT_TRUE(pair[0].move_ok);
  EXPECT_TRUE(pair[1].move_ok);
  EXPECT_EQ(w.tile_of(1), (Tile{2, 0}));
  EXPECT_EQ(w.tile_of(2), (Tile{2, 0}));
}

TEST_F(WorldStateTest, StateHashDetectsDifferences) {
  WorldState a(&map_, {Tile{1, 1}, Tile{2, 2}});
  WorldState b(&map_, {Tile{1, 1}, Tile{2, 2}});
  EXPECT_EQ(a.state_hash(), b.state_hash());
  std::vector<StepIntent> intents(1);
  intents[0].agent = 0;
  intents[0].move_to = Tile{1, 2};
  a.resolve_conflict_and_commit(0, intents);
  EXPECT_NE(a.state_hash(), b.state_hash());
  b.resolve_conflict_and_commit(0, intents);
  EXPECT_EQ(a.state_hash(), b.state_hash());
}

// ---- Region partitions (strip boundaries) ----

TEST(RegionPartition, EqualWidthStripsAreHalfOpenAndClamp) {
  // Four 25-wide strips over [0, 100]: a position on a boundary belongs
  // to the right strip, and positions outside the range clamp to the
  // edge strips, so every position and box has a strip.
  const RegionPartition part(4, 0.0, 100.0);
  const std::pair<double, std::int32_t> homes[] = {
      {-10.0, 0}, {0.0, 0},  {24.999, 0}, {25.0, 1},  {49.0, 1},
      {50.0, 2},  {74.9, 2}, {75.0, 3},   {100.0, 3}, {250.0, 3}};
  for (const auto& [x, strip] : homes) {
    EXPECT_EQ(part.shard_of(Pos{x, 0.0}), strip) << "x=" << x;
  }
  EXPECT_EQ(part.shard_of(Pos{std::nan(""), 0.0}), 0);
  const auto inside = part.span_of_box(Pos{12.5, 0.0}, 3.0);
  EXPECT_TRUE(inside.single());
  EXPECT_EQ(inside.lo, 0);
  const auto straddle = part.span_of_box(Pos{49.0, 0.0}, 3.0);
  EXPECT_EQ(straddle.lo, 1);
  EXPECT_EQ(straddle.hi, 2);
  const auto wide = part.span_of_box(Pos{50.0, 0.0}, 30.0);
  EXPECT_EQ(wide.lo, 0);
  EXPECT_EQ(wide.hi, 3);
  // A degenerate range puts everything in strip 0.
  const RegionPartition flat(4, 5.0, 5.0);
  for (double x : {-1.0, 5.0, 9.0}) {
    EXPECT_EQ(flat.shard_of(Pos{x, 0.0}), 0);
  }
}

}  // namespace
}  // namespace aimetro::world
