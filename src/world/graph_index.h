// Adjacency-bucket index over agent positions on a fixed undirected graph
// — the graph-metric sibling of world::SpatialIndex.
//
// SpatialIndex answers "who is within r of here" for Chebyshev-bounded
// metrics with a uniform-grid box probe; GraphIndex answers the same
// question for hop-count metrics with a bounded BFS over a flat
// world::CsrGraph: each graph node keeps a bucket of the agents standing
// on it, and query_ball_into walks the graph outward floor(r) levels,
// collecting the bucket of every occupied node it touches (a per-node
// occupancy count lets the walk pass empty nodes without reading their
// bucket). Hop distances are integral, so the depth-floor(r) ball is not
// merely a superset of the metric ball — it IS the metric ball; callers
// still apply their exact predicates on the candidates, exactly as they
// do with box probes. The walk also labels every node it reaches with its
// BFS level, so those predicates read each candidate's hop distance from
// the walk (hop_distance) instead of running a second BFS. hops_within
// runs the same walk without collecting, stopping at its target: the
// scoreboard's speed check.
//
// Probes center on agents, and most agents stay put from one probe to the
// next, so each occupied node keeps the BFS order its walks have built:
// the nodes in level order plus where each level ends. A ball centered
// on an occupied node replays that order up to floor(r) — stamping each
// node's level for hop_distance and collecting the occupied buckets, with
// no neighbor scans — and the BFS continues from the last stored level
// only when a deeper ball is asked for. An order depends only on the fixed
// graph and its start node, so it never goes stale; it is released when
// the node's last agent leaves, so at most one order is kept per occupied
// node. Centers on empty nodes and hops_within walk a scratch order. The
// stored order is the walk's queue, so there is one BFS loop.
//
// Hot-path design mirrors SpatialIndex: query_ball_into fills a
// caller-owned buffer sorted by id (the order the historical full scan
// visited agents, which is what keeps indexed scoreboard bookkeeping
// byte-identical to brute force), and the BFS scratch (epoch-stamped
// visited marks, the orders' slab and its free list) is reused across
// calls so steady-state queries allocate nothing. Not internally
// synchronized — callers serialize access, as the scoreboard's owners
// already do.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "world/csr_graph.h"

namespace aimetro::world {

class GraphIndex {
 public:
  /// `graph` is non-owning and must outlive the index. Positions encode
  /// node ids in `Pos::x` (y ignored), matching core::GraphMetric.
  explicit GraphIndex(const CsrGraph* graph);

  void insert(AgentId id, Pos pos);
  /// Insert every (id, pos) pair at once (ids must be distinct and not
  /// yet indexed).
  void bulk_insert(const std::vector<std::pair<AgentId, Pos>>& items);
  /// No-op if absent.
  void remove(AgentId id);
  /// Insert-or-move.
  void update(AgentId id, Pos pos);
  bool contains(AgentId id) const { return positions_.count(id) > 0; }
  Pos position(AgentId id) const;
  std::size_t size() const { return positions_.size(); }
  std::int32_t node_count() const { return graph_->node_count(); }

  /// All agents within floor(hop_radius) hops of `center`'s node, sorted
  /// by id, into a caller-owned buffer (cleared first; keeps its capacity
  /// across calls).
  void query_ball_into(Pos center, double hop_radius,
                       std::vector<AgentId>* out) const;

  /// Allocating convenience form of query_ball_into.
  std::vector<AgentId> query_ball(Pos center, double hop_radius) const;

  /// Hop distance from the center of the last ball walk (query_ball_into
  /// or query_ball) to `pos`: inside that ball it equals
  /// core::GraphMetric::distance(center, pos); outside it (and before the
  /// first walk) it is +inf. A result is valid until the next walk;
  /// callers serialize walks and lookups as they serialize every other
  /// call.
  double hop_distance(Pos pos) const;

  /// Hop distance from `from` to `to` when it is at most
  /// floor(hop_radius), +inf otherwise. A stay (same node) walks nothing;
  /// otherwise the walk labels levels only until `to` is labeled and
  /// collects no agents. It may replace the walk hop_distance reads.
  double hops_within(Pos from, Pos to, double hop_radius) const;

 private:
  /// A node's mark from the last walk that reached it.
  struct Visit {
    std::uint32_t epoch = 0;
    std::int32_t level = 0;  // BFS level (hops from that walk's center)
  };

  /// A BFS order from one start node: every node labeled so far, level by
  /// level, and one past each level's last node. Level 0 is the start.
  /// An empty last level means the start's component is exhausted.
  struct Order {
    std::vector<std::int32_t> nodes;
    std::vector<std::uint32_t> level_end;
    void reset(std::int32_t start);
  };

  std::int32_t node_of(Pos p) const;
  /// Move `node`'s occupancy by `delta`, releasing its order when the
  /// last agent leaves.
  void occupy(std::size_t node, std::int32_t delta);
  /// `node`'s stored order, or a fresh one-node order from the free list
  /// when it has none.
  Order& order_of(std::int32_t node) const;
  /// The one BFS, under a new epoch: replays `order` out to `depth` hops,
  /// labeling each node with its level, then extends it level by level
  /// from its last level while it is shallower than `depth`. Appends the
  /// agents on every labeled node to `out` when it is non-null (unsorted)
  /// and stops as soon as node `stop` is labeled (-1: never; the order is
  /// then left cut short, so only the scratch order takes a stop).
  void walk(Order& order, std::int32_t depth, std::vector<AgentId>* out,
            std::int32_t stop) const;

  const CsrGraph* graph_;  // non-owning
  std::vector<std::vector<AgentId>> buckets_;  // agents standing on node i
  /// buckets_[i].size(), in one dense array so a walk skips empty nodes
  /// without touching their bucket.
  std::vector<std::int32_t> occupancy_;
  std::unordered_map<AgentId, Pos> positions_;
  // BFS scratch, epoch-stamped so no per-query clearing is needed. The
  // stamps start at 0 and epoch_ at 1, so before the first walk no node
  // reads as visited.
  mutable std::vector<Visit> visits_;
  mutable std::uint32_t epoch_ = 1;
  /// Per-node slot in orders_ (-1: none). Only occupied nodes hold one.
  mutable std::vector<std::int32_t> order_slot_;
  /// The orders' slab. Freed slots go on free_orders_ and are reused
  /// first, keeping their vectors' capacity.
  mutable std::vector<Order> orders_;
  mutable std::vector<std::int32_t> free_orders_;
  /// The order of walks from empty nodes and of hops_within.
  mutable Order scratch_;
};

}  // namespace aimetro::world
