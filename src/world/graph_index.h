// Adjacency-bucket index over agent positions on a fixed undirected graph
// — the graph-metric sibling of world::SpatialIndex.
//
// SpatialIndex answers "who is within r of here" for Chebyshev-bounded
// metrics with a uniform-grid box probe; GraphIndex answers the same
// question for hop-count metrics with a bounded BFS: each graph node keeps
// a bucket of the agents standing on it, and query_ball_into walks the
// graph outward floor(r) levels, collecting every bucket it touches. Hop
// distances are integral, so the depth-floor(r) ball is not merely a
// superset of the metric ball — it IS the metric ball; callers still apply
// their exact predicates on the candidates, exactly as they do with box
// probes. The walk also labels every node it reaches with its BFS level,
// so those predicates read each candidate's hop distance from the walk
// (hop_distance) instead of running a second BFS.
//
// Hot-path design mirrors SpatialIndex: query_ball_into fills a
// caller-owned buffer sorted by id (the order the historical full scan
// visited agents, which is what keeps indexed scoreboard bookkeeping
// byte-identical to brute force), and the BFS scratch (epoch-stamped
// visited marks, frontier vectors) is reused across calls so steady-state
// queries allocate nothing. Not internally synchronized — callers
// serialize access, as the scoreboard's owners already do.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"

namespace aimetro::world {

class GraphIndex {
 public:
  /// `adjacency` is non-owning and must outlive the index;
  /// (*adjacency)[i] lists the neighbors of node i. Positions encode node
  /// ids in `Pos::x` (y ignored), matching core::GraphMetric.
  explicit GraphIndex(const std::vector<std::vector<std::int32_t>>* adjacency);

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
  std::int32_t node_count() const {
    return static_cast<std::int32_t>(adjacency_->size());
  }

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

 private:
  /// A node's mark from the last walk that reached it.
  struct Visit {
    std::uint32_t epoch = 0;
    std::int32_t level = 0;  // BFS level (hops from that walk's center)
  };

  std::int32_t node_of(Pos p) const;

  const std::vector<std::vector<std::int32_t>>* adjacency_;  // non-owning
  std::vector<std::vector<AgentId>> buckets_;  // agents standing on node i
  std::unordered_map<AgentId, Pos> positions_;
  // BFS scratch, epoch-stamped so no per-query clearing is needed. The
  // stamps start at 0 and epoch_ at 1, so before the first walk no node
  // reads as visited.
  mutable std::vector<Visit> visits_;
  mutable std::uint32_t epoch_ = 1;
  mutable std::vector<std::int32_t> frontier_;
  mutable std::vector<std::int32_t> next_frontier_;
};

}  // namespace aimetro::world
