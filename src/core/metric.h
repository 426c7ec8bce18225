// Distance metrics for the dependency rules.
//
// The paper derives its rules for Euclidean space but notes they "can
// extend to non-Euclidean spaces, such as social networks" (§6): the only
// property the derivation needs is the triangle-style bound
// dist(A', B) >= dist(A, B) - max_vel when A moves at most max_vel per
// step. Any metric with that property plugs in here; GraphMetric models a
// social-network world where distance is hop count and "movement" is
// changing one's neighborhood by a bounded amount per step.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/types.h"
#include "world/csr_graph.h"

namespace aimetro::core {

class Metric {
 public:
  virtual ~Metric() = default;
  virtual double distance(const Pos& a, const Pos& b) const = 0;
  virtual std::string name() const = 0;

  /// True when distance(a, b) >= chebyshev(a, b) for every pair, i.e. a
  /// Chebyshev box of radius r around `a` is a superset of the metric
  /// ball of radius r. This is the property that lets the scoreboard
  /// answer "who is within r of a" with a world::SpatialIndex box probe;
  /// metrics without it (GraphMetric: positions encode node ids, not
  /// coordinates) use the graph index below, or fall back to full scans.
  virtual bool lower_bounded_by_chebyshev() const { return false; }

  /// Non-null when this metric is hop count over a fixed undirected graph
  /// whose positions encode node ids in `Pos::x`: the flat (CSR) graph.
  /// The scoreboard builds a world::GraphIndex over it and answers "who
  /// is within r of a" with a hop-bounded BFS ball probe (hop distances
  /// are integral, so the depth-floor(r) ball IS the metric ball — see
  /// "Dependency core" in docs/ARCHITECTURE.md), reading each candidate's
  /// hop distance from that walk. The pointer must stay valid for the
  /// metric's lifetime.
  virtual const world::CsrGraph* graph_adjacency() const { return nullptr; }
};

class EuclideanMetric final : public Metric {
 public:
  double distance(const Pos& a, const Pos& b) const override {
    return euclidean(a, b);
  }
  std::string name() const override { return "euclidean"; }
  bool lower_bounded_by_chebyshev() const override { return true; }
};

class ManhattanMetric final : public Metric {
 public:
  double distance(const Pos& a, const Pos& b) const override {
    return manhattan(a, b);
  }
  std::string name() const override { return "manhattan"; }
  bool lower_bounded_by_chebyshev() const override { return true; }
};

class ChebyshevMetric final : public Metric {
 public:
  double distance(const Pos& a, const Pos& b) const override {
    return chebyshev(a, b);
  }
  std::string name() const override { return "chebyshev"; }
  bool lower_bounded_by_chebyshev() const override { return true; }
};

/// Hop-count metric over a fixed undirected graph (e.g. a social network).
/// Positions encode node ids in `Pos::x` (y ignored). Distances between
/// disconnected nodes are a large finite value so every pair is comparable.
///
/// Serves the brute-force scoreboard path, Scoreboard::check_invariants
/// and tests. An indexed scoreboard never calls distance(): it reads hop
/// distances from its own world::GraphIndex ball walks.
///
/// The metric keeps the graph once, flat (world::CsrGraph), built from the
/// nested adjacency it is handed; the scoreboard's GraphIndex walks that
/// same copy. Distances come from per-source BFS rows over it, expanded
/// lazily, level by level, only until the queried target is labeled, so
/// a 10k-node world never materializes the all-pairs table (which would
/// be O(N^2) memory).
/// Rows are cached up to a bounded budget and rebuilt on demand after a
/// flush. Thread-safe: the cache sits behind its own lock
/// (uncontended in practice — both backends call the metric under their
/// scheduling locks).
class GraphMetric final : public Metric {
 public:
  /// `adjacency[i]` lists the neighbors of node i. The graph must be
  /// undirected: a one-way edge (j in adjacency[i] but i not in
  /// adjacency[j]) check-fails, naming the edge.
  explicit GraphMetric(const std::vector<std::vector<std::int32_t>>& adjacency);

  double distance(const Pos& a, const Pos& b) const override;
  std::string name() const override { return "graph"; }
  const world::CsrGraph* graph_adjacency() const override { return &graph_; }

  std::int32_t node_count() const { return graph_.node_count(); }
  static constexpr double kDisconnected = 1e9;

 private:
  /// BFS depth label. 32 bits: a shortest path visits each node at most
  /// once, so any node count an int32 id can address fits (social_net10000
  /// runs a 200k-node graph, which overflowed the original uint16 labels).
  using Depth = std::uint32_t;

  /// One source's BFS state: hop distances for labeled nodes, the frontier
  /// at depth `depth_done`, expandable one level at a time.
  struct BfsRow {
    std::vector<Depth> dist;             // kUnreached until labeled
    std::vector<std::int32_t> frontier;  // nodes at depth == depth_done
    Depth depth_done = 0;
  };
  static constexpr Depth kUnreached = 0xFFFFFFFFu;
  /// Cache flush budget in row bytes (~32 MB): at 10k nodes that is ~800
  /// rows, at 200k nodes ~40 — the cache is rebuilt from scratch when the
  /// budget is hit, never grown past it.
  static constexpr std::size_t kMaxCachedRowBytes = 32u << 20;

  std::size_t max_cached_rows() const {
    const std::size_t row_bytes =
        static_cast<std::size_t>(node_count()) * sizeof(Depth);
    return std::max<std::size_t>(1, kMaxCachedRowBytes / row_bytes);
  }

  BfsRow& row_for(std::int32_t src) const REQUIRES(cache_mutex_);

  world::CsrGraph graph_;
  mutable common::Mutex cache_mutex_{"metric.graph"};
  mutable std::unordered_map<std::int32_t, BfsRow> rows_
      GUARDED_BY(cache_mutex_);
};

std::shared_ptr<const Metric> make_euclidean();

}  // namespace aimetro::core
