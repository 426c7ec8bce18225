// A fixed undirected graph in compressed sparse row (CSR) form: every
// node's neighbors sit in one flat array, indexed by per-node offsets, so
// a BFS reads two contiguous arrays instead of one separately allocated
// row per node.
//
// A graph run keeps one of these: core::GraphMetric builds it from the
// nested adjacency a trace carries, walks it for its own BFS rows, and
// hands it out through Metric::graph_adjacency(), which is what the
// scoreboard's world::GraphIndex walks.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace aimetro::world {

class CsrGraph {
 public:
  /// `adjacency[i]` lists the neighbors of node i. Check-fails on an
  /// empty graph, on a neighbor id out of range, and, naming the edge, on
  /// a one-way edge (j in row i but i not in row j).
  explicit CsrGraph(const std::vector<std::vector<std::int32_t>>& adjacency);

  std::int32_t node_count() const {
    return static_cast<std::int32_t>(offsets_.size() - 1);
  }

  /// The neighbors of `node`, ascending.
  std::span<const std::int32_t> neighbors(std::int32_t node) const {
    const auto k = static_cast<std::size_t>(node);
    return {targets_.data() + offsets_[k], targets_.data() + offsets_[k + 1]};
  }

 private:
  // Node i's neighbors are targets_[offsets_[i] .. offsets_[i + 1]).
  std::vector<std::uint32_t> offsets_;
  std::vector<std::int32_t> targets_;
};

}  // namespace aimetro::world
