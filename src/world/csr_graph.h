// A fixed undirected graph in compressed sparse row (CSR) form: every
// node's neighbors sit in one flat array, indexed by per-node offsets, so
// a BFS reads two contiguous arrays instead of one separately allocated
// row per node.
//
// A graph world has no other graph type. world::newman_watts_graph builds
// it, trace::SimulationTrace carries it (the v2 trace stream stores it),
// world::WorldState and core::mine_oracle read the trace's copy, and
// core::GraphMetric keeps its own, which the scoreboard's
// world::GraphIndex walks. The constructors are the one shape check.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace aimetro::world {

class CsrGraph {
 public:
  /// The graph with no nodes, which grid traces carry.
  CsrGraph() = default;

  /// Node i's neighbors are targets[offsets[i] .. offsets[i + 1]).
  /// Check-fails, naming the problem, on an empty graph, on offsets that
  /// do not partition `targets`, on a row that is not ascending, on a
  /// neighbor id out of range, and on a one-way edge (j in row i but i
  /// not in row j).
  CsrGraph(std::vector<std::uint32_t> offsets,
           std::vector<std::int32_t> targets);
  /// The same from one row per node: `adjacency[i]` lists node i's
  /// neighbors.
  explicit CsrGraph(const std::vector<std::vector<std::int32_t>>& adjacency);

  bool empty() const { return offsets_.empty(); }
  std::int32_t node_count() const {
    return empty() ? 0 : static_cast<std::int32_t>(offsets_.size() - 1);
  }

  /// The neighbors of `node`, ascending.
  std::span<const std::int32_t> neighbors(std::int32_t node) const {
    const auto k = static_cast<std::size_t>(node);
    return {targets_.data() + offsets_[k], targets_.data() + offsets_[k + 1]};
  }

  friend bool operator==(const CsrGraph&, const CsrGraph&) = default;

 private:
  void check_shape() const;

  // Node i's neighbors are targets_[offsets_[i] .. offsets_[i + 1]).
  std::vector<std::uint32_t> offsets_;
  std::vector<std::int32_t> targets_;
};

}  // namespace aimetro::world
