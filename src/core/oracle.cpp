#include "core/oracle.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "common/check.h"
#include "world/graph_index.h"
#include "world/spatial_index.h"

namespace aimetro::core {

namespace {

/// Plain union-find over dense agent ids.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

std::vector<AgentId> OracleDependencies::group_of(Step rel,
                                                  AgentId agent) const {
  if (rel >= 0 && static_cast<std::size_t>(rel) < groups_by_step.size()) {
    for (const auto& group : groups_by_step[static_cast<std::size_t>(rel)]) {
      if (std::binary_search(group.begin(), group.end(), agent)) return group;
    }
  }
  return {agent};
}

OracleDependencies mine_oracle(const trace::SimulationTrace& trace) {
  OracleDependencies out;
  out.groups_by_step.resize(static_cast<std::size_t>(trace.n_steps));

  // Pre-bucket explicit interactions by relative step.
  std::unordered_map<Step, std::vector<const trace::Interaction*>> explicit_by;
  for (const auto& in : trace.interactions) {
    explicit_by[in.step - trace.start_step].push_back(&in);
  }

  const bool graph = trace.world_kind == trace::WorldKind::kGraph;
  const auto n = static_cast<std::size_t>(trace.n_agents);
  std::vector<AgentId> ball;
  // Both kinds of world move every agent in one index from step to step,
  // so the index is laid out once rather than per step. The graph index
  // walks the trace's own graph (a grid trace's has no nodes).
  world::SpatialIndex grid_index(std::max(4.0, trace.radius_p));
  world::GraphIndex graph_index(&trace.graph_adjacency);
  for (Step rel = 0; rel < trace.n_steps; ++rel) {
    UnionFind uf(n);
    const auto at = static_cast<std::size_t>(rel);
    // Observation proximity at the start of the step: Euclidean tile
    // distance on grids, hop distance over the social graph otherwise.
    for (std::size_t i = 0; i < n; ++i) {
      const Pos p = trace.agents[i].positions[at].center();
      if (graph) {
        graph_index.update(static_cast<AgentId>(i), p);
      } else {
        grid_index.update(static_cast<AgentId>(i), p);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Pos p = trace.agents[i].positions[at].center();
      if (graph) {
        graph_index.query_ball_into(p, trace.radius_p, &ball);
      } else {
        ball = grid_index.query_radius(p, trace.radius_p);
      }
      for (AgentId j : ball) {
        if (static_cast<std::size_t>(j) > i) {
          uf.unite(i, static_cast<std::size_t>(j));
        }
      }
    }
    if (auto it = explicit_by.find(rel); it != explicit_by.end()) {
      for (const trace::Interaction* in : it->second) {
        uf.unite(static_cast<std::size_t>(in->a),
                 static_cast<std::size_t>(in->b));
      }
    }
    // Materialize components of size >= 2.
    std::unordered_map<std::size_t, std::vector<AgentId>> comps;
    for (std::size_t i = 0; i < n; ++i) {
      comps[uf.find(i)].push_back(static_cast<AgentId>(i));
    }
    auto& groups = out.groups_by_step[static_cast<std::size_t>(rel)];
    for (auto& [root, members] : comps) {
      (void)root;
      if (members.size() >= 2) {
        std::sort(members.begin(), members.end());
        groups.push_back(std::move(members));
      }
    }
    std::sort(groups.begin(), groups.end());
  }
  return out;
}

}  // namespace aimetro::core
