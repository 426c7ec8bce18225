// §6 extension: the dependency rules in non-Euclidean spaces. Here the
// "world" is a social network — distance is hop count between accounts,
// perception radius 1 (you see your friends' posts), and max_vel 0
// (the follow graph is fixed during the episode). The scoreboard lets
// separate communities advance their conversation threads independently
// while each clique stays internally synchronized.
//
//   build/examples/social_network_sim
#include <cstdio>
#include <map>

#include "core/metric.h"
#include "core/scoreboard.h"

using namespace aimetro;

int main() {
  // Two 4-account friend cliques plus a lurker (node 8) who follows
  // nobody. Communities are independent; within a clique everyone sees
  // everyone's posts, so a clique must advance as one cluster.
  std::vector<std::vector<std::int32_t>> follows(9);
  auto link = [&](int a, int b) {
    follows[static_cast<std::size_t>(a)].push_back(b);
    follows[static_cast<std::size_t>(b)].push_back(a);
  };
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) link(i, j);          // clique 1: 0-3
  }
  for (int i = 4; i < 8; ++i) {
    for (int j = i + 1; j < 8; ++j) link(i, j);          // clique 2: 4-7
  }

  auto metric =
      std::make_shared<core::GraphMetric>(world::CsrGraph(follows));
  const core::DependencyParams params{/*radius_p=*/1.0, /*max_vel=*/0.0};
  std::vector<Pos> nodes;
  for (int i = 0; i < 9; ++i) nodes.push_back(Pos{static_cast<double>(i), 0});

  core::Scoreboard sb(params, metric, nodes, /*target_step=*/6);
  std::printf(
      "== Social-network simulation: 9 accounts, 2 cliques + lurker ==\n");
  std::uint64_t round = 0;
  std::map<Step, int> clique1_pace;
  while (!sb.all_done()) {
    auto ready = sb.pop_ready_clusters();
    std::printf("round %llu:\n", static_cast<unsigned long long>(round++));
    for (const auto& cluster : ready) {
      std::printf("  thread at step %d, accounts:", cluster.step);
      std::vector<std::pair<AgentId, Pos>> moves;
      for (AgentId m : cluster.members) {
        std::printf(" %d", m);
        moves.emplace_back(m, sb.pos_of(m));  // accounts do not move
      }
      std::printf("\n");
      sb.commit(moves);
    }
  }
  sb.check_invariants();
  std::printf(
      "\nDone: %llu cluster dispatches, mean cluster size %.2f.\n"
      "Each clique is one cluster (friends see each other's posts and must\n"
      "stay synchronized); the cliques and the lurker advance completely\n"
      "independently — no global lock-step over the social graph.\n",
      static_cast<unsigned long long>(sb.stats().clusters_dispatched),
      sb.stats().mean_cluster_size());
  return 0;
}
