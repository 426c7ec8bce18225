#include "core/metro_controller.h"

#include "common/check.h"

namespace aimetro::core {

MetroController::MetroController(DependencyParams params,
                                 std::shared_ptr<const Metric> metric,
                                 std::vector<Pos> initial_positions,
                                 Step target_step, ScanMode mode,
                                 std::int32_t shards)
    : board_(params, metric ? std::move(metric) : make_euclidean(),
             std::move(initial_positions), target_step, mode, shards) {}

std::vector<MetroController::Routed> MetroController::route(
    std::vector<AgentCluster> ready) const {
  // Members are running between pop and commit, so the first member's
  // position is stable until the cluster commits.
  std::vector<Routed> routed;
  routed.reserve(ready.size());
  for (AgentCluster& cluster : ready) {
    const std::int32_t strip =
        board_.shards() == 1
            ? 0
            : board_.shard_of_pos(board_.pos_of(cluster.members.front()));
    routed.push_back(Routed{strip, std::move(cluster)});
  }
  return routed;
}

std::vector<MetroController::Routed> MetroController::pop_ready() {
  return route(board_.pop_ready_clusters());
}

MetroController::Path MetroController::classify(const Moves& moves) const {
  // One strip: every commit is cross, and no floor is read. Otherwise the
  // floor is sampled once, so classification and the interior commit
  // bound their probe radii identically (the header says why it stays a
  // lower bound).
  Path path;
  if (board_.shards() == 1) return path;
  path.floor = board_.min_step();
  path.strip = board_.local_commit_shard(moves, path.floor);
  return path;
}

std::vector<MetroController::Routed> MetroController::commit_interior(
    const Path& path, const Moves& moves) {
  AIM_CHECK(path.interior());
  board_.commit(moves, path.floor);
  // A confined commit can only release clusters homed in its own strip.
  return route(board_.pop_ready_clusters_in_shard(path.strip));
}

std::vector<MetroController::Routed> MetroController::commit_cross(
    const Moves& moves) {
  board_.commit(moves);
  return route(board_.pop_ready_clusters());
}

}  // namespace aimetro::core
