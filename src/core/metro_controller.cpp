#include "core/metro_controller.h"

#include <limits>

#include "common/check.h"

namespace aimetro::core {

namespace {

/// Sentinel for "no reshard boundary left".
constexpr Step kNoReshard = std::numeric_limits<Step>::max();

}  // namespace

MetroController::MetroController(DependencyParams params,
                                 std::shared_ptr<const Metric> metric,
                                 std::vector<Pos> initial_positions,
                                 Step target_step, ScanMode mode,
                                 std::int32_t shards,
                                 world::PartitionKind partition,
                                 std::vector<Step> reshard_at)
    : board_(params, metric ? std::move(metric) : make_euclidean(),
             std::move(initial_positions), target_step, mode, shards,
             partition),
      reshard_at_(std::move(reshard_at)),
      next_boundary_(reshard_at_.empty() ? kNoReshard : reshard_at_.front()) {
  for (std::size_t i = 0; i < reshard_at_.size(); ++i) {
    AIM_CHECK_MSG(reshard_at_[i] > 0 &&
                      (i == 0 || reshard_at_[i - 1] < reshard_at_[i]),
                  "reshard_at must be positive and strictly ascending");
  }
  wait_us_.assign(static_cast<std::size_t>(board_.shards()), 0);
  rebalance_base_.assign(wait_us_.size(), {0, 0});
}

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

MetroController::Path MetroController::classify(Step step,
                                                const Moves& moves) const {
  // The floor is sampled once, so classification and the interior commit
  // bound their probe radii identically; it can only lag the true
  // minimum, which widens the (exactly filtered) probes.
  Path path;
  path.floor = floor_.load(std::memory_order_acquire);
  if (step + 1 >= next_boundary_.load(std::memory_order_acquire)) return path;
  path.strip = board_.local_commit_shard(moves, path.floor);
  return path;
}

std::vector<MetroController::Routed> MetroController::commit_interior(
    const Path& path, const Moves& moves, std::uint64_t wait_us) {
  AIM_CHECK(path.interior());
  wait_us_[static_cast<std::size_t>(path.strip)] += wait_us;
  board_.commit(moves, path.floor);
  // A confined commit can only release clusters homed in its own strip.
  return route(board_.pop_ready_clusters_in_shard(path.strip));
}

std::vector<MetroController::Routed> MetroController::commit_cross(
    const Moves& moves) {
  board_.commit(moves);
  floor_.store(board_.min_step(), std::memory_order_release);
  maybe_reshard();
  return route(board_.pop_ready_clusters());
}

void MetroController::maybe_reshard() {
  if (next_reshard_ >= reshard_at_.size()) return;
  const Step now = board_.min_step();
  if (now < reshard_at_[next_reshard_]) return;
  // Consume every boundary the minimum has cleared (several can fall in
  // one commit when boundaries are close together), but rebalance once.
  while (next_reshard_ < reshard_at_.size() &&
         reshard_at_[next_reshard_] <= now) {
    ++next_reshard_;
  }
  next_boundary_.store(next_reshard_ < reshard_at_.size()
                           ? reshard_at_[next_reshard_]
                           : kNoReshard,
                       std::memory_order_release);
  const std::int32_t shards = board_.shards();
  if (shards <= 1) return;
  // Commits carry the load; every millisecond a caller waited on a strip
  // counts like one more commit, so a strip that serializes gets split
  // even if its commit count looks modest.
  std::vector<double> weights(static_cast<std::size_t>(shards), 0.0);
  for (std::int32_t s = 0; s < shards; ++s) {
    const auto i = static_cast<std::size_t>(s);
    const std::uint64_t commits = board_.shard_stats(s).commits;
    weights[i] =
        static_cast<double>(commits - rebalance_base_[i].first) +
        static_cast<double>(wait_us_[i] - rebalance_base_[i].second) / 1000.0;
    rebalance_base_[i] = {commits, wait_us_[i]};
  }
  board_.repartition(board_.partition().rebalanced(weights));
  ++reshards_;
}

}  // namespace aimetro::core
