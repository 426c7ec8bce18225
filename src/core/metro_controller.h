// The metropolis controller (§3.1, §3.6): the one owner of the dependency
// scoreboard and of every decision in the commit -> floor -> reshard ->
// pop protocol. The threaded engine calls its phases under the
// boundary-lag locks; the DES replay calls the same phases
// single-threaded, so both backends run one protocol from one copy.
//
// A committing caller runs two phases, classify and then the commit it
// picked:
//
//   classify(step, moves)   — interior or cross? Interior means the
//                             scoreboard proves the commit's influence
//                             region sits inside one strip s
//                             (Scoreboard::local_commit_shard) and no
//                             reshard boundary is near. Reads only state
//                             the committing cluster owns plus atomics.
//   commit_interior(path,…) — strip-local commit bounded by the probe
//                             floor classify sampled; pops strip s only.
//   commit_cross(moves)     — whole-board commit: refreshes the floor,
//                             fires a due reshard, pops every strip.
//
// Synchronization is the caller's (the engine's header comment spells
// out its locks): interior commits on distinct strips may run
// concurrently as long as each holds its strip exclusively and nothing
// holds the board exclusively; commit_cross and pop_ready need the board
// exclusively. The controller itself takes no lock.
//
// Reshard schedule: each boundary B in `reshard_at` forces every commit
// with step + 1 >= B onto the cross path, so the commit that raises
// min_step() past B is a cross commit, and that commit re-quantiles the
// partition (RegionPartition::rebalanced) by one weight per strip: the
// scoreboard's per-strip commits (Scoreboard::shard_stats) since the last
// rebalance plus the commit-wait milliseconds the caller reported for the
// strip. Placement never changes an observable result.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/scoreboard.h"

namespace aimetro::core {

class MetroController {
 public:
  using Moves = std::vector<std::pair<AgentId, Pos>>;

  /// A released cluster plus its home strip (the strip of its first
  /// member), resolved under the commit's hold — the partition may move
  /// at reshard points, so callers never route unlocked.
  struct Routed {
    std::int32_t strip = 0;
    AgentCluster cluster;
  };

  /// classify()'s verdict. strip >= 0: commit_interior on that strip,
  /// with `floor` bounding the probes; strip = -1: commit_cross.
  struct Path {
    std::int32_t strip = -1;
    Step floor = 0;
    bool interior() const { return strip >= 0; }
  };

  /// Builds the scoreboard (null `metric` = Euclidean). `reshard_at`
  /// must be positive and strictly ascending (check-fails otherwise).
  MetroController(DependencyParams params,
                  std::shared_ptr<const Metric> metric,
                  std::vector<Pos> initial_positions, Step target_step,
                  ScanMode mode, std::int32_t shards,
                  world::PartitionKind partition, std::vector<Step> reshard_at);

  /// Every ready cluster (the run's first dispatch). Board exclusive.
  std::vector<Routed> pop_ready();

  /// Which path a commit of `moves` by a cluster at `step` takes.
  Path classify(Step step, const Moves& moves) const;

  /// Interior commit on `path.strip`; `wait_us` is how long the caller
  /// waited for that strip (it weighs the strip at the next rebalance).
  /// Caller holds the strip exclusively and the board shared.
  std::vector<Routed> commit_interior(const Path& path, const Moves& moves,
                                      std::uint64_t wait_us);

  /// Cross commit: refreshes the probe floor, fires every reshard
  /// boundary min_step() has cleared (rebalancing once), pops all
  /// strips. Board exclusive.
  std::vector<Routed> commit_cross(const Moves& moves);

  /// Post-run (or board-exclusive) inspection.
  const Scoreboard& scoreboard() const { return board_; }
  /// Effective strip count, after the scoreboard's collapse rules.
  std::int32_t shards() const { return board_.shards(); }
  /// Rebalances performed (boundaries that fired with shards() > 1).
  std::uint64_t reshards() const { return reshards_; }

 private:
  std::vector<Routed> route(std::vector<AgentCluster> ready) const;
  void maybe_reshard();

  Scoreboard board_;
  std::vector<Step> reshard_at_;
  /// Index of the next unapplied boundary; board-exclusive only.
  std::size_t next_reshard_ = 0;
  /// reshard_at_[next_reshard_], or max() once none remain. Read
  /// lock-free by classify; only ever advances, so a stale read merely
  /// sends extra commits down the cross path.
  std::atomic<Step> next_boundary_;
  /// Monotonic lower bound on min_step(), refreshed by cross commits
  /// (the only ones that may read every strip's live-step counts).
  std::atomic<Step> floor_{0};
  /// Per-strip caller-reported commit wait; entry s is written only under
  /// strip s's hold and read board-exclusive.
  std::vector<std::uint64_t> wait_us_;
  /// Per-strip (commits, wait_us) at the last rebalance.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rebalance_base_;
  std::uint64_t reshards_ = 0;
};

}  // namespace aimetro::core
