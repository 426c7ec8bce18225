// The metropolis controller (§3.1, §3.6): the one owner of the dependency
// scoreboard and of every decision in the commit -> floor -> pop
// protocol. The threaded engine calls its phases under the boundary-lag
// locks; the DES replay calls the same phases single-threaded, so both
// backends run one protocol from one copy.
//
// A committing caller runs two phases, classify and then the commit it
// picked:
//
//   classify(moves)         — interior or cross? Interior means the
//                             scoreboard proves the commit's influence
//                             region sits inside one strip s
//                             (Scoreboard::local_commit_shard). Reads
//                             only state the committing cluster owns
//                             plus atomics.
//   commit_interior(path,…) — strip-local commit bounded by the probe
//                             floor classify sampled; pops strip s only.
//   commit_cross(moves)     — whole-board commit against the exact
//                             minimum; pops every strip.
//
// The probe floor is the board's published minimum
// (Scoreboard::min_step(), a minimum over per-strip atomics), read in
// classify on boards with more than one strip. It is a valid bound for
// the whole interior commit: under the shared topology hold only
// interior commits run, each moves its own strip's agents forward, so
// every strip's minimum only rises; agents change strips only in cross
// commits, which hold the board exclusively. So the minimum read in
// classify stays a lower bound until the commit lands. On the DES,
// which runs the phases single-threaded, it equals min_step().
//
// Synchronization is the caller's (the engine's header comment spells
// out its locks): interior commits on distinct strips may run
// concurrently as long as each holds its strip exclusively and nothing
// holds the board exclusively; commit_cross and pop_ready need the board
// exclusively. The controller itself takes no lock. The strip
// boundaries are fixed at construction; where they sit never changes an
// observable result.
#pragma once

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
  /// member), resolved under the commit's hold.
  struct Routed {
    std::int32_t strip = 0;
    AgentCluster cluster;
  };

  /// classify()'s verdict. strip >= 0: commit_interior on that strip,
  /// with `floor` (the min_step() classify read) bounding the probes;
  /// strip = -1: commit_cross.
  struct Path {
    std::int32_t strip = -1;
    Step floor = 0;
    bool interior() const { return strip >= 0; }
  };

  /// Builds the scoreboard (null `metric` = Euclidean).
  MetroController(DependencyParams params,
                  std::shared_ptr<const Metric> metric,
                  std::vector<Pos> initial_positions, Step target_step,
                  ScanMode mode, std::int32_t shards);

  /// Every ready cluster (the run's first dispatch). Board exclusive.
  std::vector<Routed> pop_ready();

  /// Which path a commit of `moves` takes.
  Path classify(const Moves& moves) const;

  /// Interior commit on `path.strip`. Caller holds the strip exclusively
  /// and the board shared.
  std::vector<Routed> commit_interior(const Path& path, const Moves& moves);

  /// Cross commit: pops all strips. Board exclusive.
  std::vector<Routed> commit_cross(const Moves& moves);

  /// Post-run (or board-exclusive) inspection.
  const Scoreboard& scoreboard() const { return board_; }
  /// Effective strip count, after the scoreboard's collapse rules.
  std::int32_t shards() const { return board_.shards(); }

 private:
  std::vector<Routed> route(std::vector<AgentCluster> ready) const;

  Scoreboard board_;
};

}  // namespace aimetro::core
