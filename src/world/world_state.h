// Mutable simulation state: agent positions, object occupancy, and the
// developer-visible write-conflict resolution the paper delegates to
// "developer-specified rules" (§3.4) — e.g., two agents both trying to use
// the bathroom, where only one can step in.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "world/csr_graph.h"
#include "world/grid_map.h"
#include "world/spatial_index.h"

namespace aimetro::world {

/// An agent's intended effects for one step: optionally move and/or claim an
/// object. Produced by Agent::proceed in the live (gym) mode.
struct StepIntent {
  AgentId agent = -1;
  std::optional<Tile> move_to;              // adjacent tile or stay
  std::optional<std::string> claim_object;  // object to occupy this step
  std::optional<std::string> emit_event;    // event text written at the tile
};

/// Outcome of conflict resolution for one agent.
struct StepOutcome {
  AgentId agent = -1;
  Tile tile;               // final position after the step
  bool move_ok = true;     // false if the move lost a conflict
  bool claim_ok = true;    // false if the object claim lost a conflict
};

/// A timestamped event visible to nearby agents (speech, object changes).
struct WorldEvent {
  Step step = 0;
  Tile tile;
  AgentId source = -1;
  std::string text;
};

class WorldState {
 public:
  /// Grid world (graph == nullptr): tiles are exclusive, moves are
  /// Chebyshev-1 steps onto walkable tiles.
  ///
  /// Graph world (graph != nullptr: the trace's graph, non-owning, must
  /// outlive the WorldState): positions encode node ids in Tile::x
  /// (y == 0) and `map` is the node-count-by-1 substrate used for bounds
  /// checks. A legal move stays put or follows one edge, and nodes are
  /// venues, not tiles — they hold crowds, so moves never conflict and the
  /// exclusive-occupancy rule does not apply.
  WorldState(const GridMap* map, std::vector<Tile> initial_tiles,
             const CsrGraph* graph = nullptr);

  const GridMap& map() const { return *map_; }
  bool graph_world() const { return graph_ != nullptr; }
  /// Fixed at construction (agents are never added or removed), so no lock
  /// is needed to read it.
  std::size_t agent_count() const { return agent_count_; }

  Tile tile_of(AgentId id) const REQUIRES_SHARED(mutex_);
  Pos pos_of(AgentId id) const REQUIRES_SHARED(mutex_) {
    return tile_of(id).center();
  }
  /// Direct position write (used by trace replay where movement is given).
  void set_tile(AgentId id, Tile t) REQUIRES(mutex_);

  /// Apply a batch of intents from one cluster atomically with
  /// deterministic conflict resolution:
  ///  - two agents moving onto the same tile: lowest id wins, others stay;
  ///  - moving onto a tile currently occupied by a non-moving agent: denied;
  ///  - object claims: lowest id wins, object becomes occupied this step.
  /// Events are appended to the event log.
  std::vector<StepOutcome> resolve_conflict_and_commit(
      Step step, const std::vector<StepIntent>& intents) REQUIRES(mutex_);

  /// Agents within Euclidean `radius` of `center` (sorted by id).
  std::vector<AgentId> agents_within(Pos center, double radius) const
      REQUIRES_SHARED(mutex_);

  /// Events within `radius` of `center` emitted at steps in
  /// [min_step, max_step].
  std::vector<WorldEvent> events_near(Pos center, double radius, Step min_step,
                                      Step max_step) const
      REQUIRES_SHARED(mutex_);

  const std::string* object_holder(const std::string& object) const
      REQUIRES_SHARED(mutex_);
  std::size_t event_count() const REQUIRES_SHARED(mutex_) {
    return events_.size();
  }

  /// Order-insensitive digest over agent positions + object occupancy +
  /// event log; equal digests across two runs mean the simulations agree.
  std::uint64_t state_hash() const REQUIRES_SHARED(mutex_);

  /// Concurrency protocol for the threaded runtime: readers (observation
  /// building) take ReaderLock, resolve_conflict_and_commit callers take
  /// WriterLock. WorldState itself does not lock — callers do — so
  /// single-threaded users pay one uncontended acquisition at most.
  common::SharedMutex& mutex() const RETURN_CAPABILITY(mutex_) {
    return mutex_;
  }

 private:
  mutable common::SharedMutex mutex_{"world"};
  const GridMap* map_;
  /// Immutable after construction (like map_): null for grid worlds.
  const CsrGraph* graph_ = nullptr;
  std::size_t agent_count_ = 0;  // immutable after construction
  std::vector<Tile> tiles_ GUARDED_BY(mutex_);
  SpatialIndex index_ GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::string> object_holders_
      GUARDED_BY(mutex_);
  std::vector<WorldEvent> events_ GUARDED_BY(mutex_);
};

}  // namespace aimetro::world
