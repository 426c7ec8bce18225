// Developer-facing environment API, "similar to OpenAI Gym" (§1).
//
// Developers implement Agent::proceed — perceive the observation, call the
// LLM through the blocking client, return a StepIntent — and Env runs the
// simulation either lock-step (Algorithm 1) or out-of-order on the AI
// Metropolis engine (Algorithm 3). The observation is restricted to the
// agent's perception radius, which is precisely the contract that makes
// out-of-order execution outcome-equivalent to lock-step execution: both
// modes must produce identical world state for deterministic agents.
#pragma once

#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/dependency_rules.h"
#include "llm/client.h"
#include "runtime/engine.h"
#include "runtime/task_pool.h"
#include "world/grid_map.h"
#include "world/world_state.h"

namespace aimetro::gym {

/// What an agent perceives at the start of its step: everything within
/// radius_p, plus events committed nearby during the previous step.
struct Observation {
  AgentId self = -1;
  Step step = 0;
  Tile position;
  const world::GridMap* map = nullptr;
  /// Same-step agents within the perception radius (sorted by id). The
  /// dependency rules guarantee no differently-stepped agent is ever
  /// visible here.
  std::vector<std::pair<AgentId, Tile>> nearby_agents;
  /// Events within the perception radius committed at step-1, in a
  /// schedule-independent order.
  std::vector<world::WorldEvent> recent_events;
};

class Agent {
 public:
  virtual ~Agent() = default;
  /// Decide this step's intent. May block on `llm`. Must be a
  /// deterministic function of the observation (plus internal state that
  /// itself evolves only from observations) for reproducible simulations.
  virtual world::StepIntent proceed(const Observation& obs,
                                    llm::LlmClient& llm) = 0;
};

struct EnvConfig {
  core::DependencyParams params;
  Step target_step = 100;
  std::int32_t n_workers = 4;
  /// Worker threads in the member-chain pool that runs coupled agents'
  /// LLM chains concurrently (both execution modes). <= 0 derives
  /// runtime::derive_pool_workers(n_workers).
  std::int32_t pool_workers = 0;
  /// true: AI Metropolis OOO engine; false: lock-step baseline.
  bool out_of_order = true;
  /// Scoreboard neighbor-scan implementation for the OOO engine.
  core::ScanMode scan_mode = core::ScanMode::kIndexed;
};

class Env {
 public:
  Env(const world::GridMap* map, std::vector<Tile> starts,
      std::vector<std::unique_ptr<Agent>> agents, llm::LlmClient* llm,
      EnvConfig config);

  /// Run to target_step. Blocking.
  runtime::EngineStats run();

  const world::WorldState& world() const { return world_; }
  std::uint64_t state_hash() const {
    common::ReaderLock lock(world_.mutex());
    return world_.state_hash();
  }
  std::size_t agent_count() const { return agents_.size(); }
  /// The persistent pool coupled members' LLM chains run on (its stats
  /// feed the scenario report).
  const runtime::TaskPool& chain_pool() const { return chain_pool_; }
  /// Dependency statistics of the last out-of-order run() — cluster and
  /// edge counts, plus the paper's sparsity measure (mean blockers per
  /// check, §2.2). Zero-valued after lock-step runs, which build no
  /// scoreboard.
  const core::ScoreboardStats& scoreboard_stats() const {
    return scoreboard_stats_;
  }
  double mean_blockers() const { return mean_blockers_; }

 private:
  std::vector<world::StepIntent> compute_intents(
      const core::AgentCluster& cluster, const world::WorldState& world);
  Observation observe(AgentId id, Step step,
                      const world::WorldState& world) const
      REQUIRES_SHARED(world.mutex());

  const world::GridMap* map_;
  world::WorldState world_;
  std::vector<std::unique_ptr<Agent>> agents_;
  llm::LlmClient* llm_;
  EnvConfig config_;
  /// Spawned once at construction; member chains are pool tasks, so the
  /// per-step cost of running a coupled cluster is a queue push rather
  /// than a thread (or std::async) spawn inside the timed region.
  runtime::TaskPool chain_pool_;
  core::ScoreboardStats scoreboard_stats_;
  double mean_blockers_ = 0.0;
};

}  // namespace aimetro::gym
