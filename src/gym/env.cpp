#include "gym/env.h"

#include <numeric>

#include "common/check.h"

namespace aimetro::gym {

Env::Env(const world::GridMap* map, std::vector<Tile> starts,
         std::vector<std::unique_ptr<Agent>> agents, llm::LlmClient* llm,
         EnvConfig config)
    : map_(map),
      world_(map, std::move(starts)),
      agents_(std::move(agents)),
      llm_(llm),
      config_(config),
      chain_pool_(config.pool_workers > 0
                      ? config.pool_workers
                      : runtime::derive_pool_workers(config.n_workers)) {
  AIM_CHECK(map_ != nullptr && llm_ != nullptr);
  AIM_CHECK(world_.agent_count() == agents_.size());
  AIM_CHECK(!agents_.empty());
}

Observation Env::observe(AgentId id, Step step,
                         const world::WorldState& world) const {
  Observation obs;
  obs.self = id;
  obs.step = step;
  obs.position = world.tile_of(id);
  obs.map = map_;
  const Pos center = obs.position.center();
  for (AgentId other : world.agents_within(center, config_.params.radius_p)) {
    if (other == id) continue;
    obs.nearby_agents.emplace_back(other, world.tile_of(other));
  }
  if (step > 0) {
    obs.recent_events =
        world.events_near(center, config_.params.radius_p, step - 1, step - 1);
  }
  return obs;
}

std::vector<world::StepIntent> Env::compute_intents(
    const core::AgentCluster& cluster, const world::WorldState& world) {
  // Snapshot observations under the shared world lock; the heavy agent
  // processing (LLM calls) then runs lock-free.
  std::vector<Observation> observations;
  observations.reserve(cluster.members.size());
  {
    common::ReaderLock lock(world.mutex());
    for (AgentId m : cluster.members) {
      observations.push_back(observe(m, cluster.step, world));
    }
  }
  std::vector<world::StepIntent> intents(cluster.members.size());
  if (cluster.members.size() == 1) {
    intents[0] = agents_[static_cast<std::size_t>(cluster.members[0])]->proceed(
        observations[0], *llm_);
    intents[0].agent = cluster.members[0];
    return intents;
  }
  // Coupled agents run concurrently as tasks on the persistent member
  // pool (§3.6 runs agents within a worker concurrently); the calling
  // worker claims unstarted chains inline, so a saturated pool degrades
  // to inline execution rather than stalling the cluster. Each task
  // writes a distinct element of `intents`.
  std::vector<runtime::TaskPool::Task> tasks;
  tasks.reserve(cluster.members.size());
  for (std::size_t i = 0; i < cluster.members.size(); ++i) {
    tasks.push_back([this, &observations, &cluster, &intents, i] {
      world::StepIntent intent =
          agents_[static_cast<std::size_t>(cluster.members[i])]->proceed(
              observations[i], *llm_);
      intent.agent = cluster.members[i];
      intents[i] = intent;
    });
  }
  chain_pool_.submit_and_wait(std::move(tasks), /*priority=*/cluster.step);
  return intents;
}

runtime::EngineStats Env::run() {
  if (config_.out_of_order) {
    runtime::EngineConfig ec;
    ec.params = config_.params;
    ec.target_step = config_.target_step;
    ec.n_workers = config_.n_workers;
    ec.scan_mode = config_.scan_mode;
    runtime::Engine engine(
        &world_, ec,
        [this](const core::AgentCluster& cluster,
               const world::WorldState& world) {
          return compute_intents(cluster, world);
        });
    const runtime::EngineStats stats = engine.run();
    scoreboard_stats_ = engine.scoreboard().stats();
    mean_blockers_ = engine.scoreboard().mean_blockers();
    return stats;
  }
  // Lock-step baseline (Algorithm 1): one all-agents "cluster" per step.
  runtime::EngineStats stats;
  core::AgentCluster all;
  all.members.resize(agents_.size());
  std::iota(all.members.begin(), all.members.end(), 0);
  for (Step s = 0; s < config_.target_step; ++s) {
    all.step = s;
    auto intents = compute_intents(all, world_);
    {
      common::WriterLock lock(world_.mutex());
      world_.resolve_conflict_and_commit(s, intents);
    }
    ++stats.clusters_executed;
    stats.agent_steps += agents_.size();
  }
  return stats;
}

}  // namespace aimetro::gym
