#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>

#include "common/check.h"
#include "common/mutex.h"
#include "gym/agents.h"
#include "gym/env.h"
#include "llm/client.h"
#include "world/grid_map.h"

namespace aimetro::gym {
namespace {

world::GridMap arena_map() {
  world::GridMap map(30, 30);
  map.add_object("fountain", Tile{15, 15});
  return map;
}

std::vector<Tile> spread_starts(int n) {
  std::vector<Tile> starts;
  for (int i = 0; i < n; ++i) {
    starts.push_back(Tile{3 + (i % 4) * 7, 3 + (i / 4) * 7});
  }
  return starts;
}

std::vector<std::unique_ptr<Agent>> wanderers(int n, std::uint64_t seed) {
  std::vector<std::unique_ptr<Agent>> agents;
  for (int i = 0; i < n; ++i) {
    agents.push_back(std::make_unique<WandererAgent>(
        seed + static_cast<std::uint64_t>(i) * 1000));
  }
  return agents;
}

EnvConfig env_config(bool ooo, Step target = 40, int workers = 4) {
  EnvConfig cfg;
  cfg.params = core::DependencyParams{4.0, 1.0};
  cfg.target_step = target;
  cfg.n_workers = workers;
  cfg.out_of_order = ooo;
  return cfg;
}

/// THE headline correctness property: out-of-order execution must produce
/// exactly the same simulation outcome as lock-step execution, for
/// deterministic perception-limited agents — across seeds and world sizes.
class OooEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OooEquivalence, LockstepAndOooProduceIdenticalWorlds) {
  const std::uint64_t seed = GetParam();
  const auto map = arena_map();

  llm::FakeLlmClient llm_lockstep(seed, /*latency_us=*/0);
  Env lockstep(&map, spread_starts(8), wanderers(8, seed), &llm_lockstep,
               env_config(/*ooo=*/false));
  lockstep.run();

  llm::FakeLlmClient llm_ooo(seed, /*latency_us=*/200);
  Env ooo(&map, spread_starts(8), wanderers(8, seed), &llm_ooo,
          env_config(/*ooo=*/true));
  const auto stats = ooo.run();

  EXPECT_EQ(lockstep.state_hash(), ooo.state_hash())
      << "OOO execution diverged from lock-step for seed " << seed;
  EXPECT_EQ(llm_lockstep.calls(), llm_ooo.calls());
  EXPECT_EQ(stats.agent_steps, 8u * 40u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OooEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(OooEquivalence, WorkerCountDoesNotChangeOutcome) {
  const auto map = arena_map();
  std::uint64_t hashes[3];
  int i = 0;
  for (int workers : {1, 2, 8}) {
    llm::FakeLlmClient llm(99, 100);
    Env env(&map, spread_starts(6), wanderers(6, 99), &llm,
            env_config(true, 30, workers));
    env.run();
    hashes[i++] = env.state_hash();
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(hashes[1], hashes[2]);
}

TEST(OooEquivalence, CrowdedWorldWithConflicts) {
  // Agents start adjacent: constant coupling, movement conflicts, and
  // object contention — the stress case for cluster-atomic commits.
  world::GridMap map(12, 12);
  map.add_object("fountain", Tile{6, 6});
  std::vector<Tile> starts;
  for (int i = 0; i < 6; ++i) starts.push_back(Tile{4 + i % 3, 5 + i / 3});

  llm::FakeLlmClient llm_a(7, 0);
  Env lockstep(&map, starts, wanderers(6, 7), &llm_a, env_config(false, 60));
  lockstep.run();

  llm::FakeLlmClient llm_b(7, 150);
  Env ooo(&map, starts, wanderers(6, 7), &llm_b, env_config(true, 60));
  ooo.run();

  EXPECT_EQ(lockstep.state_hash(), ooo.state_hash());
  EXPECT_GT(lockstep.world().event_count(), 0u);  // greetings happened
}

TEST(OooEquivalence, CoupledMembersRunThroughTheChainPool) {
  // Adjacent agents form multi-member clusters every step, so member
  // chains go through the Env's TaskPool. A deliberately tiny pool (1
  // chain worker for up to 8 coupled members, under 4 engine workers)
  // forces the inline-claiming path; the outcome must not change, and
  // chains must actually have flowed through the pool.
  world::GridMap map(14, 14);
  map.add_object("fountain", Tile{7, 7});
  std::vector<Tile> starts;
  for (int i = 0; i < 8; ++i) starts.push_back(Tile{5 + i % 4, 6 + i / 4});

  llm::FakeLlmClient llm_lockstep(21, 0);
  EnvConfig lockstep_cfg = env_config(/*ooo=*/false, 50);
  lockstep_cfg.pool_workers = 1;
  Env lockstep(&map, starts, wanderers(8, 21), &llm_lockstep, lockstep_cfg);
  lockstep.run();

  llm::FakeLlmClient llm_ooo(21, 120);
  EnvConfig ooo_cfg = env_config(/*ooo=*/true, 50);
  ooo_cfg.pool_workers = 1;
  Env ooo(&map, starts, wanderers(8, 21), &llm_ooo, ooo_cfg);
  ooo.run();

  EXPECT_EQ(lockstep.state_hash(), ooo.state_hash());
  const auto stats = ooo.chain_pool().stats();
  EXPECT_GT(stats.tasks_executed + stats.tasks_inlined, 0u);
  EXPECT_GT(stats.tasks_inlined, 0u);  // the 1-worker pool needed help
  EXPECT_EQ(ooo.chain_pool().workers(), 1);
}

TEST(Runtime, StepFnExceptionPropagatesOutOfRun) {
  // A throwing StepFn used to terminate() the process from a worker
  // thread; the pool captures it and run() rethrows after draining.
  const auto map = arena_map();
  world::WorldState world(&map, spread_starts(4));
  runtime::EngineConfig cfg;
  cfg.params = core::DependencyParams{4.0, 1.0};
  cfg.target_step = 20;
  cfg.n_workers = 2;
  std::atomic<int> calls{0};
  runtime::Engine engine(
      &world, cfg,
      [&](const core::AgentCluster& cluster,
          const world::WorldState&) -> std::vector<world::StepIntent> {
        if (calls.fetch_add(1) == 5) {
          throw std::runtime_error("agent exploded");
        }
        std::vector<world::StepIntent> intents;
        for (AgentId m : cluster.members) {
          world::StepIntent intent;
          intent.agent = m;
          intents.push_back(intent);
        }
        return intents;
      });
  EXPECT_THROW(engine.run(), std::runtime_error);
}

TEST(Runtime, PatrolAgentsMeetDeterministically) {
  world::GridMap map(40, 5);
  std::vector<std::unique_ptr<Agent>> agents;
  agents.push_back(std::make_unique<PatrolAgent>(Tile{0, 2}, Tile{39, 2}));
  agents.push_back(std::make_unique<PatrolAgent>(Tile{39, 2}, Tile{0, 2}));
  llm::FakeLlmClient llm(1);
  Env env(&map, {Tile{0, 2}, Tile{39, 2}}, std::move(agents), &llm,
          env_config(true, 50, 2));
  env.run();
  // They pass each other: positions must have swapped sides.
  EXPECT_GT(env.world().tile_of(0).x, 20);
  EXPECT_LT(env.world().tile_of(1).x, 20);
  EXPECT_EQ(llm.calls(), 0u);  // patrol agents never call the LLM
}

TEST(Runtime, ScoreboardMatchesFinalWorld) {
  const auto map = arena_map();
  llm::FakeLlmClient llm(12, 0);
  world::WorldState world(&map, spread_starts(5));
  runtime::EngineConfig cfg;
  cfg.params = core::DependencyParams{4.0, 1.0};
  cfg.target_step = 25;
  cfg.n_workers = 3;
  std::vector<std::unique_ptr<Agent>> agents = wanderers(5, 12);
  // Drive the engine directly (below the gym layer): after the run the
  // scoreboard's view of every agent must be the world's.
  auto step_fn = [&](const core::AgentCluster& cluster,
                     const world::WorldState& w) {
    std::vector<world::StepIntent> intents;
    for (AgentId m : cluster.members) {
      Observation obs;
      obs.self = m;
      obs.step = cluster.step;
      {
        aimetro::common::ReaderLock lock(w.mutex());
        obs.position = w.tile_of(m);
      }
      obs.map = &map;
      world::StepIntent intent =
          agents[static_cast<std::size_t>(m)]->proceed(obs, llm);
      intent.agent = m;
      intents.push_back(intent);
    }
    return intents;
  };
  runtime::Engine engine(&world, cfg, step_fn);
  const auto stats = engine.run();
  EXPECT_EQ(stats.agent_steps, 5u * 25u);
  EXPECT_GT(stats.clusters_executed, 0u);
  // Every executed cluster committed to the scoreboard exactly once.
  EXPECT_EQ(stats.commits, stats.clusters_executed);

  const core::Scoreboard& board = engine.scoreboard();
  {
    aimetro::common::ReaderLock lock(world.mutex());
    for (AgentId a = 0; a < 5; ++a) {
      EXPECT_EQ(board.step_of(a), 25) << "agent " << a;
      EXPECT_EQ(board.pos_of(a), world.tile_of(a).center()) << "agent " << a;
    }
  }
  // Scoreboard finished cleanly.
  EXPECT_TRUE(board.all_done());
  board.check_invariants();
}

TEST(Runtime, ShardedCommitsRunConcurrentlyAndReportContention) {
  // The commit-lock split: workers preparing moves (step_fn + world
  // commit) must proceed while another worker holds the scoreboard commit
  // lock. 16 far-apart wanderers give 16 independent clusters; a slow
  // step_fn keeps many in flight at once, so commits genuinely interleave
  // across 8 workers (TSan races this path in CI). The run must complete
  // every agent-step and surface the new contention counters.
  world::GridMap map(100, 100);
  std::vector<Tile> starts;
  std::vector<std::unique_ptr<Agent>> agents;
  for (int i = 0; i < 16; ++i) {
    starts.push_back(Tile{5 + (i % 4) * 25, 5 + (i / 4) * 25});
    agents.push_back(std::make_unique<WandererAgent>(i * 17u));
  }
  world::WorldState world(&map, starts);
  runtime::EngineConfig cfg;
  cfg.params = core::DependencyParams{4.0, 1.0};
  cfg.target_step = 20;
  cfg.n_workers = 8;
  llm::FakeLlmClient llm(5, /*latency_us=*/200);
  auto step_fn = [&](const core::AgentCluster& cluster,
                     const world::WorldState& w) {
    std::vector<world::StepIntent> intents;
    for (AgentId m : cluster.members) {
      Observation obs;
      obs.self = m;
      obs.step = cluster.step;
      {
        aimetro::common::ReaderLock lock(w.mutex());
        obs.position = w.tile_of(m);
      }
      obs.map = &map;
      world::StepIntent intent =
          agents[static_cast<std::size_t>(m)]->proceed(obs, llm);
      intent.agent = m;
      intents.push_back(intent);
    }
    return intents;
  };
  runtime::Engine engine(&world, cfg, step_fn);
  const auto stats = engine.run();
  EXPECT_EQ(stats.agent_steps, 16u * 20u);
  EXPECT_EQ(stats.commits, stats.clusters_executed);
  EXPECT_GT(stats.commits, 0u);
  // Wait/hold are measured per commit; the worst single wait can never be
  // smaller than the average wait.
  EXPECT_GE(stats.max_commit_wait_us, stats.commit_wait_us / stats.commits);
  EXPECT_TRUE(engine.scoreboard().all_done());
  engine.scoreboard().check_invariants();
}

TEST(Runtime, BoundaryLagProtocolMatchesGlobalLockUnderConcurrency) {
  // The tentpole guarantee at the engine layer: shards=8 (interior
  // commits striped across per-shard locks, cross-shard commits
  // escalating to the exclusive topology lock) must produce exactly the
  // world shards=1 (the old global commit lock) produces, under real
  // thread interleavings. A wide map keeps most strips interior; slow
  // fake-LLM calls keep many clusters in flight so interior commits in
  // different strips genuinely overlap (TSan races this path in CI).
  world::GridMap map(400, 12);
  std::vector<Tile> starts;
  for (int i = 0; i < 24; ++i) {
    starts.push_back(Tile{8 + i * 15, 2 + (i % 3) * 4});
  }
  std::uint64_t hashes[2];
  int idx = 0;
  for (const std::int32_t shards : {1, 8}) {
    std::vector<std::unique_ptr<Agent>> agents;
    for (int i = 0; i < 24; ++i) {
      agents.push_back(
          std::make_unique<WandererAgent>(1000 + static_cast<std::uint64_t>(i) * 17));
    }
    world::WorldState world(&map, starts);
    llm::FakeLlmClient llm(5, /*latency_us=*/150);
    runtime::EngineConfig cfg;
    cfg.params = core::DependencyParams{4.0, 1.0};
    cfg.target_step = 15;
    cfg.n_workers = 8;
    cfg.shards = shards;
    auto step_fn = [&](const core::AgentCluster& cluster,
                       const world::WorldState& w) {
      std::vector<world::StepIntent> intents;
      for (AgentId m : cluster.members) {
        Observation obs;
        obs.self = m;
        obs.step = cluster.step;
        {
          aimetro::common::ReaderLock lock(w.mutex());
          obs.position = w.tile_of(m);
        }
        obs.map = &map;
        world::StepIntent intent =
            agents[static_cast<std::size_t>(m)]->proceed(obs, llm);
        intent.agent = m;
        intents.push_back(intent);
      }
      return intents;
    };
    runtime::Engine engine(&world, cfg, step_fn);
    const auto stats = engine.run();
    EXPECT_EQ(engine.shards(), shards);
    EXPECT_EQ(stats.agent_steps, 24u * 15u);
    EXPECT_EQ(stats.commits, stats.clusters_executed);
    const auto rows = engine.shard_commit_stats();
    ASSERT_EQ(rows.size(), static_cast<std::size_t>(shards) + 1);
    std::uint64_t row_commits = 0;
    std::uint64_t interior_commits = 0;
    for (std::size_t s = 0; s < rows.size(); ++s) {
      row_commits += rows[s].commits;
      if (s + 1 < rows.size()) interior_commits += rows[s].commits;
    }
    EXPECT_EQ(row_commits, stats.commits);
    if (shards > 1) {
      // The wide map must actually yield interior (striped) commits —
      // otherwise this test exercises nothing beyond shards=1.
      EXPECT_GT(interior_commits, 0u);
    }
    EXPECT_TRUE(engine.scoreboard().all_done());
    engine.scoreboard().check_invariants();
    {
      aimetro::common::ReaderLock lock(world.mutex());
      hashes[idx++] = world.state_hash();
    }
  }
  EXPECT_EQ(hashes[0], hashes[1])
      << "sharded commits diverged from the global-lock reference";
}

TEST(Runtime, StripPlacementLeavesTheWorldUnchanged) {
  // Strip placement at the engine layer: a hotspot crowd (18 of 24
  // wanderers in the west quarter of a wide map) run on equal-width
  // strips with and without core-pinned strip pools must produce
  // identical final worlds.
  world::GridMap map(400, 12);
  std::vector<Tile> starts;
  for (int i = 0; i < 18; ++i) {
    starts.push_back(Tile{5 + (i % 6) * 15, 1 + (i / 6) * 4});
  }
  for (int i = 0; i < 6; ++i) {
    starts.push_back(Tile{120 + i * 45, 6});
  }
  std::uint64_t hashes[2];
  int idx = 0;
  for (const bool pin : {false, true}) {
    std::vector<std::unique_ptr<Agent>> agents;
    for (int i = 0; i < 24; ++i) {
      agents.push_back(std::make_unique<WandererAgent>(
          2000 + static_cast<std::uint64_t>(i) * 17));
    }
    world::WorldState world(&map, starts);
    llm::FakeLlmClient llm(5, /*latency_us=*/150);
    runtime::EngineConfig cfg;
    cfg.params = core::DependencyParams{4.0, 1.0};
    cfg.target_step = 15;
    cfg.n_workers = 8;
    cfg.shards = 8;
    cfg.pin_cores = pin;
    auto step_fn = [&](const core::AgentCluster& cluster,
                       const world::WorldState& w) {
      std::vector<world::StepIntent> intents;
      for (AgentId m : cluster.members) {
        Observation obs;
        obs.self = m;
        obs.step = cluster.step;
        {
          aimetro::common::ReaderLock lock(w.mutex());
          obs.position = w.tile_of(m);
        }
        obs.map = &map;
        world::StepIntent intent =
            agents[static_cast<std::size_t>(m)]->proceed(obs, llm);
        intent.agent = m;
        intents.push_back(intent);
      }
      return intents;
    };
    runtime::Engine engine(&world, cfg, step_fn);
    const auto stats = engine.run();
    EXPECT_EQ(stats.agent_steps, 24u * 15u);
    EXPECT_TRUE(engine.scoreboard().all_done());
    engine.scoreboard().check_invariants();
    {
      aimetro::common::ReaderLock lock(world.mutex());
      hashes[idx++] = world.state_hash();
    }
  }
  EXPECT_EQ(hashes[0], hashes[1])
      << "pinned strip pools diverged from unpinned ones";
}

TEST(Runtime, PopulationCutsAreRejected) {
  // Strips are always equal-width. The partition kind survives only as a
  // name metro_bench passes, and asking for population cuts fails loudly
  // instead of silently running equal-width strips.
  world::GridMap map(40, 4);
  world::WorldState world(&map, {Tile{1, 1}, Tile{30, 2}});
  runtime::EngineConfig cfg;
  cfg.shards = 2;
  cfg.partition = world::PartitionKind::kEqualPopulation;
  auto step_fn = [](const core::AgentCluster&, const world::WorldState&) {
    return std::vector<world::StepIntent>{};
  };
  EXPECT_THROW(runtime::Engine(&world, cfg, step_fn), CheckError);
  EXPECT_THROW(core::Scoreboard(cfg.params, core::make_euclidean(),
                                {Pos{1.5, 1.5}, Pos{30.5, 2.5}}, 10,
                                core::ScanMode::kIndexed, 2,
                                world::PartitionKind::kEqualPopulation),
               CheckError);
}

TEST(Runtime, ScanModesProduceIdenticalGymWorlds) {
  // Indexed vs brute scoreboards must drive the OOO engine to the same
  // final world — the engine-side half of the differential guarantee.
  const auto map = arena_map();
  std::uint64_t hashes[2] = {0, 0};
  const core::ScanMode modes[2] = {core::ScanMode::kIndexed,
                                   core::ScanMode::kBruteForce};
  for (int i = 0; i < 2; ++i) {
    llm::FakeLlmClient llm(9, 0);
    EnvConfig cfg = env_config(true, 40, 4);
    cfg.scan_mode = modes[i];
    Env env(&map, spread_starts(8), wanderers(8, 9), &llm, cfg);
    const auto stats = env.run();
    EXPECT_EQ(stats.agent_steps, 8u * 40u);
    EXPECT_GT(env.scoreboard_stats().clusters_dispatched, 0u);
    hashes[i] = env.state_hash();
  }
  EXPECT_EQ(hashes[0], hashes[1]);
}

TEST(Runtime, ScalesToManyAgentsQuickly) {
  world::GridMap map(60, 60);
  std::vector<Tile> starts;
  std::vector<std::unique_ptr<Agent>> agents;
  for (int i = 0; i < 24; ++i) {
    starts.push_back(Tile{2 + (i % 6) * 10, 2 + (i / 6) * 10});
    agents.push_back(std::make_unique<WandererAgent>(i * 31u));
  }
  llm::FakeLlmClient llm(3, 50);
  Env env(&map, starts, std::move(agents), &llm, env_config(true, 30, 8));
  const auto stats = env.run();
  EXPECT_EQ(stats.agent_steps, 24u * 30u);
}

}  // namespace
}  // namespace aimetro::gym
