#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/metro_controller.h"
#include "replay/experiment.h"
#include "runtime/engine.h"
#include "scenario/driver.h"
#include "scenario/registry.h"
#include "trace/generator.h"
#include "world/grid_map.h"
#include "world/world_state.h"

namespace aimetro::replay {
namespace {

const trace::SimulationTrace& small_busy_trace() {
  static const trace::SimulationTrace trace = [] {
    const auto map = world::GridMap::smallville(10);
    trace::GeneratorConfig cfg;
    cfg.n_agents = 10;
    cfg.seed = 2024;
    auto full = trace::generate(map, cfg);
    return trace::slice(full, 4320, 4500);  // 180 busy steps
  }();
  return trace;
}

ExperimentConfig base_config(Mode mode, std::int32_t gpus = 2) {
  ExperimentConfig cfg;
  cfg.mode = mode;
  cfg.parallelism = llm::ParallelismConfig{1, gpus};
  return cfg;
}

ExperimentResult run(Mode mode, std::int32_t gpus = 2) {
  return run_experiment(small_busy_trace(), base_config(mode, gpus));
}

TEST(Replay, AllModesCompleteAllCalls) {
  const auto total = small_busy_trace().total_calls();
  for (Mode mode : {Mode::kSingleThread, Mode::kParallelSync,
                    Mode::kMetropolis, Mode::kOracle, Mode::kNoDependency}) {
    const auto r = run(mode);
    EXPECT_EQ(r.total_calls, total) << mode_name(mode);
    EXPECT_GT(r.completion_seconds, 0.0) << mode_name(mode);
    EXPECT_GT(r.des_events, 0u) << mode_name(mode);
  }
}

TEST(Replay, PerformanceOrderingHolds) {
  // critical <= oracle <= metropolis <= parallel-sync <= single-thread
  // (§4's qualitative ordering). Modest slack for scheduling noise.
  const double critical = run(Mode::kCritical).completion_seconds;
  const double oracle = run(Mode::kOracle).completion_seconds;
  const double metropolis = run(Mode::kMetropolis).completion_seconds;
  const double sync = run(Mode::kParallelSync).completion_seconds;
  const double single = run(Mode::kSingleThread).completion_seconds;
  const double nodep = run(Mode::kNoDependency).completion_seconds;
  EXPECT_LE(critical, oracle * 1.02);
  EXPECT_LE(oracle, metropolis * 1.05);
  EXPECT_LE(metropolis, sync * 1.02);
  EXPECT_LE(sync, single * 1.02);
  EXPECT_LE(nodep, oracle * 1.02);  // resource bound below dependency bound
}

TEST(Replay, DeterministicAcrossRuns) {
  for (Mode mode : {Mode::kMetropolis, Mode::kOracle, Mode::kParallelSync}) {
    const auto a = run(mode);
    const auto b = run(mode);
    EXPECT_DOUBLE_EQ(a.completion_seconds, b.completion_seconds)
        << mode_name(mode);
    EXPECT_EQ(a.des_events, b.des_events) << mode_name(mode);
    EXPECT_DOUBLE_EQ(a.avg_parallelism, b.avg_parallelism) << mode_name(mode);
  }
}

TEST(Replay, MetropolisBeatsSyncAndApproachesOracle) {
  const auto sync = run(Mode::kParallelSync, 4);
  const auto metro = run(Mode::kMetropolis, 4);
  const auto oracle = run(Mode::kOracle, 4);
  EXPECT_LT(metro.completion_seconds, sync.completion_seconds);
  const double frac = oracle.completion_seconds / metro.completion_seconds;
  EXPECT_GT(frac, 0.4);  // within the band the paper reports (53%-100%)
  EXPECT_LE(frac, 1.0 + 1e-9);
  EXPECT_GT(metro.avg_parallelism, sync.avg_parallelism);
}

TEST(Replay, MoreGpusNeverSlower) {
  for (Mode mode : {Mode::kParallelSync, Mode::kMetropolis}) {
    const auto g1 = run(mode, 1);
    const auto g8 = run(mode, 8);
    EXPECT_LE(g8.completion_seconds, g1.completion_seconds * 1.01)
        << mode_name(mode);
  }
}

TEST(Replay, SingleThreadParallelismIsOne) {
  const auto r = run(Mode::kSingleThread);
  EXPECT_NEAR(r.avg_parallelism, 1.0, 0.1);
}

TEST(Replay, MetropolisInvariantsHoldDuringReplay) {
  auto cfg = base_config(Mode::kMetropolis);
  cfg.validate_invariants = true;  // O(n^2) causality check at every commit
  const auto r = run_experiment(small_busy_trace(), cfg);
  EXPECT_GT(r.scoreboard.commits, 0u);
  EXPECT_GT(r.scoreboard.clusters_dispatched, 0u);
  EXPECT_GE(r.scoreboard.mean_cluster_size(), 1.0);
  EXPECT_GT(r.mean_blockers, 0.0);
  EXPECT_LT(r.mean_blockers, 10.0);  // sparse, as §2.2 measures
}

TEST(Replay, PrioritySchedulingHelpsMetropolis) {
  // Table 1: priority scheduling speeds metropolis up (or at least never
  // hurts) under contention.
  auto with = base_config(Mode::kMetropolis, 1);
  auto without = base_config(Mode::kMetropolis, 1);
  without.cluster.priority_scheduling = false;
  const auto rw = run_experiment(small_busy_trace(), with);
  const auto ro = run_experiment(small_busy_trace(), without);
  EXPECT_LE(rw.completion_seconds, ro.completion_seconds * 1.02);
}

TEST(Replay, GanttRecordsMatchCalls) {
  auto cfg = base_config(Mode::kParallelSync);
  cfg.record_gantt = true;
  const auto r = run_experiment(small_busy_trace(), cfg);
  EXPECT_EQ(r.gantt.size(), r.total_calls);
  for (const auto& rec : r.gantt) {
    EXPECT_GE(rec.finish, rec.submit);
    EXPECT_GE(rec.agent, 0);
    EXPECT_LT(rec.agent, small_busy_trace().n_agents);
  }
  // Step marks exist for lock-step runs (the Figure 1 dashed lines).
  EXPECT_EQ(r.step_completion_times.size(),
            static_cast<std::size_t>(small_busy_trace().n_steps));
  const std::string art = render_gantt_ascii(
      r.gantt, small_busy_trace().n_agents, 0,
      sim_time_from_seconds(r.completion_seconds), 80,
      r.step_completion_times);
  EXPECT_NE(art.find("agent"), std::string::npos);
  EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(Replay, WorkerLimitThrottlesMetropolis) {
  auto unlimited = base_config(Mode::kMetropolis, 8);
  auto throttled = base_config(Mode::kMetropolis, 8);
  throttled.max_concurrent_clusters = 1;  // a single worker
  const auto ru = run_experiment(small_busy_trace(), unlimited);
  const auto rt = run_experiment(small_busy_trace(), throttled);
  EXPECT_GT(rt.completion_seconds, ru.completion_seconds);
}

TEST(Replay, CriticalPathReportsChainOnly) {
  const auto r = run(Mode::kCritical);
  EXPECT_GT(r.total_calls, 0u);
  EXPECT_LT(r.total_calls, small_busy_trace().total_calls());
  EXPECT_NEAR(r.avg_parallelism, 1.0, 0.05);
}

TEST(Replay, PrefixCacheAblationGains) {
  // §4.1: enabling the prefix cache yields roughly a 20% throughput gain.
  auto off = base_config(Mode::kMetropolis, 2);
  auto on = base_config(Mode::kMetropolis, 2);
  on.cluster.replica.prefix_cache = true;
  const auto r_off = run_experiment(small_busy_trace(), off);
  const auto r_on = run_experiment(small_busy_trace(), on);
  EXPECT_LT(r_on.completion_seconds, r_off.completion_seconds);
  EXPECT_GT(r_on.prefix_cache_hits, 0u);
  EXPECT_EQ(r_off.prefix_cache_hits, 0u);
}

TEST(Replay, QuietHourIsCheaperThanBusyHour) {
  const auto map = world::GridMap::smallville(10);
  trace::GeneratorConfig gcfg;
  gcfg.n_agents = 10;
  gcfg.seed = 5;
  const auto full = trace::generate(map, gcfg);
  const auto busy = trace::slice(full, 4320, 4500);
  const auto quiet = trace::slice(full, 2160, 2340);
  const auto cfg = base_config(Mode::kMetropolis);
  const auto rb = run_experiment(busy, cfg);
  const auto rq = run_experiment(quiet, cfg);
  EXPECT_LT(rq.completion_seconds, rb.completion_seconds);
}

TEST(Replay, SummaryStringsAreReadable) {
  const auto r = run(Mode::kMetropolis);
  const std::string s = r.summary();
  EXPECT_NE(s.find("metropolis"), std::string::npos);
  EXPECT_NE(s.find("completion"), std::string::npos);
  EXPECT_STREQ(mode_name(Mode::kNoDependency), "no-dependency");
}

// ---- The metropolis controller both backends drive ----

/// Six agents on a 4001-wide strip of tiles: two at the x extremes (which
/// fix a 1000-wide equal-width strip each at shards = 4) and one deep
/// inside every strip, far beyond any blocking radius from each other.
std::vector<Tile> far_apart_tiles() {
  return {{0, 4}, {500, 4}, {1500, 4}, {2500, 4}, {3500, 4}, {4000, 4}};
}

core::MetroController far_apart_controller(std::vector<Step> reshard_at) {
  std::vector<Pos> initial;
  for (const Tile& t : far_apart_tiles()) initial.push_back(t.center());
  return core::MetroController(core::DependencyParams{4.0, 1.0}, nullptr,
                               std::move(initial), /*target_step=*/10,
                               core::ScanMode::kIndexed, /*shards=*/4,
                               world::PartitionKind::kEqualWidth,
                               std::move(reshard_at));
}

struct PathCounts {
  std::uint64_t interior = 0;
  std::uint64_t cross = 0;
};

/// Runs `ctl` to completion single-threaded, calling its phases as the DES
/// does: pop, then per commit classify and commit_interior (zero wait) or
/// commit_cross, queueing what each commit releases. The earliest-step
/// ready cluster commits next; members move to `pos_after(member, step)`.
PathCounts drive_single_threaded(
    core::MetroController& ctl,
    const std::function<Pos(AgentId, Step)>& pos_after) {
  std::map<std::pair<Step, AgentId>, core::AgentCluster> ready;
  auto push = [&](std::vector<core::MetroController::Routed> released) {
    for (core::MetroController::Routed& r : released) {
      const auto key = std::make_pair(r.cluster.step, r.cluster.members[0]);
      ready.emplace(key, std::move(r.cluster));
    }
  };
  PathCounts counts;
  push(ctl.pop_ready());
  while (!ready.empty()) {
    const core::AgentCluster cluster = std::move(ready.begin()->second);
    ready.erase(ready.begin());
    core::MetroController::Moves moves;
    for (AgentId m : cluster.members) {
      moves.emplace_back(m, pos_after(m, cluster.step));
    }
    const core::MetroController::Path path = ctl.classify(cluster.step, moves);
    if (path.interior()) {
      ++counts.interior;
      push(ctl.commit_interior(path, moves, /*wait_us=*/0));
    } else {
      ++counts.cross;
      push(ctl.commit_cross(moves));
    }
  }
  EXPECT_TRUE(ctl.scoreboard().all_done());
  return counts;
}

TEST(MetroController, ClassifyForcesTheCrossPathAtTheReshardBoundary) {
  auto ctl = far_apart_controller({6});
  ASSERT_EQ(ctl.shards(), 4);
  // Agent 2 sits mid-strip 1 ([1000, 2000)): confined, so interior, with
  // the initial probe floor — until the commit could reach the boundary.
  const core::MetroController::Moves stay = {{2, Tile{1500, 4}.center()}};
  for (Step step : {0, 3, 4}) {
    const auto path = ctl.classify(step, stay);
    EXPECT_TRUE(path.interior()) << "step " << step;
    EXPECT_EQ(path.strip, 1) << "step " << step;
    EXPECT_EQ(path.floor, 0) << "step " << step;
  }
  for (Step step : {5, 6, 9}) {  // step + 1 >= 6
    EXPECT_FALSE(ctl.classify(step, stay).interior()) << "step " << step;
  }
}

TEST(MetroController, ABoundaryFiresExactlyOncePerBackend) {
  // The DES calling pattern: one boundary inside the run, one past its
  // end (never reached), both validated up front.
  auto ctl = far_apart_controller({5, 50});
  const auto stay = [](AgentId a, Step) {
    return far_apart_tiles()[static_cast<std::size_t>(a)].center();
  };
  const PathCounts counts = drive_single_threaded(ctl, stay);
  EXPECT_EQ(ctl.reshards(), 1u);
  EXPECT_GT(counts.interior, 0u);
  EXPECT_GT(counts.cross, 0u);

  // The threaded engine over the same world and schedule.
  const world::GridMap map(4001, 8);
  world::WorldState world(&map, far_apart_tiles());
  runtime::EngineConfig cfg;
  cfg.params = core::DependencyParams{4.0, 1.0};
  cfg.target_step = 10;
  cfg.n_workers = 4;
  cfg.shards = 4;
  cfg.reshard_at = {5, 50};
  cfg.kv_instrumentation = false;
  runtime::Engine engine(&world, cfg,
                         [](const core::AgentCluster& cluster,
                            const world::WorldState&) {
                           std::vector<world::StepIntent> intents;
                           for (AgentId m : cluster.members) {
                             world::StepIntent intent;
                             intent.agent = m;
                             intents.push_back(intent);
                           }
                           return intents;
                         });
  const runtime::EngineStats stats = engine.run();
  EXPECT_EQ(stats.reshards, 1u);
  EXPECT_EQ(stats.agent_steps, 6u * 10u);
}

TEST(MetroController, DesRejectsAnInvalidReshardSchedule) {
  for (const std::vector<Step>& bad :
       {std::vector<Step>{5, 3}, std::vector<Step>{0}}) {
    auto cfg = base_config(Mode::kMetropolis);
    cfg.reshard_at = bad;
    EXPECT_THROW(run_experiment(small_busy_trace(), cfg), CheckError);
  }
}

TEST(MetroController, ShardedDesTakesInteriorCommitsAndKeepsTheSchedule) {
  // metro_ville1000 over a 20-step busy window: at shards = 8 the DES
  // replays the boundary-lag protocol (interior commits with
  // floor-bounded probes and strip pops) and must still reach the
  // shards = 1 state at the identical virtual completion time.
  std::string error;
  auto spec = scenario::find_scenario("metro_ville1000", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  spec->window_begin = 4320;
  spec->window_end = 4340;
  const scenario::ScenarioDriver driver(*spec);
  const trace::SimulationTrace tr = driver.build_trace();
  ExperimentConfig cfg = driver.experiment_config();
  cfg.mode = Mode::kMetropolis;
  cfg.shards = 1;
  const ExperimentResult single = run_experiment(tr, cfg);
  cfg.shards = 8;
  const ExperimentResult sharded = run_experiment(tr, cfg);
  EXPECT_EQ(single.shards, 1);
  EXPECT_EQ(sharded.shards, 8);
  EXPECT_EQ(sharded.final_agent_states, single.final_agent_states);
  EXPECT_EQ(sharded.completion_seconds, single.completion_seconds);
  EXPECT_EQ(sharded.scoreboard.clusters_dispatched,
            single.scoreboard.clusters_dispatched);

  // The same controller settings, driven through the DES's calling
  // pattern, do take the interior path on this trace.
  std::vector<Pos> initial;
  for (AgentId a = 0; a < tr.n_agents; ++a) {
    initial.push_back(tr.position_at(a, tr.start_step).center());
  }
  core::MetroController ctl(core::DependencyParams{tr.radius_p, tr.max_vel},
                            nullptr, std::move(initial), tr.n_steps,
                            cfg.scan_mode, cfg.shards, cfg.partition,
                            cfg.reshard_at);
  const PathCounts counts =
      drive_single_threaded(ctl, [&tr](AgentId a, Step step) {
        return tr.position_at(a, tr.start_step + step + 1).center();
      });
  EXPECT_GT(counts.interior, 0u);
  EXPECT_GT(counts.cross, 0u);
}

}  // namespace
}  // namespace aimetro::replay
