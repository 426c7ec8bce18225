#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
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

TEST(Replay, ShardedMetropolisInvariantsHoldAcrossAReshard) {
  // The same per-commit check on a four-strip board whose partition is
  // rebuilt mid-run: skewed_ville100's window straddles midnight (step
  // 8640), where reshard = episode re-cuts the population strips.
  std::string error;
  auto spec = scenario::find_scenario("skewed_ville100", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  spec->shards = 4;
  spec->window_begin = 8620;
  spec->window_end = 8660;
  const scenario::ScenarioDriver driver(*spec);
  ExperimentConfig cfg = driver.experiment_config();
  cfg.mode = Mode::kMetropolis;
  cfg.validate_invariants = true;
  ASSERT_EQ(cfg.reshard_at, std::vector<Step>{20});
  const auto r = run_experiment(driver.build_trace(), cfg);
  EXPECT_EQ(r.shards, 4);
  EXPECT_GT(r.scoreboard.commits, 0u);
  EXPECT_GT(r.scoreboard.clusters_dispatched, 0u);
  EXPECT_GT(r.mean_blockers, 0.0);
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

// ---- Golden outputs ----

/// Serving settings a golden cell sets on top of the registry platform.
/// The defaults leave the platform as `experiment_config()` builds it.
struct GoldenServing {
  std::int32_t max_running_requests = 0;  // 0 = ReplicaConfig's default
  bool priority_scheduling = true;
  std::int32_t max_concurrent_clusters = 0;
  bool prefix_cache = false;
};

/// One registry DES cell with every number it reports pinned exactly.
/// `shards` = 0 keeps the registry's resolution; `overrides` are
/// space-separated `key=value` spec overrides.
struct GoldenCell {
  const char* scenario;
  std::int32_t shards;
  Mode mode;
  double completion_seconds;
  std::uint64_t des_events;
  double avg_parallelism;
  double avg_utilization;
  std::uint64_t commits;
  std::uint64_t edges_added;
  double mean_blockers;
  const char* overrides = "";
  GoldenServing serving = {};
  std::uint64_t prefix_cache_hits = 0;
};

TEST(Replay, GoldenOutputsAreBitExact) {
  // Host-side optimizations of the DES (event queue, serving model,
  // scoreboard probes) must not move a single simulated event: the
  // scoreboard digest sees only final states, so these pin the event
  // count and every time-weighted aggregate too. Values are exact
  // (%.17g round-trips a double).
  const GoldenCell cells[] = {
      {"smallville_day", 0, Mode::kSingleThread, 9031.5414540000002, 129441,
       0.99990317266959716, 0.2499757793283556, 0, 0, 0.0},
      {"smallville_day", 0, Mode::kParallelSync, 4979.7105320000001, 119004,
       1.8645067629693133, 0.41889221137362287, 0, 0, 0.0},
      {"smallville_day", 0, Mode::kMetropolis, 4156.2904669999998, 121629,
       2.2364712037737919, 0.49512957548065423, 2328, 1720,
       0.19164345403899721},
      {"smallville_day", 0, Mode::kOracle, 3275.9140519999996, 115367,
       2.8454966857440445, 0.60390591704998742, 0, 0, 0.0},
      {"smallville_day", 0, Mode::kNoDependency, 267.10375599999998, 2093,
       2693.6962621708699, 0.9933985737362675, 0, 0, 0.0},
      {"smallville_day", 0, Mode::kCritical, 3074.8431, 42429, 1.0, 0.25, 0, 0,
       0.0},
      {"social_net100", 0, Mode::kMetropolis, 588.18981199999996, 27016,
       2.5763784866726205, 0.32018282645806861, 2745, 5820,
       0.98644067796610169},
      {"metro_ville100", 2, Mode::kMetropolis, 240.240996, 23118,
       5.9524081862042264, 0.65061355410797583, 2342, 1396,
       0.23661016949152541},
      // A two-day window across midnight whose DES run repartitions once
      // (population cuts, reshard = episode).
      {"skewed_ville100", 4, Mode::kMetropolis, 37.426361999999997, 42402,
       2.4103973131720058, 0.30129547790405065, 20520, 6522,
       0.27288702928870295},
      // Serving paths the cells above leave open. One L4 with a running
      // cap of 4 and 8 worker slots: FIFO order, the running cap and the
      // worker limit all bind; then the same cell under priorities.
      {"smallville_day", 0, Mode::kMetropolis, 4809.4478090000002, 68692,
       2.5625089492482012, 0.99997315700156708, 2328, 1713,
       0.19086350974930363, "data_parallel=1", {4, false, 8, false}},
      {"smallville_day", 0, Mode::kMetropolis, 4773.7227789999997, 68149,
       2.5922155711237829, 0.9999735531353946, 2328, 1679,
       0.18707520891364904, "data_parallel=1", {4, true, 8, false}},
      // The prefix cache on.
      {"smallville_day", 0, Mode::kMetropolis, 3918.888281, 121472,
       2.2098246189092632, 0.49252829555209254, 2328, 1722,
       0.19186629526462395, "", {0, true, 0, true}, 4416},
      // A tensor-parallel 70B platform.
      {"smallville_day", 0, Mode::kMetropolis, 2466.9328399999999, 96666,
       2.5310946548383622, 0.78231686700477832, 2328, 1718,
       0.19142061281337047,
       "model=llama-3-70b-instruct gpu=a100 tensor_parallel=4 "
       "data_parallel=2"},
  };
  std::map<std::tuple<std::string, std::int32_t, std::string>,
           trace::SimulationTrace>
      traces;
  for (const GoldenCell& cell : cells) {
    std::string error;
    auto spec = scenario::find_scenario(cell.scenario, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    if (cell.shards > 0) spec->shards = cell.shards;
    std::istringstream overrides(cell.overrides);
    for (std::string kv; overrides >> kv;) {
      ASSERT_TRUE(scenario::apply_override(&*spec, kv, &error)) << error;
    }
    const scenario::ScenarioDriver driver(*spec);
    const auto key = std::make_tuple(std::string(cell.scenario), cell.shards,
                                     std::string(cell.overrides));
    if (!traces.count(key)) traces.emplace(key, driver.build_trace());
    ExperimentConfig cfg = driver.experiment_config();
    cfg.mode = cell.mode;
    if (cell.serving.max_running_requests > 0) {
      cfg.cluster.replica.max_running_requests =
          cell.serving.max_running_requests;
    }
    cfg.cluster.priority_scheduling = cell.serving.priority_scheduling;
    cfg.max_concurrent_clusters = cell.serving.max_concurrent_clusters;
    cfg.cluster.replica.prefix_cache = cell.serving.prefix_cache;
    const ExperimentResult r = run_experiment(traces.at(key), cfg);
    const std::string where = std::string(cell.scenario) + " " +
                              cell.overrides + " " + mode_name(cell.mode);
    EXPECT_EQ(r.completion_seconds, cell.completion_seconds) << where;
    EXPECT_EQ(r.des_events, cell.des_events) << where;
    EXPECT_EQ(r.avg_parallelism, cell.avg_parallelism) << where;
    EXPECT_EQ(r.avg_utilization, cell.avg_utilization) << where;
    EXPECT_EQ(r.scoreboard.commits, cell.commits) << where;
    EXPECT_EQ(r.scoreboard.edges_added, cell.edges_added) << where;
    EXPECT_EQ(r.mean_blockers, cell.mean_blockers) << where;
    EXPECT_EQ(r.prefix_cache_hits, cell.prefix_cache_hits) << where;
    if (cell.shards > 0) {
      EXPECT_EQ(r.shards, cell.shards) << where;
    }
  }
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
