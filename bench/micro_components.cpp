// Component micro-benchmarks (google-benchmark): the building blocks whose
// cost the paper's §3.6 engineering keeps off the critical path.
#include <benchmark/benchmark.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "core/metric.h"
#include "core/scoreboard.h"
#include "des/event_loop.h"
#include "kv/store.h"
#include "llm/cost_model.h"
#include "runtime/engine.h"
#include "runtime/task_pool.h"
#include "world/graph_index.h"
#include "world/pathfinding.h"
#include "world/social_graph.h"
#include "world/spatial_index.h"
#include "world/world_state.h"

namespace {

using namespace aimetro;

void BM_EventLoopScheduleRun(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    des::EventLoop loop;
    int sink = 0;
    for (int i = 0; i < n; ++i) {
      loop.schedule_at((i * 2654435761u) % 100000, [&sink] { ++sink; });
    }
    loop.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventLoopScheduleRun)->Arg(1000)->Arg(100000);

void BM_KvIncr(benchmark::State& state) {
  kv::Store store;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.incr_by("counter", 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvIncr);

void BM_KvTransaction(benchmark::State& state) {
  kv::Store store;
  std::int64_t i = 0;
  for (auto _ : state) {
    kv::Transaction txn = store.transaction();
    txn.watch("agent:1");
    txn.hset("agent:1", "step", std::to_string(i++));
    txn.rpush("log", "commit");
    benchmark::DoNotOptimize(txn.exec());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvTransaction);

void BM_SpatialIndexQuery(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  world::SpatialIndex index(8.0);
  Rng rng(1);
  for (int i = 0; i < n; ++i) {
    index.insert(i, Pos{rng.uniform(0, 1000), rng.uniform(0, 100)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index.query_box(Pos{rng.uniform(0, 1000), rng.uniform(0, 100)}, 16.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpatialIndexQuery)->Arg(100)->Arg(1000);

// Full dispatch->commit cycles over a crowd of the given size: the cost
// of the dependency bookkeeping per agent-step, for the spatial-index
// probe path against the historical full-scan reference. At the paper's
// sparsity the indexed path should scale near-flat per agent-step while
// brute force grows linearly — this pair headlines the win.
void BM_ScoreboardCommit(benchmark::State& state, core::ScanMode mode) {
  const auto n = static_cast<int>(state.range(0));
  constexpr Step kTarget = 5;
  Rng rng(7);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<Pos> init;
    for (int i = 0; i < n; ++i) {
      init.push_back(Pos{rng.uniform(0, n * 4.0), rng.uniform(0, 100.0)});
    }
    core::Scoreboard sb(core::DependencyParams{4.0, 1.0},
                        core::make_euclidean(), init, kTarget, mode);
    state.ResumeTiming();
    std::uint64_t steps = 0;
    while (!sb.all_done()) {
      for (auto& cluster : sb.pop_ready_clusters()) {
        std::vector<std::pair<AgentId, Pos>> moves;
        for (AgentId m : cluster.members) {
          Pos p = sb.pos_of(m);
          p.x += rng.uniform(-1.0, 1.0) * 0.7;
          moves.emplace_back(m, p);
          ++steps;
        }
        sb.commit(moves);
      }
    }
    benchmark::DoNotOptimize(steps);
  }
  state.SetItemsProcessed(state.iterations() * n * kTarget);
  state.counters["N"] = n;
  state.counters["shards"] = 1;
}
BENCHMARK_CAPTURE(BM_ScoreboardCommit, brute, core::ScanMode::kBruteForce)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ScoreboardCommit, indexed, core::ScanMode::kIndexed)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// "Who is within r hops of here" on a social graph, one agent per node:
// the graph-metric neighbor probe the scoreboard issues on every
// dispatch/commit. `brute` is exactly the full-scan reference path — a
// GraphMetric distance test against every agent (the metric's lazy BFS
// row cache included, so this is the real cost, not a strawman); the
// indexed probe walks the GraphIndex ball, touching only the ~d^r nodes
// inside it. The gap is the reason social_net10000 is tractable.
void BM_GraphNeighborQuery(benchmark::State& state, bool indexed) {
  const auto n = static_cast<int>(state.range(0));
  const auto adjacency = world::newman_watts_graph(n, 4, 0.1, 17);
  const core::GraphMetric metric(adjacency);
  world::GraphIndex index(&adjacency);
  std::vector<Pos> positions;
  for (int i = 0; i < n; ++i) {
    positions.push_back(Pos{static_cast<double>(i), 0});
    index.insert(i, positions.back());
  }
  constexpr double kRadius = 2.0;  // social_net's perception radius
  Rng rng(3);
  std::vector<AgentId> out;
  for (auto _ : state) {
    const Pos center{static_cast<double>(rng.uniform_int(0, n - 1)), 0};
    if (indexed) {
      index.query_ball_into(center, kRadius, &out);
    } else {
      out.clear();
      for (int i = 0; i < n; ++i) {
        if (metric.distance(center, positions[static_cast<std::size_t>(i)]) <=
            kRadius) {
          out.push_back(i);
        }
      }
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["N"] = n;
  state.counters["shards"] = 1;
}
BENCHMARK_CAPTURE(BM_GraphNeighborQuery, brute, false)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000);
BENCHMARK_CAPTURE(BM_GraphNeighborQuery, indexed, true)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000);

// End-to-end engine commits under the boundary-lag protocol: 10k agents
// random-walking a wide arena (2048 tiles across — each of 8 strips is
// ~256 wide against a ~15-tile blocking+coupling radius, so nearly every
// commit is interior). Arg = shards. The shards=1 row is the old global
// commit lock; the shards=8 row is the same workload with interior
// commits striped across per-shard mutexes. The step function is a
// zero-latency hash walk, so the commit path IS the workload — the gap
// between the rows is the contention the partition removes.
void BM_ShardedCommit(benchmark::State& state) {
  const auto shards = static_cast<std::int32_t>(state.range(0));
  constexpr int kAgents = 10000;
  constexpr Step kTarget = 3;
  const auto map = world::GridMap::arena(2048, 8);
  std::vector<Tile> starts;
  starts.reserve(kAgents);
  for (int i = 0; i < kAgents; ++i) {
    starts.push_back(Tile{i % 2048, i / 2048});
  }
  auto step_fn = [&map](const core::AgentCluster& cluster,
                        const world::WorldState& w) {
    std::vector<world::StepIntent> intents;
    intents.reserve(cluster.members.size());
    for (AgentId m : cluster.members) {
      Tile t;
      {
        common::ReaderLock lock(w.mutex());
        t = w.tile_of(m);
      }
      // Deterministic per-(agent, step) drift along x; stays walkable
      // because the arena has no obstacles.
      const std::uint64_t h =
          (static_cast<std::uint64_t>(m) * 2654435761u) ^
          (static_cast<std::uint64_t>(cluster.step) * 40503u);
      Tile next{t.x + static_cast<std::int32_t>(h % 3) - 1, t.y};
      world::StepIntent intent;
      intent.agent = m;
      if (map.in_bounds(next) && map.walkable(next)) intent.move_to = next;
      intents.push_back(intent);
    }
    return intents;
  };
  for (auto _ : state) {
    state.PauseTiming();
    world::WorldState world(&map, starts);
    runtime::EngineConfig cfg;
    cfg.params = core::DependencyParams{4.0, 1.0};
    cfg.target_step = kTarget;
    cfg.n_workers = 8;
    cfg.shards = shards;
    cfg.kv_instrumentation = false;
    runtime::Engine engine(&world, cfg, step_fn);
    state.ResumeTiming();
    const auto stats = engine.run();
    benchmark::DoNotOptimize(stats.commits);
  }
  state.SetItemsProcessed(state.iterations() * kAgents * kTarget);
  state.counters["N"] = kAgents;
  state.counters["shards"] = shards;
}
BENCHMARK(BM_ShardedCommit)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

// The same engine-commit workload under a hotspot: 95% of the 10k agents
// start in the leftmost quarter of an 8192-wide arena, so equal-width
// strips hand two of the eight pools ~4x their share of the commits
// while the eastern pools idle. The hot band is kept wide relative to
// the ~15-tile confinement radius so population quantiles (~270-wide hot
// strips) still classify almost every commit as interior — the rebalance
// moves load, it must not convert it into cross-shard escalations.
// Variants:
//   width       static equal-width strips (the degenerate baseline);
//   population  boundaries at population quantiles of the initial
//               positions (hot band split across all strips up front);
//   episode     starts equal-width, then one contention-driven
//               rebalance fires mid-run once the floor clears step 1 —
//               the engine's episode-boundary reshard in miniature.
// All three commit the identical moves; digests are checked equal in CI,
// so the only thing moving here is commit wall-time.
void BM_ShardedCommitSkewed(benchmark::State& state,
                            world::PartitionKind partition, bool episode) {
  const auto shards = static_cast<std::int32_t>(state.range(0));
  constexpr int kAgents = 10000;
  constexpr int kHot = kAgents * 95 / 100;
  constexpr Step kTarget = 4;
  const auto map = world::GridMap::arena(8192, 8);
  std::vector<Tile> starts;
  starts.reserve(kAgents);
  // Hot band: x in [0, 2048) — two equal-width strips' span at shards=8.
  for (int i = 0; i < kHot; ++i) {
    starts.push_back(Tile{i % 2048, i / 2048});
  }
  for (int j = 0; j < kAgents - kHot; ++j) {
    starts.push_back(Tile{2048 + j % 6144, 5 + j / 6144});
  }
  auto step_fn = [&map](const core::AgentCluster& cluster,
                        const world::WorldState& w) {
    std::vector<world::StepIntent> intents;
    intents.reserve(cluster.members.size());
    for (AgentId m : cluster.members) {
      Tile t;
      {
        common::ReaderLock lock(w.mutex());
        t = w.tile_of(m);
      }
      const std::uint64_t h =
          (static_cast<std::uint64_t>(m) * 2654435761u) ^
          (static_cast<std::uint64_t>(cluster.step) * 40503u);
      Tile next{t.x + static_cast<std::int32_t>(h % 3) - 1, t.y};
      world::StepIntent intent;
      intent.agent = m;
      if (map.in_bounds(next) && map.walkable(next)) intent.move_to = next;
      intents.push_back(intent);
    }
    return intents;
  };
  for (auto _ : state) {
    state.PauseTiming();
    world::WorldState world(&map, starts);
    runtime::EngineConfig cfg;
    cfg.params = core::DependencyParams{4.0, 1.0};
    cfg.target_step = kTarget;
    cfg.n_workers = 8;
    cfg.shards = shards;
    cfg.partition = partition;
    if (episode) cfg.reshard_at = {1};
    cfg.kv_instrumentation = false;
    runtime::Engine engine(&world, cfg, step_fn);
    state.ResumeTiming();
    const auto stats = engine.run();
    benchmark::DoNotOptimize(stats.commits);
  }
  state.SetItemsProcessed(state.iterations() * kAgents * kTarget);
  state.counters["N"] = kAgents;
  state.counters["shards"] = shards;
}
BENCHMARK_CAPTURE(BM_ShardedCommitSkewed, width,
                  world::PartitionKind::kEqualWidth, false)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ShardedCommitSkewed, population,
                  world::PartitionKind::kEqualPopulation, false)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ShardedCommitSkewed, episode,
                  world::PartitionKind::kEqualWidth, true)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_AStarSmallville(benchmark::State& state) {
  const auto map = world::GridMap::smallville(25);
  const Tile start =
      world::nearest_walkable(map, map.object("bed_0")->tile);
  const Tile goal =
      world::nearest_walkable(map, map.arena("bar")->rect.center());
  for (auto _ : state) {
    benchmark::DoNotOptimize(world::find_path(map, start, goal));
  }
}
BENCHMARK(BM_AStarSmallville);

// ---- Dispatch overhead: per-dispatch thread spawn vs persistent pool ----
//
// Before the TaskPool refactor the scenario driver and the gym Env
// constructed and joined `members` std::threads inside the timed region
// of every dispatch; the engine-backend numbers therefore carried a
// pthread_create per member chain on the critical path. These two
// benchmarks measure exactly that per-dispatch cost against handing the
// same batch to an already-running TaskPool, so the refactor's win is a
// number rather than an assertion. Arg = members per dispatch (typical
// cluster sizes).

void BM_DispatchSpawnThreads(benchmark::State& state) {
  const auto members = static_cast<int>(state.range(0));
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(members));
    for (int m = 0; m < members; ++m) {
      threads.emplace_back(
          [&sink] { sink.fetch_add(1, std::memory_order_relaxed); });
    }
    for (std::thread& t : threads) t.join();
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations() * members);
}
BENCHMARK(BM_DispatchSpawnThreads)->Arg(2)->Arg(4)->Arg(8);

void BM_DispatchTaskPool(benchmark::State& state) {
  const auto members = static_cast<int>(state.range(0));
  runtime::TaskPool pool(runtime::derive_pool_workers(4));
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    std::vector<runtime::TaskPool::Task> tasks;
    tasks.reserve(static_cast<std::size_t>(members));
    for (int m = 0; m < members; ++m) {
      tasks.push_back(
          [&sink] { sink.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.submit_and_wait(std::move(tasks));
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations() * members);
}
BENCHMARK(BM_DispatchTaskPool)->Arg(2)->Arg(4)->Arg(8);

void BM_CostModelIteration(benchmark::State& state) {
  const llm::CostModel cm(llm::ModelSpec::llama3_8b(), llm::GpuSpec::l4(), 1);
  std::int64_t kv = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cm.iteration_time(32, 512, kv += 100));
  }
}
BENCHMARK(BM_CostModelIteration);

// Tees every run that carries an "N" counter into BenchRecords (the
// benchmarks wired into the perf trajectory set it; the rest only print).
// Aggregate rows (mean/median/stddev under --benchmark_repetitions) are
// skipped: they are not per-iteration times. Console output is unchanged
// — this subclass only observes.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      auto n_it = run.counters.find("N");
      if (n_it == run.counters.end() || run.error_occurred ||
          run.run_type == Run::RT_Aggregate) {
        continue;
      }
      aimetro::bench::BenchRecord rec;
      rec.benchmark = run.run_name.function_name;
      for (char& c : rec.benchmark) {
        if (c == '/') c = '_';
      }
      rec.n = static_cast<std::int64_t>(n_it->second.value);
      auto s_it = run.counters.find("shards");
      if (s_it != run.counters.end()) {
        rec.shards = static_cast<std::int32_t>(s_it->second.value);
      }
      rec.ms = run.iterations > 0 ? run.real_accumulated_time /
                                        static_cast<double>(run.iterations) *
                                        1e3
                                  : 0.0;
      records_.push_back(std::move(rec));
    }
  }

  const std::vector<aimetro::bench::BenchRecord>& records() const {
    return records_;
  }

 private:
  std::vector<aimetro::bench::BenchRecord> records_;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_dir = aimetro::bench::strip_json_flag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonTeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  aimetro::bench::write_bench_json(json_dir, reporter.records());
  benchmark::Shutdown();
  return 0;
}
