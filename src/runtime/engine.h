// The real (threaded) AI Metropolis engine — Algorithm 3 with live agents.
//
// Architecture mirrors §3.1/§3.6: a controller on a light critical path
// exchanges work with persistent worker pools (runtime::TaskPool); every
// ready cluster becomes one pool task, submitted at its step as the
// priority so the earliest-step cluster always runs first (§3.5). Workers
// run every agent in a cluster, call the LLM through the blocking client
// shim, commit writes to the world and the dependency scoreboard, and
// submit whatever clusters the commit released — so dispatch is a queue
// push, never a thread spawn, and nothing heavier than a condition
// variable sits on the controller's critical path.
//
// Every scheduling decision — scoreboard, interior/cross classification,
// probe floor, home-strip routing — belongs
// to core::MetroController, the same object the DES replay drives
// single-threaded. The engine adds only locks, timing, pools and stats
// around the controller's phases (boundary-lag commit protocol):
//
//   interior commit — classify() proved the commit confined to strip s;
//     the worker holds topology_mutex_ SHARED plus shard_mutexes_[s] and
//     calls commit_interior(), which pops strip s only. Interior commits
//     in different strips run fully concurrently — the hot path that
//     removes the global commit lock.
//   cross-shard commit — anything near a strip border (or with
//     shards=1, everything) holds topology_mutex_ EXCLUSIVE, which
//     excludes every interior commit: exactly the old global-commit-lock
//     behavior, and the only hold under which agents change strips.
//
// classify() runs under the shared hold, so the probe floor it reads
// (the strips' published minima) stays a lower bound through the
// interior commit that follows (core/metro_controller.h says why).
//
// World writes serialize on the world's own shared_mutex, outside any
// engine lock. Lock order: engine.topology -> engine.shard -> task_pool ->
// engine.stats -> engine.control (see docs/ARCHITECTURE.md, "Sharded
// world", for the full inventory). The controller carries no capability
// annotation: its guard is the protocol above, which Clang TSA cannot
// express (shared-mode writers striped by a runtime index); the runtime
// lock-order validator and the TSan suite check it instead.
//
// The paper uses processes to dodge the Python GIL and keeps shared
// simulation state in Redis so those processes can reach it. C++ threads
// carry no such penalty: workers are pool threads here, and they share
// the WorldState and the scoreboard directly, so the engine keeps no
// mirror of either.
#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/metro_controller.h"
#include "runtime/task_pool.h"
#include "world/world_state.h"

namespace aimetro::runtime {

struct EngineConfig {
  core::DependencyParams params;
  Step target_step = 100;
  /// Cluster workers. Each strip's pool gets max(1, ceil(n_workers /
  /// shards())) of them, so the total equals n_workers only when the
  /// strip count divides it.
  std::int32_t n_workers = 4;
  /// Scoreboard neighbor-scan implementation (spatial-index probes by
  /// default; kBruteForce is the full-scan reference path for
  /// differential testing).
  core::ScanMode scan_mode = core::ScanMode::kIndexed;
  /// Distance model for the dependency rules. Null = Euclidean (the
  /// historical default). Graph worlds pass a core::GraphMetric here so
  /// the scoreboard measures hops; must outlive the engine.
  std::shared_ptr<const core::Metric> metric;
  /// Ignored: the engine keeps no state mirror. The field remains only
  /// because metro_bench/metro_bench.cpp assigns it; drop it together
  /// with that assignment.
  bool kv_instrumentation = false;
  /// Region partition of the world (1..core::kMaxShards). Values > 1
  /// activate the boundary-lag commit protocol; the scoreboard may still
  /// collapse to one strip (graph metrics, brute-force scans), in which
  /// case every commit takes the cross-shard path and behavior matches
  /// shards=1 exactly.
  std::int32_t shards = 1;
  /// Kept only because metro_bench/metro_bench.cpp assigns it: strips
  /// are always equal-width, and the constructor check-fails on
  /// kEqualPopulation.
  world::PartitionKind partition = world::PartitionKind::kEqualWidth;
  /// Pin each strip's pool to a contiguous CPU core group (strip s gets
  /// cores [s*C/shards, (s+1)*C/shards)), keeping a strip's scoreboard
  /// slice in one cache/NUMA domain. Linux only; ignored with shards = 1.
  bool pin_cores = false;
};

struct EngineStats {
  std::uint64_t clusters_executed = 0;
  std::uint64_t agent_steps = 0;
  /// Commit-lock contention: total scoreboard commits, total microseconds
  /// workers spent waiting to acquire the commit locks, total
  /// microseconds spent holding them (graph maintenance + dispatch), and
  /// the worst single wait. wait >> hold means commits are serializing
  /// the pipeline; both near zero means the LLM calls dominate, as
  /// designed. With shards > 1 these are rollups of the per-strip rows
  /// (sums, except max_commit_wait_us which is the max).
  std::uint64_t commits = 0;
  std::uint64_t commit_wait_us = 0;
  std::uint64_t commit_hold_us = 0;
  std::uint64_t max_commit_wait_us = 0;
};

class Engine {
 public:
  /// Computes the intents of every member of `cluster` for its step. Runs
  /// on worker threads; implementations may issue blocking LLM calls. Must
  /// be thread-safe and deterministic given the world snapshot.
  using StepFn = std::function<std::vector<world::StepIntent>(
      const core::AgentCluster& cluster, const world::WorldState& world)>;

  /// Spawns one worker pool per strip here, so a caller timing run()
  /// never measures thread creation.
  Engine(world::WorldState* world, EngineConfig config, StepFn step_fn);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Run the simulation to target_step. Blocking; returns aggregate stats.
  /// Rethrows the first exception a cluster task raised (the run stops
  /// dispatching and drains in-flight work first).
  EngineStats run();

  /// Post-run inspection only: callers read the scoreboard after run()
  /// returned (or before it started), when no worker can be mutating it.
  const core::Scoreboard& scoreboard() const {
    return controller_->scoreboard();
  }
  /// Effective strip count (after the scoreboard's collapse rules).
  std::int32_t shards() const { return shards_; }
  /// Per-strip commit contention rows, index shards() = the cross-shard
  /// (boundary-reconciliation) row. Only the commit* fields are
  /// populated; cluster totals live in the aggregate. Post-run only.
  std::vector<EngineStats> shard_commit_stats() const;

 private:
  void execute_cluster(core::AgentCluster cluster);
  /// Queue released clusters on their home strips' pools (step priority).
  void submit_clusters(std::vector<core::MetroController::Routed> ready);

  world::WorldState* world_;
  EngineConfig config_;
  StepFn step_fn_;
  /// Set once in the constructor. Its phases run under the boundary-lag
  /// protocol described in the header comment (shared topology + one
  /// strip lock, or exclusive topology) — a guard Clang TSA cannot
  /// express, so the pointer is deliberately unannotated.
  std::unique_ptr<core::MetroController> controller_;

  /// One private pool per strip (size shards()); clusters homed in strip
  /// s run on pools_[s]. Declared before the locks below, so it is
  /// destroyed after them: ~Engine drains in-flight tasks first.
  std::vector<std::unique_ptr<TaskPool>> pools_;

  std::int32_t shards_ = 1;
  /// Cross-shard commits hold this exclusively; interior commits hold it
  /// shared plus one shard mutex. Acquired before any other engine lock.
  common::SharedMutex topology_mutex_{"engine.topology"};
  std::vector<std::unique_ptr<common::Mutex>> shard_mutexes_;

  /// Control plane: run()/~Engine() wait here for in-flight cluster
  /// tasks to drain. Never held while acquiring topology/shard locks.
  common::Mutex control_mutex_{"engine.control"};
  common::CondVar done_cv_;
  std::atomic<std::int64_t> inflight_clusters_{0};
  /// First task failure; stops dispatch.
  std::exception_ptr error_ GUARDED_BY(control_mutex_);
  /// Lock-free mirror of `error_ != nullptr` so workers can skip the
  /// world commit on failed runs without touching the control lock.
  std::atomic<bool> failed_{false};
  mutable common::Mutex stats_mutex_{"engine.stats"};
  EngineStats stats_ GUARDED_BY(stats_mutex_);
  /// Commit contention per strip + the cross-shard row (size shards+1).
  std::vector<EngineStats> shard_rows_ GUARDED_BY(stats_mutex_);
};

}  // namespace aimetro::runtime
