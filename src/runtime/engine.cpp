#include "runtime/engine.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/mutex.h"
#include "common/strings.h"

namespace aimetro::runtime {

namespace {

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

void check_unbounded(const TaskPool& pool) {
  // Workers dispatch the clusters their own commits release: a bounded
  // queue's backpressure would block a submitting worker on queue space
  // that only workers (possibly all blocked the same way) can free.
  // Refuse loudly.
  AIM_CHECK_MSG(pool.max_queued() == 0,
                "Engine requires unbounded TaskPools (workers dispatch "
                "released clusters; backpressure would deadlock)");
}

}  // namespace

Engine::Engine(world::WorldState* world, EngineConfig config, StepFn step_fn)
    : world_(world), config_(config), step_fn_(std::move(step_fn)) {
  AIM_CHECK(world_ != nullptr);
  AIM_CHECK(step_fn_ != nullptr);
  AIM_CHECK(config_.n_workers >= 1);
  std::vector<Pos> initial;
  initial.reserve(world_->agent_count());
  for (std::size_t i = 0; i < world_->agent_count(); ++i) {
    initial.push_back(world_->pos_of(static_cast<AgentId>(i)));
  }
  controller_ = std::make_unique<core::MetroController>(
      config_.params, config_.metric, std::move(initial), config_.target_step,
      config_.scan_mode, config_.shards, config_.partition,
      config_.reshard_at);
  // The scoreboard may collapse the partition (graph metrics, brute
  // scans); size everything to what it actually runs.
  shards_ = controller_->shards();
  shard_rows_.assign(static_cast<std::size_t>(shards_) + 1, EngineStats{});
  shard_mutexes_.reserve(static_cast<std::size_t>(shards_));
  for (std::int32_t s = 0; s < shards_; ++s) {
    shard_mutexes_.push_back(std::make_unique<common::Mutex>("engine.shard"));
  }

  if (!config_.shard_pools.empty()) {
    AIM_CHECK_MSG(config_.shard_pools.size() >=
                      static_cast<std::size_t>(shards_),
                  "EngineConfig::shard_pools must cover every shard");
    for (std::int32_t s = 0; s < shards_; ++s) {
      TaskPool* p = config_.shard_pools[static_cast<std::size_t>(s)];
      AIM_CHECK(p != nullptr);
      check_unbounded(*p);
      shard_pools_.push_back(p);
    }
  } else if (config_.pool != nullptr) {
    check_unbounded(*config_.pool);
    shard_pools_.assign(static_cast<std::size_t>(shards_), config_.pool);
  } else if (shards_ > 1) {
    // Private pool per strip, splitting n_workers between them so the
    // total thread budget matches the unsharded configuration. With
    // pin_cores, strip s's workers are pinned to the s-th contiguous
    // core group so its scoreboard slice stays in one cache/NUMA domain
    // (wrapping when there are more strips than cores).
    const std::int32_t per_shard =
        std::max<std::int32_t>(1, (config_.n_workers + shards_ - 1) / shards_);
    const std::int32_t n_cpus =
        static_cast<std::int32_t>(std::thread::hardware_concurrency());
    const std::int32_t group =
        n_cpus > 0 ? std::max<std::int32_t>(1, n_cpus / shards_) : 0;
    for (std::int32_t s = 0; s < shards_; ++s) {
      TaskPoolConfig pool_cfg;
      pool_cfg.n_workers = per_shard;
      if (config_.pin_cores && n_cpus > 0) {
        pool_cfg.cpus.reserve(static_cast<std::size_t>(group));
        for (std::int32_t c = 0; c < group; ++c) {
          pool_cfg.cpus.push_back((s * group + c) % n_cpus);
        }
      }
      owned_shard_pools_.push_back(std::make_unique<TaskPool>(pool_cfg));
      shard_pools_.push_back(owned_shard_pools_.back().get());
    }
  } else {
    owned_pool_ = std::make_unique<TaskPool>(config_.n_workers);
    shard_pools_.assign(1, owned_pool_.get());
  }
  pool_ = shard_pools_.front();

  if (config_.kv_instrumentation) {
    for (std::size_t i = 0; i < world_->agent_count(); ++i) {
      const Tile t = world_->tile_of(static_cast<AgentId>(i));
      const std::string key = strformat("agent:%zu", i);
      store_.hset(key, "step", "0");
      store_.hset(key, "x", std::to_string(t.x));
      store_.hset(key, "y", std::to_string(t.y));
    }
  }
}

Engine::~Engine() {
  // In-flight cluster tasks reference this engine; when the pools are
  // external we cannot rely on the pool destructors to join them, so
  // drain explicitly either way.
  common::MutexLock lock(control_mutex_);
  while (inflight_clusters_.load(std::memory_order_acquire) != 0) {
    done_cv_.wait(control_mutex_);
  }
}

void Engine::submit_clusters(
    std::vector<core::MetroController::Routed> ready) {
  // Ready clusters become pool tasks at their step as the submission
  // priority, so a backlogged pool still hands the earliest step to the
  // next free worker (§3.5). The caller already popped and routed them
  // under the topology lock, so this needs no engine lock: inflight
  // accounting is atomic, and the submitting task's own inflight count
  // keeps run() from observing a premature zero.
  for (core::MetroController::Routed& rc : ready) {
    const Step step = rc.cluster.step;
    TaskPool* pool = shard_pools_[static_cast<std::size_t>(rc.strip)];
    inflight_clusters_.fetch_add(1, std::memory_order_acq_rel);
    pool->submit(step, [this, cluster = std::move(rc.cluster)]() mutable {
      execute_cluster(std::move(cluster));
    });
  }
}

void Engine::execute_cluster(core::AgentCluster cluster) {
  // Heavy lifting off the controller's critical path (§3.6): agent
  // processing (LLM calls) runs without any engine lock, and the world
  // commit takes only the world's own mutex — graph maintenance in other
  // workers proceeds concurrently.
  std::vector<world::StepIntent> intents;
  std::exception_ptr error;
  try {
    intents = step_fn_(cluster, *world_);
  } catch (...) {
    error = std::current_exception();
  }

  if (error == nullptr && !failed_.load(std::memory_order_acquire)) {
    try {
      // resolve_conflict_and_commit applies developer conflict rules and
      // commits winners to the world; the unique world lock excludes
      // concurrent observation readers in other workers. The dependency
      // rules already guarantee in-flight clusters touch disjoint
      // perception regions, so world commits from different clusters can
      // interleave freely.
      std::vector<std::pair<AgentId, Pos>> moves;
      {
        common::WriterLock world_lock(world_->mutex());
        const auto outcomes =
            world_->resolve_conflict_and_commit(cluster.step, intents);
        world_lock.unlock();
        moves.reserve(outcomes.size());
        for (const auto& out : outcomes) {
          moves.emplace_back(out.agent, out.tile.center());
        }
        if (config_.kv_instrumentation) {
          // Transactional mirror of the committed agent rows, as the
          // paper keeps all simulation state in the in-memory database.
          // The store's shard locks make this safe outside the commit
          // locks. Sharded runs log per strip so the instrumentation
          // stream shows the shard-local traffic split.
          kv::Transaction txn = store_.transaction();
          for (const auto& out : outcomes) {
            const std::string key = strformat("agent:%d", out.agent);
            txn.hset(key, "step", std::to_string(cluster.step + 1));
            txn.hset(key, "x", std::to_string(out.tile.x));
            txn.hset(key, "y", std::to_string(out.tile.y));
          }
          const std::string log_key =
              shards_ > 1 && !moves.empty()
                  ? strformat("log:commits:%d",
                              controller_->scoreboard().shard_of_pos(
                                  moves.front().second))
                  : std::string("log:commits");
          txn.rpush(log_key, strformat("step=%d size=%zu", cluster.step,
                                       cluster.members.size()));
          txn.incr_by("stats:agent_steps",
                      static_cast<std::int64_t>(cluster.members.size()));
          const auto result = txn.exec();
          common::MutexLock slock(stats_mutex_);
          ++stats_.kv_transactions;
          if (result == kv::TxnResult::kConflict) ++stats_.kv_conflicts;
        }
      }

      // Graph maintenance — the controller's commit phases under the
      // boundary-lag locks. Timed so EngineStats can show whether commits
      // serialize the pipeline (wait) and what the maintenance itself
      // costs (hold).
      const auto wait_begin = std::chrono::steady_clock::now();
      std::uint64_t wait_us = 0;
      std::uint64_t hold_us = 0;
      core::MetroController::Path path;
      std::vector<core::MetroController::Routed> released;
      {
        common::ReaderLock tlock(topology_mutex_);
        path = controller_->classify(cluster.step, moves);
        if (path.interior()) {
          common::MutexLock slock(
              *shard_mutexes_[static_cast<std::size_t>(path.strip)]);
          const auto acquired = std::chrono::steady_clock::now();
          wait_us = elapsed_us(wait_begin, acquired);
          if (!failed_.load(std::memory_order_acquire)) {
            released = controller_->commit_interior(path, moves, wait_us);
          }
          hold_us = elapsed_us(acquired, std::chrono::steady_clock::now());
        }
      }
      if (!path.interior()) {
        // Exclusive over the whole board (with shards=1 every commit
        // lands here) — the only hold under which the controller may
        // read every strip, refresh the floor and reshard.
        common::WriterLock tlock(topology_mutex_);
        const auto acquired = std::chrono::steady_clock::now();
        wait_us = elapsed_us(wait_begin, acquired);
        if (!failed_.load(std::memory_order_acquire)) {
          released = controller_->commit_cross(moves);
        }
        hold_us = elapsed_us(acquired, std::chrono::steady_clock::now());
      }
      if (!failed_.load(std::memory_order_acquire)) {
        submit_clusters(std::move(released));
      }
      {
        common::MutexLock slock(stats_mutex_);
        ++stats_.clusters_executed;
        stats_.agent_steps += cluster.members.size();
        EngineStats& row = shard_rows_[static_cast<std::size_t>(
            path.interior() ? path.strip : shards_)];
        ++row.commits;
        row.commit_wait_us += wait_us;
        row.commit_hold_us += hold_us;
        row.max_commit_wait_us = std::max(row.max_commit_wait_us, wait_us);
      }
    } catch (...) {
      error = std::current_exception();
    }
  }
  {
    common::MutexLock lock(control_mutex_);
    if (error != nullptr && error_ == nullptr) {
      error_ = error;
      failed_.store(true, std::memory_order_release);
    }
    inflight_clusters_.fetch_sub(1, std::memory_order_acq_rel);
    // The commit that finishes the last agent (or records the first
    // error) is what unblocks run(). Notify under the lock: a waiter in
    // ~Engine may destroy the condition variable the instant its
    // predicate holds.
    done_cv_.notify_all();
  }
}

EngineStats Engine::run() {
  {
    common::WriterLock tlock(topology_mutex_);
    std::vector<core::MetroController::Routed> ready =
        controller_->pop_ready();
    tlock.unlock();
    submit_clusters(std::move(ready));
  }
  {
    // Controller: wait until every agent has reached the target (or a
    // task failed) and all in-flight cluster tasks have drained.
    common::MutexLock lock(control_mutex_);
    while (!((controller_->scoreboard().all_done() || error_ != nullptr) &&
             inflight_clusters_.load(std::memory_order_acquire) == 0)) {
      done_cv_.wait(control_mutex_);
    }
    if (error_ != nullptr) std::rethrow_exception(error_);
  }
  common::MutexLock slock(stats_mutex_);
  EngineStats out = stats_;
  out.reshards = controller_->reshards();
  for (const EngineStats& row : shard_rows_) {
    out.commits += row.commits;
    out.commit_wait_us += row.commit_wait_us;
    out.commit_hold_us += row.commit_hold_us;
    out.max_commit_wait_us =
        std::max(out.max_commit_wait_us, row.max_commit_wait_us);
  }
  return out;
}

std::vector<EngineStats> Engine::shard_commit_stats() const {
  common::MutexLock slock(stats_mutex_);
  return shard_rows_;
}

}  // namespace aimetro::runtime
