// The shared execution layer: a persistent worker pool for every surface
// that runs blocking agent work (engine cluster tasks, scenario-driver
// member chains, gym member chains).
//
// The paper's speedup depends on keeping the controller's critical path
// light and the workers saturated (§3.1/§3.6). Before this layer existed,
// each execution surface rolled its own concurrency — the engine owned a
// private thread vector, and the scenario driver and gym Env constructed
// and joined short-lived std::threads inside the *timed* region of every
// dispatch, paying thread spawn/teardown on the critical path. TaskPool
// centralizes that: workers are spawned once per run (outside the timed
// region) and tasks are handed over through a step-priority queue, so the
// per-dispatch cost is a queue push instead of a pthread_create. The pool
// keeps that queue as its own heap under its one lock, so a task costs
// three acquisitions of that lock (submit, pop, finish) and the pool
// never holds a second lock while it holds it.
//
// Design points:
//   - submit() returns a waitable Handle; the task's exception (if any) is
//     captured and rethrown from Handle::wait(), never lost to terminate().
//   - submit(priority, ...) orders the backlog by ascending priority (FIFO
//     within equal priority), which is how the engine preserves the
//     earliest-step-first dispatch rule (§3.5) on a shared pool.
//   - submit_and_wait() submits a batch and lets the *calling thread claim
//     and run* any task a worker has not started yet. A saturated (or even
//     zero-spare-worker) pool therefore degrades to inline execution
//     instead of deadlocking, which makes nested waits — a pool task
//     waiting on a batch it submitted to the same pool — safe by
//     construction.
//   - submit() never blocks: the backlog is unbounded, so an engine worker
//     submitting the clusters its own commit released cannot wait on
//     queue space that only workers can free.
//   - shutdown() (and the destructor) drains queued tasks before joining:
//     work accepted is work executed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace aimetro::runtime {

struct TaskPoolConfig {
  /// Persistent worker threads, spawned in the constructor.
  std::int32_t n_workers = 4;
  /// CPU-affinity pinning: worker i is pinned to cpus[i % cpus.size()]
  /// (empty = no pinning, the default). Linux only
  /// (pthread_setaffinity_np); silently a no-op elsewhere, and pin
  /// failures (e.g. a cpuset-restricted container) are ignored — pinning
  /// is a placement hint, never a correctness requirement. The engine
  /// uses this to keep each strip's pool on one core group so strip-local
  /// scoreboard state stays in one cache/NUMA domain.
  std::vector<std::int32_t> cpus;
};

struct TaskPoolStats {
  /// Tasks completed, by who ran them: pool workers vs. waiting callers
  /// that claimed their own batch tasks inline.
  std::uint64_t tasks_executed = 0;
  std::uint64_t tasks_inlined = 0;
  /// Largest number of tasks simultaneously in flight (submitted but not
  /// finished) over the pool's lifetime.
  std::uint64_t peak_in_flight = 0;
};

class TaskPool {
 public:
  using Task = std::function<void()>;

  /// Waitable handle for one submitted task. Copyable (shared state);
  /// dropping every copy detaches the task (it still runs; an exception
  /// it throws is then unobservable).
  class Handle {
   public:
    Handle() = default;

    /// Block until the task has run; rethrows the task's exception.
    void wait() const;
    bool valid() const { return state_ != nullptr; }

   private:
    friend class TaskPool;
    struct State;
    explicit Handle(std::shared_ptr<State> state) : state_(std::move(state)) {}
    std::shared_ptr<State> state_;
  };

  explicit TaskPool(TaskPoolConfig config);
  /// Convenience: an unpinned pool of `n_workers`.
  explicit TaskPool(std::int32_t n_workers)
      : TaskPool(TaskPoolConfig{n_workers, {}}) {}
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Enqueue `fn` at the given priority (smaller runs first, FIFO within
  /// equal priority; plain submit() uses priority 0). Never waits for
  /// queue space: the backlog is unbounded.
  Handle submit(std::int64_t priority, Task fn);
  Handle submit(Task fn) { return submit(0, std::move(fn)); }

  /// Submit every task in `tasks` at `priority`, then run-or-wait: the
  /// caller claims and executes tasks no worker has started, so the batch
  /// completes even when every worker is busy (including busy waiting on
  /// batches of their own — nested use is deadlock-free). Rethrows the
  /// first exception after the whole batch has settled.
  void submit_and_wait(std::vector<Task> tasks, std::int64_t priority = 0);

  /// Drain queued tasks, then join the workers. Idempotent; called by the
  /// destructor. Submitting after shutdown is a checked error.
  void shutdown();

  std::int32_t workers() const {
    return static_cast<std::int32_t>(threads_.size());
  }
  TaskPoolStats stats() const;

 private:
  using StatePtr = std::shared_ptr<Handle::State>;

  /// One backlog entry. The heap pops the smallest priority first and,
  /// within equal priority, the earliest submission.
  struct Queued {
    std::int64_t priority;
    std::uint64_t seq;
    StatePtr state;
    bool operator>(const Queued& other) const {
      if (priority != other.priority) return priority > other.priority;
      return seq > other.seq;
    }
  };

  void worker_loop();
  /// Claim and run `state` unless another thread already has. Returns
  /// whether this thread ran it. `inline_run` tags the stats bucket.
  bool try_execute(const StatePtr& state, bool inline_run);
  void finish_one(bool inline_run);

  std::vector<std::thread> threads_;

  mutable common::Mutex mutex_{"task_pool"};
  /// Wakes workers when a task is queued or the pool shuts down.
  common::CondVar work_cv_;
  /// Min-heap (std::push_heap / std::pop_heap with std::greater) of tasks
  /// no worker has popped yet; a task a waiting caller claimed inline
  /// stays here until a worker pops and skips it.
  std::vector<Queued> backlog_ GUARDED_BY(mutex_);
  std::uint64_t next_seq_ GUARDED_BY(mutex_) = 0;
  /// Submitted, not yet finished.
  std::uint64_t in_flight_ GUARDED_BY(mutex_) = 0;
  TaskPoolStats stats_ GUARDED_BY(mutex_);
  bool shut_down_ GUARDED_BY(mutex_) = false;
};

/// Default pool size for a surface that feeds member LLM chains from
/// `workers` concurrent dispatches: two chain slots per worker, plus the
/// waiting dispatcher itself running one chain inline, covers the typical
/// cluster-size distribution without spawning a thread per member.
inline std::int32_t derive_pool_workers(std::int32_t workers) {
  return workers * 2;
}

}  // namespace aimetro::runtime
