#include "runtime/task_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/mutex.h"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace aimetro::runtime {

namespace {
/// Best-effort affinity pin (see TaskPoolConfig::cpus). Out-of-range or
/// rejected cpus are ignored: the OS scheduler keeps working either way.
void pin_thread(std::thread& thread, std::int32_t cpu) {
#ifdef __linux__
  if (cpu < 0 || cpu >= CPU_SETSIZE) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  (void)pthread_setaffinity_np(thread.native_handle(), sizeof(set), &set);
#else
  (void)thread;
  (void)cpu;
#endif
}
}  // namespace

struct TaskPool::Handle::State {
  TaskPool::Task fn;
  /// Set by whichever thread claims the task (worker or waiting caller);
  /// losers skip it. This is the entire inline-claiming mechanism.
  std::atomic<bool> claimed{false};

  common::Mutex m{"task_pool.handle"};
  common::CondVar cv;
  bool done GUARDED_BY(m) = false;
  std::exception_ptr error GUARDED_BY(m);
};

void TaskPool::Handle::wait() const {
  AIM_CHECK_MSG(state_ != nullptr, "wait() on an empty TaskPool::Handle");
  common::MutexLock lock(state_->m);
  while (!state_->done) state_->cv.wait(state_->m);
  if (state_->error) std::rethrow_exception(state_->error);
}

TaskPool::TaskPool(TaskPoolConfig config) {
  AIM_CHECK(config.n_workers >= 1);
  threads_.reserve(static_cast<std::size_t>(config.n_workers));
  for (std::int32_t i = 0; i < config.n_workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
    if (!config.cpus.empty()) {
      pin_thread(threads_.back(),
                 config.cpus[static_cast<std::size_t>(i) % config.cpus.size()]);
    }
  }
}

TaskPool::~TaskPool() { shutdown(); }

TaskPool::Handle TaskPool::submit(std::int64_t priority, Task fn) {
  AIM_CHECK(fn != nullptr);
  auto state = std::make_shared<Handle::State>();
  state->fn = std::move(fn);
  {
    // The flag check and the push share one critical section, so a
    // shutdown() racing this submit either finds the task queued (and a
    // worker drains it) or fails the check: no task lands in a backlog no
    // worker will pop.
    common::MutexLock lock(mutex_);
    AIM_CHECK_MSG(!shut_down_, "submit() on a shut-down TaskPool");
    ++in_flight_;
    if (in_flight_ > stats_.peak_in_flight) stats_.peak_in_flight = in_flight_;
    backlog_.push_back(Queued{priority, next_seq_++, state});
    std::push_heap(backlog_.begin(), backlog_.end(), std::greater<>{});
  }
  work_cv_.notify_one();
  return Handle(std::move(state));
}

void TaskPool::submit_and_wait(std::vector<Task> tasks,
                               std::int64_t priority) {
  std::vector<Handle> handles;
  handles.reserve(tasks.size());
  for (Task& task : tasks) {
    handles.push_back(submit(priority, std::move(task)));
  }
  // Run-or-wait: claim our own tasks so the batch makes progress even when
  // no worker is free (or every worker is itself waiting on a batch).
  for (const Handle& h : handles) {
    try_execute(h.state_, /*inline_run=*/true);
  }
  std::exception_ptr first;
  for (const Handle& h : handles) {
    try {
      h.wait();
    } catch (...) {
      if (first == nullptr) first = std::current_exception();
    }
  }
  if (first != nullptr) std::rethrow_exception(first);
}

void TaskPool::shutdown() {
  {
    common::MutexLock lock(mutex_);
    shut_down_ = true;
  }
  work_cv_.notify_all();  // workers drain the backlog, then exit
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

TaskPoolStats TaskPool::stats() const {
  common::MutexLock lock(mutex_);
  return stats_;
}

void TaskPool::worker_loop() {
  for (;;) {
    StatePtr state;
    {
      common::MutexLock lock(mutex_);
      while (backlog_.empty() && !shut_down_) work_cv_.wait(mutex_);
      if (backlog_.empty()) return;  // shut down and drained
      std::pop_heap(backlog_.begin(), backlog_.end(), std::greater<>{});
      state = std::move(backlog_.back().state);
      backlog_.pop_back();
    }
    try_execute(state, /*inline_run=*/false);
  }
}

bool TaskPool::try_execute(const StatePtr& state, bool inline_run) {
  if (state->claimed.exchange(true)) return false;
  Task fn = std::move(state->fn);
  std::exception_ptr error;
  try {
    fn();
  } catch (...) {
    error = std::current_exception();
  }
  // Count the task before publishing it done, so stats() read after
  // Handle::wait() returns already includes it.
  finish_one(inline_run);
  {
    common::MutexLock lock(state->m);
    state->done = true;
    state->error = error;
  }
  state->cv.notify_all();
  return true;
}

void TaskPool::finish_one(bool inline_run) {
  common::MutexLock lock(mutex_);
  --in_flight_;
  if (inline_run) {
    ++stats_.tasks_inlined;
  } else {
    ++stats_.tasks_executed;
  }
}

}  // namespace aimetro::runtime
