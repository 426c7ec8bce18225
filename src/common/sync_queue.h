// The blocking priority queue behind runtime::TaskPool's backlog, its
// only user. Algorithm 3 keeps ready clusters in a priority queue ordered
// by step; the engine submits each ready cluster to a TaskPool at its
// step, so this queue hands the earliest step to the next free worker.
// The engine has no ack queue: a condition variable tells its controller
// the run is done. Internal state is guarded by an annotated
// common::Mutex, so -Wthread-safety checks the discipline and
// AIMETRO_LOCK_DEBUG builds order-check every acquisition.
#pragma once

#include <optional>
#include <queue>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace aimetro {

/// Blocking min-priority queue. Smaller Priority values pop first; FIFO
/// within equal priority (stable via sequence numbers).
template <typename T, typename Priority = int>
class SyncPriorityQueue {
 public:
  void push(Priority priority, T value) {
    {
      common::MutexLock lock(mutex_);
      heap_.push(Entry{priority, seq_++, std::move(value)});
    }
    cv_.notify_one();
  }

  /// Blocks until an element is available or close() is called.
  /// Returns nullopt only after close() with an empty queue.
  std::optional<T> pop() {
    common::MutexLock lock(mutex_);
    while (heap_.empty() && !closed_) cv_.wait(mutex_);
    if (heap_.empty()) return std::nullopt;
    T out = std::move(const_cast<Entry&>(heap_.top()).value);
    heap_.pop();
    return out;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    common::MutexLock lock(mutex_);
    if (heap_.empty()) return std::nullopt;
    T out = std::move(const_cast<Entry&>(heap_.top()).value);
    heap_.pop();
    return out;
  }

  std::size_t size() const {
    common::MutexLock lock(mutex_);
    return heap_.size();
  }

  bool closed() const {
    common::MutexLock lock(mutex_);
    return closed_;
  }

  /// Wake all waiters; subsequent pops drain the queue then return nullopt.
  void close() {
    {
      common::MutexLock lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

 private:
  struct Entry {
    Priority priority;
    std::uint64_t seq;
    T value;
    bool operator>(const Entry& other) const {
      if (priority != other.priority) return priority > other.priority;
      return seq > other.seq;
    }
  };

  mutable common::Mutex mutex_{"sync_priority_queue"};
  common::CondVar cv_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_
      GUARDED_BY(mutex_);
  std::uint64_t seq_ GUARDED_BY(mutex_) = 0;
  bool closed_ GUARDED_BY(mutex_) = false;
};

}  // namespace aimetro
