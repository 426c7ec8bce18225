#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/check.h"
#include "runtime/task_pool.h"

namespace aimetro::runtime {
namespace {

TEST(TaskPool, RunsEverySubmittedTask) {
  // Many rounds on one pool: a task whose handle has been waited on must
  // already be counted in stats(), so the cumulative count is exact after
  // every round's waits, not just eventually.
  constexpr int kRounds = 200;
  constexpr int kTasks = 100;
  TaskPool pool(4);
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> sum{0};
    std::vector<TaskPool::Handle> handles;
    for (int i = 1; i <= kTasks; ++i) {
      handles.push_back(pool.submit([&sum, i] { sum.fetch_add(i); }));
    }
    for (const auto& h : handles) h.wait();
    ASSERT_EQ(sum.load(), 5050) << "round " << round;
    const auto stats = pool.stats();
    ASSERT_EQ(stats.tasks_executed + stats.tasks_inlined,
              static_cast<std::uint64_t>((round + 1) * kTasks))
        << "round " << round;
  }
  EXPECT_GE(pool.stats().peak_in_flight, 1u);
}

TEST(TaskPool, PriorityOrdersTheBacklog) {
  // One worker, blocked by a gate task while the backlog builds up: the
  // queued tasks must then run in ascending priority order (FIFO within
  // equal priority), the rule the engine relies on for earliest-step-first
  // dispatch. Priority 1 has four ties: a heap that breaks ties
  // arbitrarily can still order two of them right.
  TaskPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  TaskPool::Handle gate_handle = pool.submit([open] { open.wait(); });

  const std::vector<int> priorities = {5, 1, 3, 1, 1, 3, 1};
  std::mutex order_mutex;
  std::vector<int> order;  // submission indices, in run order
  std::vector<TaskPool::Handle> handles;
  for (int i = 0; i < static_cast<int>(priorities.size()); ++i) {
    handles.push_back(pool.submit(priorities[i], [&order_mutex, &order, i] {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(i);
    }));
  }
  gate.set_value();
  for (const auto& h : handles) h.wait();
  gate_handle.wait();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4, 6, 2, 5, 0}));
}

TEST(TaskPool, HandleWaitRethrowsTheTaskException) {
  TaskPool pool(2);
  TaskPool::Handle ok = pool.submit([] {});
  TaskPool::Handle boom =
      pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_NO_THROW(ok.wait());
  EXPECT_THROW(boom.wait(), std::runtime_error);
  // The pool survives a throwing task; later work still runs.
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; }).wait();
  EXPECT_TRUE(ran.load());
}

TEST(TaskPool, SubmitAndWaitRethrowsAfterTheBatchSettles) {
  TaskPool pool(2);
  std::atomic<int> completed{0};
  std::vector<TaskPool::Task> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([&completed, i]() {
      if (i == 3) throw std::invalid_argument("bad member");
      completed.fetch_add(1);
    });
  }
  EXPECT_THROW(pool.submit_and_wait(std::move(tasks)), std::invalid_argument);
  // Every non-throwing member of the batch still ran to completion.
  EXPECT_EQ(completed.load(), 7);
}

TEST(TaskPool, ShutdownDrainsQueuedTasks) {
  // Work accepted is work executed: tasks still queued at shutdown run
  // before the workers exit.
  std::atomic<int> ran{0};
  {
    TaskPool pool(1);
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    pool.submit([open] { open.wait(); });
    for (int i = 0; i < 20; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
    gate.set_value();
    // Destructor drains + joins.
  }
  EXPECT_EQ(ran.load(), 20);
}

TEST(TaskPool, SubmitAfterShutdownIsACheckedError) {
  TaskPool pool(1);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), CheckError);
}

TEST(TaskPool, ShutdownWakesEveryIdleWorker) {
  // Every worker blocked on an empty backlog must wake and exit on
  // shutdown, not just the first, or the destructor's join hangs. The
  // pool dies on another thread so a hang fails the test at 10 s.
  auto* pool = new TaskPool(4);
  // Give the workers a moment to block on the empty backlog.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  auto destroyed = std::make_unique<std::future<void>>(
      std::async(std::launch::async, [pool] { delete pool; }));
  if (destroyed->wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    destroyed.release();  // its destructor would block on the hung join
    FAIL() << "destroying an idle 4-worker pool took over 10 s";
  }
}

TEST(TaskPool, NestedSubmitAndWaitCannotDeadlock) {
  // Every worker submits a sub-batch to the *same* pool and waits on it.
  // With inline claiming the waiting workers run their own sub-tasks, so
  // this completes even though the pool has no spare workers at all.
  TaskPool pool(2);
  std::atomic<int> leaf{0};
  std::vector<TaskPool::Task> outer;
  for (int i = 0; i < 4; ++i) {
    outer.push_back([&pool, &leaf] {
      std::vector<TaskPool::Task> inner;
      for (int j = 0; j < 4; ++j) {
        inner.push_back([&leaf] { leaf.fetch_add(1); });
      }
      pool.submit_and_wait(std::move(inner));
    });
  }
  pool.submit_and_wait(std::move(outer));
  EXPECT_EQ(leaf.load(), 16);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.tasks_executed + stats.tasks_inlined, 20u);
}

TEST(TaskPool, PeakInFlightTracksTheBacklogHighWaterMark) {
  TaskPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::vector<TaskPool::Handle> handles;
  handles.push_back(pool.submit([open] { open.wait(); }));
  for (int i = 0; i < 7; ++i) handles.push_back(pool.submit([] {}));
  gate.set_value();
  for (const auto& h : handles) h.wait();
  EXPECT_EQ(pool.stats().peak_in_flight, 8u);
}

TEST(TaskPool, DerivedPoolSizeDoublesTheWorkerCount) {
  EXPECT_EQ(derive_pool_workers(1), 2);
  EXPECT_EQ(derive_pool_workers(4), 8);
}

TEST(TaskPool, ManyProducersManyTasks) {
  // Hammer the backlog from several producer threads at mixed priorities;
  // every task must run exactly once.
  TaskPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::vector<TaskPool::Handle>> handles(4);
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&pool, &ran, &mine = handles[p], p] {
      for (int i = 0; i < 250; ++i) {
        mine.push_back(pool.submit(/*priority=*/(p + i) % 3,
                                   [&ran] { ran.fetch_add(1); }));
      }
    });
  }
  for (auto& t : producers) t.join();
  for (const auto& mine : handles) {
    for (const auto& h : mine) h.wait();
  }
  EXPECT_EQ(ran.load(), 1000);
  EXPECT_EQ(pool.stats().tasks_executed, 1000u);
}

}  // namespace
}  // namespace aimetro::runtime
