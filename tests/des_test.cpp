#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"
#include "des/event_loop.h"

namespace aimetro::des {
namespace {

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30, [&] { order.push_back(3); });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(loop.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoop, TiesBreakInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, NestedSchedulingAdvancesClock) {
  EventLoop loop;
  std::vector<SimTime> times;
  loop.schedule_after(5, [&] {
    times.push_back(loop.now());
    loop.schedule_after(7, [&] {
      times.push_back(loop.now());
      loop.schedule_after(0, [&] { times.push_back(loop.now()); });
    });
  });
  loop.run();
  EXPECT_EQ(times, (std::vector<SimTime>{5, 12, 12}));
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  int fired = 0;
  const EventId id = loop.schedule_at(10, [&] { ++fired; });
  loop.schedule_at(5, [&] { ++fired; });
  EXPECT_TRUE(loop.cancel(id));
  EXPECT_FALSE(loop.cancel(id));  // already cancelled
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(loop.cancel(id));  // nothing pending
}

TEST(EventLoop, CancelFromWithinEvent) {
  EventLoop loop;
  int fired = 0;
  const EventId victim = loop.schedule_at(20, [&] { ++fired; });
  loop.schedule_at(10, [&] { EXPECT_TRUE(loop.cancel(victim)); });
  loop.run();
  EXPECT_EQ(fired, 0);
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  std::vector<int> seen;
  loop.schedule_at(10, [&] { seen.push_back(10); });
  loop.schedule_at(20, [&] { seen.push_back(20); });
  loop.schedule_at(30, [&] { seen.push_back(30); });
  EXPECT_EQ(loop.run_until(20), 2u);
  EXPECT_EQ(seen, (std::vector<int>{10, 20}));
  EXPECT_EQ(loop.now(), 20);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(seen.back(), 30);
}

TEST(EventLoop, RunUntilDoesNotOverrunPastACancelledTop) {
  // A cancelled event at the top of the queue must not let run_until fire
  // the next live event when that one lies past the deadline.
  EventLoop loop;
  std::vector<int> seen;
  const EventId cancelled = loop.schedule_at(10, [&] { seen.push_back(10); });
  loop.schedule_at(50, [&] { seen.push_back(50); });
  ASSERT_TRUE(loop.cancel(cancelled));
  EXPECT_EQ(loop.run_until(20), 0u);
  EXPECT_TRUE(seen.empty());
  EXPECT_EQ(loop.now(), 20);
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_EQ(seen, (std::vector<int>{50}));
  EXPECT_EQ(loop.now(), 50);
}

TEST(EventLoop, RunUntilAdvancesClockWhenIdle) {
  EventLoop loop;
  loop.run_until(500);
  EXPECT_EQ(loop.now(), 500);
}

TEST(EventLoop, StopHaltsProcessing) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(1, [&] {
    ++fired;
    loop.stop();
  });
  loop.schedule_at(2, [&] { ++fired; });
  loop.run();
  EXPECT_EQ(fired, 1);
  loop.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, RejectsPastAndNegative) {
  EventLoop loop;
  loop.schedule_at(10, [] {});
  loop.run();
  EXPECT_THROW(loop.schedule_at(5, [] {}), CheckError);
  EXPECT_THROW(loop.schedule_after(-1, [] {}), CheckError);
}

TEST(EventLoop, ProcessedCountExcludesCancelled) {
  EventLoop loop;
  const EventId a = loop.schedule_at(1, [] {});
  loop.schedule_at(2, [] {});
  loop.cancel(a);
  loop.run();
  EXPECT_EQ(loop.processed(), 1u);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoop, ManyEventsStressOrdering) {
  EventLoop loop;
  SimTime last = -1;
  for (int i = 0; i < 10000; ++i) {
    loop.schedule_at((i * 7919) % 1000, [&, i] {
      ASSERT_GE(loop.now(), last);
      last = loop.now();
    });
  }
  EXPECT_EQ(loop.run(), 10000u);
}

}  // namespace
}  // namespace aimetro::des
