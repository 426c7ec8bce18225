#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/sync_queue.h"
#include "common/types.h"

namespace aimetro {
namespace {

TEST(Check, ThrowsWithMessage) {
  EXPECT_THROW(AIM_CHECK(1 == 2), CheckError);
  try {
    AIM_CHECK_MSG(false, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Types, SimTimeConversions) {
  EXPECT_EQ(sim_time_from_seconds(1.0), 1'000'000);
  EXPECT_EQ(sim_time_from_seconds(0.0), 0);
  EXPECT_DOUBLE_EQ(sim_time_to_seconds(2'500'000), 2.5);
}

TEST(Types, Distances) {
  const Pos a{0, 0};
  const Pos b{3, 4};
  EXPECT_DOUBLE_EQ(euclidean(a, b), 5.0);
  EXPECT_DOUBLE_EQ(manhattan(a, b), 7.0);
  EXPECT_DOUBLE_EQ(chebyshev(a, b), 4.0);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  bool all_equal = true;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) {
    if (a2.next() != c.next()) all_equal = false;
  }
  EXPECT_FALSE(all_equal);
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
  EXPECT_THROW(rng.uniform_int(2, 1), CheckError);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(11);
  for (const double lambda : {0.5, 3.0, 50.0}) {
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(lambda));
    EXPECT_NEAR(sum / n, lambda, lambda * 0.1 + 0.05) << "lambda=" << lambda;
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStat st;
  for (int i = 0; i < 30000; ++i) st.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(st.mean(), 5.0, 0.1);
  EXPECT_NEAR(st.stddev(), 2.0, 0.1);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(17);
  std::vector<double> w{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), CheckError);
  EXPECT_THROW(rng.weighted_index({}), CheckError);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(21);
  Rng child = a.fork();
  // Child and parent streams should differ.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == child.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RunningStat, Moments) {
  RunningStat st;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.add(v);
  EXPECT_EQ(st.count(), 8);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_NEAR(st.stddev(), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 9.0);
}

TEST(RunningStat, MergeEqualsSequential) {
  RunningStat a, b, both;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.normal(0, 1);
    (i % 2 ? a : b).add(v);
    both.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_NEAR(a.mean(), both.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), both.variance(), 1e-9);
}

TEST(TimeWeightedStat, PiecewiseConstantAverage) {
  TimeWeightedStat s;
  s.set(0, 2.0);     // 2 for [0, 10)
  s.set(10, 4.0);    // 4 for [10, 20)
  EXPECT_DOUBLE_EQ(s.average_until(20), 3.0);
  EXPECT_DOUBLE_EQ(s.current(), 4.0);
  EXPECT_THROW(s.set(5, 1.0), CheckError);  // time went backwards
}

TEST(Strings, Format) {
  EXPECT_EQ(strformat("a=%d b=%s", 3, "x"), "a=3 b=x");
  EXPECT_EQ(strformat("%.2f", 1.5), "1.50");
}

TEST(Strings, SplitJoin) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join({"x", "y", "z"}, "-"), "x-y-z");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Strings, FormatDuration) {
  EXPECT_EQ(format_duration(0.5), "500 ms");
  EXPECT_EQ(format_duration(12.25), "12.25 s");
  EXPECT_EQ(format_duration(3725), "1h 02m 05s");
  EXPECT_EQ(format_duration(125), "2m 05s");
}

TEST(Strings, Pad) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcde", 4), "abcde");
}

TEST(SyncPriorityQueue, OrdersByPriorityThenFifo) {
  SyncPriorityQueue<std::string, int> q;
  q.push(3, "c");
  q.push(1, "a1");
  q.push(2, "b");
  q.push(1, "a2");
  EXPECT_EQ(q.pop().value(), "a1");
  EXPECT_EQ(q.pop().value(), "a2");
  EXPECT_EQ(q.pop().value(), "b");
  EXPECT_EQ(q.pop().value(), "c");
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(SyncPriorityQueue, CloseWakesBlockedConsumers) {
  SyncPriorityQueue<int, int> q;
  std::atomic<int> finished{0};
  std::thread consumer([&] {
    while (q.pop().has_value()) {
    }
    finished = 1;
  });
  q.push(0, 42);
  q.close();
  consumer.join();
  EXPECT_EQ(finished.load(), 1);
}

TEST(SyncPriorityQueue, ConcurrentProducersConsumeAll) {
  SyncPriorityQueue<int, int> q;
  constexpr int kPerProducer = 1000;
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) q.push(p, i);
    });
  }
  std::atomic<int> consumed{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (q.pop().has_value()) consumed.fetch_add(1);
    });
  }
  for (auto& t : producers) t.join();
  while (consumed.load() < 4 * kPerProducer) {
    std::this_thread::yield();
  }
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(consumed.load(), 4 * kPerProducer);
}

TEST(SyncPriorityQueue, CloseWithBacklogDrainsBeforeNullopt) {
  // close() must not discard queued work: pops after close still drain
  // the backlog (in priority order), and only then return nullopt. The
  // TaskPool's drain-on-shutdown guarantee is built on this.
  SyncPriorityQueue<int, int> q;
  q.push(2, 20);
  q.push(1, 10);
  q.close();
  EXPECT_EQ(q.pop().value(), 10);
  EXPECT_EQ(q.pop().value(), 20);
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_TRUE(q.closed());
}

TEST(SyncPriorityQueue, CloseWakesManyConsumersBlockedInPop) {
  // Several consumers blocked inside pop() on an *empty* queue: close()
  // must wake every one of them with nullopt, not just the first.
  SyncPriorityQueue<int, int> q;
  std::atomic<int> woke_empty{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 4; ++c) {
    consumers.emplace_back([&] {
      if (!q.pop().has_value()) woke_empty.fetch_add(1);
    });
  }
  // Give the consumers a moment to actually block in pop().
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(woke_empty.load(), 4);
}

}  // namespace
}  // namespace aimetro
