// Lock-discipline enforcement tests, in two layers:
//
//  1. Registry-level: the lock-order graph in common/lock_debug.{h,cpp} is
//     always compiled, so these drive note_acquire/note_release directly
//     with fake lock addresses — inversion detection, transitive cycles,
//     recursive acquisition, trylock semantics, and address reuse are all
//     checked regardless of how the build was configured.
//
//  2. Wrapper-level: with AIMETRO_LOCK_DEBUG on (the lock-debug CI job),
//     common::Mutex / MutexLock acquisitions feed the registry, so the
//     production orderings — llm route -> replica, engine topology ->
//     strip — are exercised end to end, including deliberately inverted
//     acquisitions that must be reported. With it off, the wrappers must
//     cost nothing: same size as the std types they wrap.
#include <gtest/gtest.h>

#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "common/lock_debug.h"
#include "common/mutex.h"

namespace aimetro {
namespace {

namespace lock_debug = common::lock_debug;

class LockDebugTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lock_debug::reset();
    lock_debug::set_failure_handler(
        [this](const lock_debug::Violation& v) { violations_.push_back(v); });
  }
  void TearDown() override { lock_debug::reset(); }

  std::vector<lock_debug::Violation> violations_;
};

TEST_F(LockDebugTest, ConsistentOrderBuildsEdgesWithoutViolation) {
  int a = 0, b = 0;
  for (int i = 0; i < 3; ++i) {
    lock_debug::note_acquire(&a, "A");
    lock_debug::note_acquire(&b, "B");
    lock_debug::note_release(&b);
    lock_debug::note_release(&a);
  }
  EXPECT_TRUE(violations_.empty());
  EXPECT_EQ(lock_debug::edge_count(), 1u);  // A -> B, recorded once
  EXPECT_EQ(lock_debug::held_count(), 0u);
}

TEST_F(LockDebugTest, InvertedOrderIsReportedWithBothNamesAndStacks) {
  int route = 0, replica = 0;
  lock_debug::note_acquire(&route, "llm.route");
  lock_debug::note_acquire(&replica, "llm.replica");
  lock_debug::note_release(&replica);
  lock_debug::note_release(&route);

  lock_debug::note_acquire(&replica, "llm.replica");
  lock_debug::note_acquire(&route, "llm.route");  // inversion
  ASSERT_EQ(violations_.size(), 1u);
  const lock_debug::Violation& v = violations_[0];
  EXPECT_EQ(v.kind, lock_debug::Violation::Kind::kOrderInversion);
  EXPECT_EQ(v.held, &replica);
  EXPECT_EQ(v.acquiring, &route);
  EXPECT_EQ(v.held_name, "llm.replica");
  EXPECT_EQ(v.acquiring_name, "llm.route");
  EXPECT_NE(v.report.find("llm.route"), std::string::npos);
  EXPECT_NE(v.report.find("llm.replica"), std::string::npos);
  EXPECT_NE(v.report.find("first established"), std::string::npos);
  EXPECT_NE(v.report.find("current acquisition"), std::string::npos);
  lock_debug::note_release(&route);
  lock_debug::note_release(&replica);
  // The offending edge was not added: the graph still has only the
  // original ordering, and the same inversion reports again next time.
  EXPECT_EQ(lock_debug::edge_count(), 1u);
}

TEST_F(LockDebugTest, TransitiveCycleIsDetected) {
  int a = 0, b = 0, c = 0;
  lock_debug::note_acquire(&a, "A");
  lock_debug::note_acquire(&b, "B");
  lock_debug::note_release(&b);
  lock_debug::note_release(&a);
  lock_debug::note_acquire(&b, "B");
  lock_debug::note_acquire(&c, "C");
  lock_debug::note_release(&c);
  lock_debug::note_release(&b);
  ASSERT_TRUE(violations_.empty());

  // A -> B -> C is on record; C -> A closes the cycle transitively even
  // though A and C were never held together before.
  lock_debug::note_acquire(&c, "C");
  lock_debug::note_acquire(&a, "A");
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].kind,
            lock_debug::Violation::Kind::kOrderInversion);
  EXPECT_EQ(violations_[0].held, &c);
  EXPECT_EQ(violations_[0].acquiring, &a);
  lock_debug::note_release(&a);
  lock_debug::note_release(&c);
}

TEST_F(LockDebugTest, RecursiveAcquisitionIsReported) {
  int a = 0;
  lock_debug::note_acquire(&a, "A");
  lock_debug::note_acquire(&a, "A");
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].kind, lock_debug::Violation::Kind::kRecursive);
  // Both acquisitions were recorded, so the stack stays balanced through
  // the matching releases.
  EXPECT_EQ(lock_debug::held_count(), 2u);
  lock_debug::note_release(&a);
  lock_debug::note_release(&a);
  EXPECT_EQ(lock_debug::held_count(), 0u);
}

TEST_F(LockDebugTest, TrylockAddsNoIncomingEdgeButOrdersSuccessors) {
  int a = 0, b = 0, c = 0;
  // try_lock(b) while holding a: no a -> b edge (a trylock cannot block,
  // so it cannot deadlock against the opposite order).
  lock_debug::note_acquire(&a, "A");
  lock_debug::note_acquire(&b, "B", /*trylock=*/true);
  EXPECT_EQ(lock_debug::edge_count(), 0u);
  // But a blocking acquisition made while the trylock is held orders
  // against it normally: edges a -> c and b -> c.
  lock_debug::note_acquire(&c, "C");
  EXPECT_EQ(lock_debug::edge_count(), 2u);
  lock_debug::note_release(&c);
  lock_debug::note_release(&b);
  lock_debug::note_release(&a);
  EXPECT_TRUE(violations_.empty());
}

TEST_F(LockDebugTest, SharedAcquisitionsOrderLikeExclusiveOnes) {
  int rw = 0, m = 0;
  lock_debug::note_acquire(&rw, "world", /*trylock=*/false, /*shared=*/true);
  lock_debug::note_acquire(&m, "commit");
  lock_debug::note_release(&m);
  lock_debug::note_release(&rw);
  ASSERT_TRUE(violations_.empty());
  // Reader/writer inversions deadlock just as hard: commit -> world must
  // still be flagged even though the first order held world only shared.
  lock_debug::note_acquire(&m, "commit");
  lock_debug::note_acquire(&rw, "world");
  ASSERT_EQ(violations_.size(), 1u);
  lock_debug::note_release(&rw);
  lock_debug::note_release(&m);
}

TEST_F(LockDebugTest, DestroyPurgesTheAddressFromTheGraph) {
  int a = 0, b = 0;
  lock_debug::note_acquire(&a, "A");
  lock_debug::note_acquire(&b, "B");
  lock_debug::note_release(&b);
  lock_debug::note_release(&a);
  EXPECT_EQ(lock_debug::edge_count(), 1u);
  // A new lock constructed at b's address must not inherit "A before B".
  lock_debug::note_destroy(&b);
  EXPECT_EQ(lock_debug::edge_count(), 0u);
  lock_debug::note_acquire(&b, "B2");
  lock_debug::note_acquire(&a, "A");
  EXPECT_TRUE(violations_.empty());
  lock_debug::note_release(&a);
  lock_debug::note_release(&b);
}

TEST_F(LockDebugTest, EdgesAreGlobalAcrossThreads) {
  // Thread 1 establishes A -> B; the main thread then violates it. The
  // graph is global — that is the point: the two orders need never be
  // interleaved in one schedule for the validator to flag the deadlock.
  int a = 0, b = 0;
  std::thread t([&] {
    lock_debug::note_acquire(&a, "A");
    lock_debug::note_acquire(&b, "B");
    lock_debug::note_release(&b);
    lock_debug::note_release(&a);
  });
  t.join();
  lock_debug::note_acquire(&b, "B");
  lock_debug::note_acquire(&a, "A");
  ASSERT_EQ(violations_.size(), 1u);
  lock_debug::note_release(&a);
  lock_debug::note_release(&b);
}

#if AIMETRO_LOCK_DEBUG

// ---- Wrapper integration (lock-debug builds only) ----

TEST_F(LockDebugTest, MutexWrapperFeedsTheRegistry) {
  common::Mutex mu{"wrapper"};
  {
    common::MutexLock lock(mu);
    EXPECT_EQ(lock_debug::held_count(), 1u);
  }
  EXPECT_EQ(lock_debug::held_count(), 0u);
  EXPECT_TRUE(violations_.empty());
}

TEST_F(LockDebugTest, WrapperInversionMirroringRouteReplicaIsReported) {
  // The exact production pair: CostModelLlmClient admission takes route
  // before replica. Simulate the buggy opposite order and expect the
  // validator to name both locks.
  common::Mutex route{"llm.route"};
  common::Mutex replica{"llm.replica"};
  {
    common::MutexLock r(route);
    common::MutexLock rep(replica);
  }
  {
    common::MutexLock rep(replica);
    common::MutexLock r(route);  // deliberate inversion
  }
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].held_name, "llm.replica");
  EXPECT_EQ(violations_[0].acquiring_name, "llm.route");
}

TEST_F(LockDebugTest, ShardedCommitProtocolOrderingIsClean) {
  // The engine's boundary-lag protocol: interior commits hold the
  // topology lock shared plus exactly one strip lock; cross-shard
  // commits hold topology exclusive and no strip lock. The validator
  // keys locks by address, so the identically named per-strip mutexes
  // are distinct nodes — and because no commit ever holds two strips at
  // once, no strip-strip edge can form in either direction.
  common::SharedMutex topology{"engine.topology"};
  common::Mutex strip0{"engine.shard"};
  common::Mutex strip1{"engine.shard"};
  for (int round = 0; round < 2; ++round) {
    {
      common::ReaderLock t(topology);
      common::MutexLock s(strip0);
    }
    {
      common::ReaderLock t(topology);
      common::MutexLock s(strip1);
    }
    {
      common::WriterLock t(topology);  // cross-shard escalation
    }
  }
  EXPECT_TRUE(violations_.empty());
  EXPECT_EQ(lock_debug::edge_count(), 2u);  // topology -> each strip
}

TEST_F(LockDebugTest, SharedMutexReaderWriterInversionIsReported) {
  // A strip lock held across a topology acquisition is exactly the
  // deadlock the protocol forbids (a writer blocks between the reader
  // and its strip): the validator must name both locks.
  common::SharedMutex topology{"engine.topology"};
  common::Mutex strip{"engine.shard"};
  {
    common::ReaderLock t(topology);
    common::MutexLock s(strip);
  }
  {
    common::MutexLock s(strip);
    common::WriterLock t(topology);  // deliberate inversion
  }
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].held_name, "engine.shard");
  EXPECT_EQ(violations_[0].acquiring_name, "engine.topology");
}

#else  // !AIMETRO_LOCK_DEBUG

// ---- Zero-cost-off guarantees (default builds) ----

TEST(LockDebugOff, WrappersAreLayoutIdenticalToStdTypes) {
  static_assert(sizeof(common::Mutex) == sizeof(std::mutex),
                "common::Mutex must add nothing when AIMETRO_LOCK_DEBUG "
                "is off");
  static_assert(sizeof(common::SharedMutex) == sizeof(std::shared_mutex),
                "common::SharedMutex must add nothing when "
                "AIMETRO_LOCK_DEBUG is off");
  SUCCEED();
}

TEST(LockDebugOff, WrapperAcquisitionsDoNotTouchTheRegistry) {
  lock_debug::reset();
  common::Mutex mu{"ignored"};
  {
    common::MutexLock lock(mu);
    EXPECT_EQ(lock_debug::held_count(), 0u);
  }
  EXPECT_EQ(lock_debug::edge_count(), 0u);
}

#endif  // AIMETRO_LOCK_DEBUG

}  // namespace
}  // namespace aimetro
