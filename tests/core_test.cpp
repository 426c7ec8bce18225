#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/check.h"
#include "common/rng.h"
#include "core/critical_path.h"
#include "core/dependency_rules.h"
#include "core/metric.h"
#include "core/oracle.h"
#include "core/scoreboard.h"
#include "trace/generator.h"
#include "world/grid_map.h"

namespace aimetro::core {
namespace {

const DependencyParams kParams{4.0, 1.0};  // GenAgent defaults

TEST(Rules, CoupledThreshold) {
  EXPECT_TRUE(coupled(5.0, 3, 3, kParams));   // == radius_p + max_vel
  EXPECT_FALSE(coupled(5.1, 3, 3, kParams));
  EXPECT_FALSE(coupled(1.0, 3, 4, kParams));  // different steps never couple
}

TEST(Rules, BlockingThresholdGrowsWithLag) {
  // B behind by `lag`: radius is (lag+1)*max_vel + radius_p.
  EXPECT_TRUE(blocks(6.0, 5, 4, false, kParams));    // lag 1 -> 6.0
  EXPECT_FALSE(blocks(6.1, 5, 4, false, kParams));
  EXPECT_TRUE(blocks(14.0, 13, 3, false, kParams));  // lag 10 -> 15.0
  EXPECT_TRUE(blocks(15.0, 13, 3, false, kParams));
  EXPECT_FALSE(blocks(15.1, 13, 3, false, kParams));
}

TEST(Rules, FutureAgentsNeverBlock) {
  EXPECT_FALSE(blocks(0.0, 3, 4, false, kParams));
  EXPECT_FALSE(blocks(0.0, 3, 4, true, kParams));
}

TEST(Rules, SameStepBlocksOnlyWhileRunning) {
  EXPECT_FALSE(blocks(2.0, 3, 3, false, kParams));  // idle: coupled instead
  EXPECT_TRUE(blocks(2.0, 3, 3, true, kParams));
  EXPECT_FALSE(blocks(5.1, 3, 3, true, kParams));   // outside radius
}

TEST(Rules, ValidityCondition) {
  // |gap|=1: need dist > radius_p.
  EXPECT_TRUE(state_valid(4.1, 5, 6, kParams));
  EXPECT_FALSE(state_valid(4.0, 5, 6, kParams));
  // |gap|=3: need dist > radius_p + 2.
  EXPECT_TRUE(state_valid(6.1, 2, 5, kParams));
  EXPECT_FALSE(state_valid(6.0, 5, 2, kParams));
  // Same step: always valid.
  EXPECT_TRUE(state_valid(0.0, 7, 7, kParams));
}

TEST(Rules, BlockingPreservesValidityOneStepAhead) {
  // Property: if B does NOT block A, then A advancing one step keeps the
  // validity condition intact even if both move adversarially (the
  // Appendix A derivation). Randomized check.
  Rng rng(77);
  for (int trial = 0; trial < 2000; ++trial) {
    const Step step_b = static_cast<Step>(rng.uniform_int(0, 50));
    const Step step_a = step_b + static_cast<Step>(rng.uniform_int(0, 20));
    const double dist = rng.uniform(0.0, 40.0);
    if (blocks(dist, step_a, step_b, false, kParams)) continue;
    if (step_a == step_b && coupled(dist, step_a, step_b, kParams)) continue;
    // A advances to step_a+1; both may close the gap by max_vel total
    // relative movement per agent step is bounded by max_vel for A.
    const double worst_dist = dist - kParams.max_vel;
    EXPECT_TRUE(state_valid(worst_dist, step_a + 1, step_b, kParams))
        << "dist=" << dist << " steps " << step_a << "," << step_b;
  }
}

TEST(Metric, BuiltinsAgreeWithHelpers) {
  EuclideanMetric e;
  ManhattanMetric m;
  ChebyshevMetric c;
  const Pos a{1, 2}, b{4, 6};
  EXPECT_DOUBLE_EQ(e.distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(m.distance(a, b), 7.0);
  EXPECT_DOUBLE_EQ(c.distance(a, b), 4.0);
  EXPECT_EQ(e.name(), "euclidean");
}

TEST(Metric, GraphHopDistances) {
  // 0-1-2-3 path plus isolated node 4.
  GraphMetric g({{1}, {0, 2}, {1, 3}, {2}, {}});
  auto node = [](int i) { return Pos{static_cast<double>(i), 0}; };
  EXPECT_DOUBLE_EQ(g.distance(node(0), node(0)), 0.0);
  EXPECT_DOUBLE_EQ(g.distance(node(0), node(3)), 3.0);
  EXPECT_DOUBLE_EQ(g.distance(node(1), node(3)), 2.0);
  EXPECT_GE(g.distance(node(0), node(4)), GraphMetric::kDisconnected);
}

// ---- Scoreboard ----

std::vector<Pos> line_positions(std::initializer_list<double> xs) {
  std::vector<Pos> out;
  for (double x : xs) out.push_back(Pos{x, 0.0});
  return out;
}

TEST(Scoreboard, SingleAgentRunsToTarget) {
  Scoreboard sb(kParams, make_euclidean(), line_positions({0.0}), 3);
  for (int s = 0; s < 3; ++s) {
    auto ready = sb.pop_ready_clusters();
    ASSERT_EQ(ready.size(), 1u) << "step " << s;
    EXPECT_EQ(ready[0].step, s);
    sb.commit({{0, Pos{static_cast<double>(s + 1), 0.0}}});
  }
  EXPECT_TRUE(sb.all_done());
  EXPECT_TRUE(sb.pop_ready_clusters().empty());
  EXPECT_EQ(sb.stats().commits, 3u);
}

TEST(Scoreboard, FarAgentsAreIndependent) {
  Scoreboard sb(kParams, make_euclidean(), line_positions({0.0, 100.0}), 10);
  auto ready = sb.pop_ready_clusters();
  ASSERT_EQ(ready.size(), 2u);
  // Agent 1 can sprint many steps ahead without agent 0 moving at all.
  sb.commit({{1, Pos{100.0, 0.0}}});
  for (int s = 1; s < 10; ++s) {
    auto r = sb.pop_ready_clusters();
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].members, (std::vector<AgentId>{1}));
    sb.commit({{1, Pos{100.0, 0.0}}});
  }
  EXPECT_EQ(sb.step_of(1), 10);
  EXPECT_EQ(sb.status_of(1), AgentStatus::kDone);
  EXPECT_EQ(sb.step_of(0), 0);
  sb.check_invariants();
}

TEST(Scoreboard, CloseAgentsCouple) {
  Scoreboard sb(kParams, make_euclidean(), line_positions({0.0, 3.0}), 5);
  auto ready = sb.pop_ready_clusters();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].members, (std::vector<AgentId>{0, 1}));
  // The cluster commits together.
  sb.commit({{0, Pos{0.0, 0.0}}, {1, Pos{3.0, 0.0}}});
  EXPECT_EQ(sb.step_of(0), 1);
  EXPECT_EQ(sb.step_of(1), 1);
  sb.check_invariants();
}

TEST(Scoreboard, LaggardBlocksLeaderAtTheRule) {
  // Agents at distance 7: coupling radius is 5, so they start separately;
  // the leader can advance until (lag+1)*1 + 4 >= 7, i.e. lag 2.
  Scoreboard sb(kParams, make_euclidean(), line_positions({0.0, 7.0}), 10);
  auto ready = sb.pop_ready_clusters();
  ASSERT_EQ(ready.size(), 2u);
  // Advance agent 1 only (commit it, never dispatch agent 0's cluster work).
  sb.commit({{1, Pos{7.0, 0.0}}});  // now step 1, lag 1: 2*1+4=6 < 7: free
  auto r1 = sb.pop_ready_clusters();
  ASSERT_EQ(r1.size(), 1u);
  sb.commit({{1, Pos{7.0, 0.0}}});  // now step 2, lag 2: 3*1+4=7 >= 7: blocked
  EXPECT_TRUE(sb.is_blocked(1));
  EXPECT_EQ(sb.blockers_of(1), (std::vector<AgentId>{0}));
  EXPECT_TRUE(sb.pop_ready_clusters().empty());
  // Agent 0 commits its step 0 (it was marked running at the start).
  sb.commit({{0, Pos{0.0, 0.0}}});
  EXPECT_FALSE(sb.is_blocked(1));  // lag back to 1
  const auto r2 = sb.pop_ready_clusters();
  ASSERT_EQ(r2.size(), 2u);  // both agents have ready clusters again
  sb.check_invariants();
}

TEST(Scoreboard, LeaderHitsTheStragglersCone) {
  // Leader at distance 20 from a straggler stuck executing step 0: the
  // leader may advance until (lag+1)*max_vel + radius_p reaches 20, i.e.
  // exactly step 15. Once the straggler commits one step, the cone recedes
  // and the leader is free again.
  Scoreboard sb(kParams, make_euclidean(), line_positions({0.0, 20.0}), 50);
  auto ready = sb.pop_ready_clusters();
  ASSERT_EQ(ready.size(), 2u);  // both dispatched; agent 0 never commits yet
  int leader_steps = 0;
  sb.commit({{1, Pos{20.0, 0.0}}});
  ++leader_steps;
  while (true) {
    auto r = sb.pop_ready_clusters();
    if (r.empty()) break;
    ASSERT_EQ(r.size(), 1u);
    ASSERT_EQ(r[0].members, (std::vector<AgentId>{1}));
    sb.commit({{1, Pos{20.0, 0.0}}});
    ++leader_steps;
    ASSERT_LE(leader_steps, 20) << "leader was never blocked";
  }
  // dist 20 <= (15 - 0 + 1) + 4 = 20: blocked exactly at step 15.
  EXPECT_EQ(sb.step_of(1), 15);
  EXPECT_TRUE(sb.is_blocked(1));
  EXPECT_EQ(sb.blockers_of(1), (std::vector<AgentId>{0}));
  sb.check_invariants();
  // Straggler commits step 0: lag drops to 14, radius 19 < 20 -> free.
  sb.commit({{0, Pos{0.0, 0.0}}});
  EXPECT_FALSE(sb.is_blocked(1));
  const auto r2 = sb.pop_ready_clusters();
  ASSERT_EQ(r2.size(), 2u);
  sb.check_invariants();
}

TEST(Scoreboard, MergingClustersThroughBridgeAgent) {
  // Two pairs 8 apart, bridge agent in the middle connects them.
  Scoreboard sb(kParams, make_euclidean(),
                line_positions({0.0, 4.0, 8.0}), 5);
  auto ready = sb.pop_ready_clusters();
  ASSERT_EQ(ready.size(), 1u);  // all coupled transitively via the middle
  EXPECT_EQ(ready[0].members.size(), 3u);
}

TEST(Scoreboard, RejectsBadCommits) {
  Scoreboard sb(kParams, make_euclidean(), line_positions({0.0}), 5);
  // Not running yet.
  EXPECT_THROW(sb.commit({{0, Pos{0.0, 0.0}}}), CheckError);
  sb.pop_ready_clusters();
  // Speed violation.
  EXPECT_THROW(sb.commit({{0, Pos{5.0, 0.0}}}), CheckError);
}

TEST(Scoreboard, DotRenderingContainsAgents) {
  Scoreboard sb(kParams, make_euclidean(), line_positions({0.0, 2.0}), 5);
  const std::string dot = sb.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("A@0"), std::string::npos);
  EXPECT_NE(dot.find("B@0"), std::string::npos);
}

/// Randomized lifecycle property test: drive the scoreboard like an
/// executor would — pop ready clusters, commit them in random order with
/// random legal moves — and assert the causality invariant plus internal
/// consistency at every commit, for several world shapes.
struct LifecycleParam {
  int n_agents;
  double spread;  // initial max coordinate
  Step target;
  std::uint64_t seed;
};

class ScoreboardLifecycle : public ::testing::TestWithParam<LifecycleParam> {};

TEST_P(ScoreboardLifecycle, InvariantsHoldUnderRandomSchedules) {
  const LifecycleParam p = GetParam();
  Rng rng(p.seed);
  std::vector<Pos> initial;
  for (int i = 0; i < p.n_agents; ++i) {
    initial.push_back(
        Pos{rng.uniform(0.0, p.spread), rng.uniform(0.0, p.spread)});
  }
  Scoreboard sb(kParams, make_euclidean(), initial, p.target);
  std::vector<AgentCluster> in_flight;
  std::uint64_t commits = 0;
  while (!sb.all_done()) {
    for (auto& c : sb.pop_ready_clusters()) in_flight.push_back(std::move(c));
    ASSERT_FALSE(in_flight.empty()) << "scheduler stalled (deadlock)";
    // Commit a random in-flight cluster with random legal moves.
    const std::size_t pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(in_flight.size()) - 1));
    AgentCluster cluster = std::move(in_flight[pick]);
    in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));
    std::vector<std::pair<AgentId, Pos>> moves;
    for (AgentId m : cluster.members) {
      Pos pos = sb.pos_of(m);
      const double angle = rng.uniform(0.0, 2.0 * M_PI);
      const double dist = rng.uniform(0.0, kParams.max_vel);
      pos.x += std::cos(angle) * dist;
      pos.y += std::sin(angle) * dist;
      moves.emplace_back(m, pos);
    }
    sb.commit(moves);
    ++commits;
    if (commits % 7 == 0) sb.check_invariants();  // amortize the O(n^2)
  }
  sb.check_invariants();
  EXPECT_EQ(sb.min_step(), p.target);
  EXPECT_EQ(sb.stats().commits, commits);
  // Sparsity: with few agents spread out, blocking should be rare.
  EXPECT_LT(sb.mean_blockers(), static_cast<double>(p.n_agents));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ScoreboardLifecycle,
    ::testing::Values(LifecycleParam{4, 10.0, 30, 1},    // cramped: couples
                      LifecycleParam{8, 60.0, 25, 2},    // mixed
                      LifecycleParam{16, 200.0, 20, 3},  // sparse
                      LifecycleParam{12, 30.0, 15, 4},   // dense blocking
                      LifecycleParam{1, 5.0, 50, 5}));   // degenerate

TEST(Scoreboard, GraphMetricWorld) {
  // Social-network world (§6 extension): distance is hop count.
  // 0-1-2-3-4 chain; radius_p=1, max_vel=0 (agents do not move socially).
  auto metric = std::make_shared<GraphMetric>(
      std::vector<std::vector<std::int32_t>>{{1}, {0, 2}, {1, 3}, {2, 4}, {3}});
  DependencyParams params{1.0, 0.0};
  std::vector<Pos> nodes;
  for (int i = 0; i < 5; ++i) nodes.push_back(Pos{static_cast<double>(i), 0});
  Scoreboard sb(params, metric, nodes, 10);
  // Neighbors (hop distance 1 == radius_p + 0) couple transitively: the
  // whole chain is one cluster.
  auto ready = sb.pop_ready_clusters();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].members.size(), 5u);
}

// ---- Oracle & critical path ----

trace::SimulationTrace tiny_trace() {
  const auto map = world::GridMap::smallville(6);
  trace::GeneratorConfig cfg;
  cfg.n_agents = 6;
  cfg.seed = 31;
  auto full = trace::generate(map, cfg);
  return trace::slice(full, 4320, 4440);  // 120 busy steps
}

TEST(Oracle, GroupsReflectProximityAndInteractions) {
  const auto trace = tiny_trace();
  const OracleDependencies oracle = mine_oracle(trace);
  ASSERT_EQ(oracle.groups_by_step.size(),
            static_cast<std::size_t>(trace.n_steps));
  for (Step rel = 0; rel < trace.n_steps; ++rel) {
    for (const auto& group :
         oracle.groups_by_step[static_cast<std::size_t>(rel)]) {
      EXPECT_GE(group.size(), 2u);
      EXPECT_TRUE(std::is_sorted(group.begin(), group.end()));
    }
  }
  // Every pair within radius_p at a step must share a group.
  for (Step rel = 0; rel < trace.n_steps; ++rel) {
    for (AgentId a = 0; a < trace.n_agents; ++a) {
      for (AgentId b = a + 1; b < trace.n_agents; ++b) {
        const double d = euclidean(
            trace.position_at(a, trace.start_step + rel).center(),
            trace.position_at(b, trace.start_step + rel).center());
        if (d <= trace.radius_p) {
          const auto ga = oracle.group_of(rel, a);
          EXPECT_TRUE(std::binary_search(ga.begin(), ga.end(), b))
              << "step " << rel << " agents " << a << "," << b;
        }
      }
    }
  }
  // Explicit interactions are honored too.
  for (const auto& in : trace.interactions) {
    const auto g = oracle.group_of(in.step - trace.start_step, in.a);
    EXPECT_TRUE(std::binary_search(g.begin(), g.end(), in.b));
  }
}

TEST(Oracle, SingletonGroupOfLoner) {
  const auto trace = tiny_trace();
  const OracleDependencies oracle = mine_oracle(trace);
  const auto g = oracle.group_of(-5, 0);  // out of range -> singleton
  EXPECT_EQ(g, (std::vector<AgentId>{0}));
}

TEST(CriticalPath, HandBuiltChain) {
  // Two agents, 3 steps. Agent 0 has heavy calls at steps 0 and 2; agent 1
  // has a heavy call at step 1 and interacts with agent 0 at step 1, so the
  // critical chain can hop 0@0 -> 1@1 -> (0 or 1)@2.
  trace::SimulationTrace t;
  t.n_agents = 2;
  t.n_steps = 3;
  t.map_width = t.map_height = 100;
  t.radius_p = 4.0;
  t.max_vel = 1.0;
  t.agents.resize(2);
  for (int i = 0; i < 2; ++i) {
    t.agents[static_cast<std::size_t>(i)].agent = i;
    // Keep them 3 apart (within radius_p: interacting throughout).
    for (int s = 0; s <= 3; ++s) {
      t.agents[static_cast<std::size_t>(i)].positions.push_back(
          Tile{i * 3, 0});
    }
  }
  auto add_call = [&](AgentId a, Step s, int in, int out) {
    trace::LlmCall c;
    c.agent = a;
    c.step = s;
    c.seq = 0;
    c.input_tokens = in;
    c.output_tokens = out;
    t.agents[static_cast<std::size_t>(a)].calls.push_back(c);
  };
  add_call(0, 0, 1000, 10);  // heavy
  add_call(1, 0, 10, 1);
  add_call(1, 1, 2000, 20);  // heavy
  add_call(0, 2, 500, 5);    // agent 0's finale is heavier than agent 1's
  add_call(1, 2, 100, 1);
  t.validate();
  const auto oracle = mine_oracle(t);
  const auto cp = critical_path(t, oracle);
  EXPECT_EQ(cp.total_tokens, 1010 + 2020 + 505);
  EXPECT_EQ(cp.call_count, 3u);
}

TEST(CriticalPath, BoundedByTotalsOnRealTrace) {
  const auto trace = tiny_trace();
  const auto oracle = mine_oracle(trace);
  const auto cp = critical_path(trace, oracle);
  std::int64_t total = 0;
  std::int64_t heaviest_agent = 0;
  for (const auto& agent : trace.agents) {
    std::int64_t mine = 0;
    for (const auto& c : agent.calls) mine += c.input_tokens + c.output_tokens;
    total += mine;
    heaviest_agent = std::max(heaviest_agent, mine);
  }
  EXPECT_GE(cp.total_tokens, heaviest_agent);  // self-chains always count
  EXPECT_LE(cp.total_tokens, total);
  EXPECT_EQ(cp.total_tokens, cp.input_tokens + cp.output_tokens);
  // The chain is executable: steps never decrease.
  for (std::size_t i = 1; i < cp.calls.size(); ++i) {
    EXPECT_LE(cp.calls[i - 1].step, cp.calls[i].step);
  }
}

}  // namespace
}  // namespace aimetro::core
