// Differential tests for the index-backed scoreboard scan modes.
//
// ScanMode::kIndexed (spatial-index box probes on Chebyshev-bounded
// metrics, graph-index BFS ball probes on hop metrics) must be observably
// indistinguishable from the brute-force full-scan reference. The
// randomized sweep lives in tests/support/differential.h — a reusable
// harness that drives an indexed and a brute scoreboard through one
// executor loop and compares the complete observable state after every
// commit, with a one-line AIMETRO_DIFF_REPRO shrink mode for failures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/metric.h"
#include "core/scoreboard.h"
#include "support/differential.h"
#include "world/social_graph.h"

namespace aimetro::core {
namespace {

using test_support::DiffCase;
using test_support::DiffShape;
using test_support::parse_repro;
using test_support::repro_string;
using test_support::run_differential_sweep;

/// The sweep's shape catalogue: every metric family, every density regime
/// the scheduler distinguishes. Graph shapes draw a fresh Newman-Watts
/// small-world graph per seed, so 16 seeds mean 16 different graphs.
const std::vector<DiffShape>& sweep_shapes() {
  static const std::vector<DiffShape> kShapes = {
      // Dense coupling: big clusters, lots of merging.
      {24, 30.0, 20, DependencyParams{4.0, 1.0}, "euclidean"},
      // Sparse: independence, long lag spreads, tight radius bound.
      {40, 400.0, 25, DependencyParams{4.0, 1.0}, "euclidean"},
      // Mixed occupancy.
      {64, 120.0, 15, DependencyParams{4.0, 1.0}, "euclidean"},
      // Large perception radius: blocking dominates.
      {32, 80.0, 12, DependencyParams{10.0, 1.0}, "euclidean"},
      // Slow agents: lag cones grow slowly.
      {24, 40.0, 18, DependencyParams{3.0, 0.25}, "euclidean"},
      // Non-Euclidean grid metrics exercise the box-superset filter.
      {32, 60.0, 15, DependencyParams{4.0, 1.0}, "manhattan"},
      {32, 60.0, 15, DependencyParams{4.0, 1.0}, "chebyshev"},
      // Degenerate single agent.
      {1, 5.0, 30, DependencyParams{4.0, 1.0}, "euclidean"},
      // Graph shapes exercise the BFS ball probe end to end.
      // Sparse small-world: ~1 agent per 5 nodes, 2-hop perception.
      {24, 0.0, 15, DependencyParams{2.0, 1.0}, "graph", 120, 4, 0.1},
      // Crowded: more agents than nodes, wide hop radius, heavy merging.
      {40, 0.0, 12, DependencyParams{3.0, 1.0}, "graph", 30, 6, 0.2},
      // Pure ring (no shortcuts): worst-case BFS depth, fractional radius
      // exercises the floor(r) hop bound.
      {12, 0.0, 15, DependencyParams{2.5, 1.0}, "graph", 48, 2, 0.0},
      // Immobile agents on a graph: pure blocking, no index updates.
      {16, 0.0, 20, DependencyParams{1.0, 0.0}, "graph", 64, 4, 0.1},
      // Sharded strip structure against the flat reference: wide spread
      // gives mostly-interior strips with live borders as agents drift.
      {48, 400.0, 15, DependencyParams{4.0, 1.0}, "euclidean", 0, 4, 0.1, 4},
      // Strips narrower than the blocking radius: nearly every agent is a
      // border agent and most clusters are cross-strip — the escalation
      // path must still match the flat board exactly.
      {32, 60.0, 12, DependencyParams{4.0, 1.0}, "euclidean", 0, 4, 0.1, 8},
      // Sharded non-Euclidean: box-superset probes across strip seams.
      {40, 240.0, 12, DependencyParams{4.0, 1.0}, "chebyshev", 0, 4, 0.1, 4},
      // Graph metric with shards requested: the partition must collapse
      // to one strip and behave exactly like the unsharded board.
      {24, 0.0, 12, DependencyParams{2.0, 1.0}, "graph", 120, 4, 0.1, 8},
  };
  return kShapes;
}

TEST(ScoreboardDifferential, SweepIndexedMatchesBruteAcrossMetricsAndSeeds) {
  run_differential_sweep(sweep_shapes(), /*n_seeds=*/16);
}

TEST(DifferentialHarness, ReproStringRoundTripsEveryShape) {
  // The shrink mode is only useful if the printed tuple parses back to
  // the exact case that failed.
  for (const DiffShape& shape : sweep_shapes()) {
    const DiffCase c{shape, 4242};
    const auto parsed = parse_repro(repro_string(c));
    ASSERT_TRUE(parsed.has_value()) << repro_string(c);
    EXPECT_EQ(repro_string(*parsed), repro_string(c));
  }
  EXPECT_FALSE(parse_repro("metric=graph bogus_key=1").has_value());
  EXPECT_FALSE(parse_repro("agents=twelve").has_value());
}

TEST(ScoreboardShards, PartitionClassifiesInteriorAndBorderCommits) {
  // Four strips of width 250 over x in [0, 1000] (the anchors at the
  // extremes pin the range). With target=5 and floor=0 the confinement
  // radius is blocking_radius(5) + coupling_radius = 10 + 5 = 15, so a
  // commit is interior iff its members' old and new boxes of half-extent
  // 15 stay inside one strip.
  const DependencyParams params{4.0, 1.0};
  const std::vector<Pos> initial = {
      {0.0, 0.0},    // strip 0 edge anchor
      {125.0, 0.0},  // strip 0 interior
      {245.0, 0.0},  // strip 0, within 15 of the 250 border
      {625.0, 0.0},  // strip 2 interior
      {1000.0, 0.0}  // strip 3 edge anchor
  };
  Scoreboard sb(params, make_euclidean(), initial, 5, ScanMode::kIndexed, 4);
  ASSERT_EQ(sb.shards(), 4);
  EXPECT_EQ(sb.shard_of_pos(Pos{125.0, 0.0}), 0);
  EXPECT_EQ(sb.shard_of_pos(Pos{251.0, 0.0}), 1);
  EXPECT_EQ(sb.shard_of_pos(Pos{625.0, 0.0}), 2);
  EXPECT_EQ(sb.shard_of_pos(Pos{-40.0, 0.0}), 0);    // clamped
  EXPECT_EQ(sb.shard_of_pos(Pos{2000.0, 0.0}), 3);   // clamped

  // Interior commit: agent 3 deep inside strip 2, staying there.
  const std::vector<std::pair<AgentId, Pos>> interior = {
      {3, Pos{626.0, 0.0}}};
  EXPECT_EQ(sb.local_commit_shard(interior, /*probe_floor=*/0), 2);
  // Border commit: agent 2's box straddles strips 0 and 1.
  const std::vector<std::pair<AgentId, Pos>> border = {{2, Pos{246.0, 0.0}}};
  EXPECT_EQ(sb.local_commit_shard(border, /*probe_floor=*/0), -1);

  // Per-strip pops see only clusters homed there, and together they see
  // everything the global pop would.
  auto s0 = sb.pop_ready_clusters_in_shard(0);
  auto s2 = sb.pop_ready_clusters_in_shard(2);
  std::size_t popped = s0.size() + s2.size();
  for (std::int32_t s : {1, 3}) {
    popped += sb.pop_ready_clusters_in_shard(s).size();
  }
  EXPECT_EQ(popped, 5u);  // far-apart agents: one singleton cluster each
  for (const auto& c : s2) {
    for (AgentId m : c.members) {
      EXPECT_EQ(sb.shard_of_pos(sb.pos_of(m)), 2);
    }
  }
  sb.check_invariants();
}

TEST(ScoreboardShards, NonIndexableModesCollapseToOneStrip) {
  const DependencyParams params{4.0, 1.0};
  const std::vector<Pos> initial = {{0.0, 0.0}, {500.0, 0.0}, {1000.0, 0.0}};
  Scoreboard brute(params, make_euclidean(), initial, 5,
                   ScanMode::kBruteForce, 8);
  EXPECT_EQ(brute.shards(), 1);
  auto metric =
      std::make_shared<GraphMetric>(world::CsrGraph({{1}, {0, 2}, {1}}));
  Scoreboard graph(params, metric,
                   {Pos{0.0, 0.0}, Pos{1.0, 0.0}, Pos{2.0, 0.0}}, 5,
                   ScanMode::kIndexed, 8);
  EXPECT_EQ(graph.shards(), 1);
  // Collapsed boards classify every commit as cross-shard (the engine
  // then always escalates, which is exactly the old global-lock path).
  EXPECT_EQ(brute.local_commit_shard({{1, Pos{500.0, 0.0}}}, 0), -1);
}

TEST(ScoreboardShards, ShardedRunToCompletionHoldsInvariants) {
  // A full randomized run on a sharded board, exercising borders forming
  // and dissolving as agents drift across strips, with per-strip stats
  // summing to the global rollup.
  Rng rng(77);
  std::vector<Pos> initial;
  for (int i = 0; i < 200; ++i) {
    initial.push_back(Pos{rng.uniform(0.0, 800.0), rng.uniform(0.0, 80.0)});
  }
  Scoreboard sb(DependencyParams{4.0, 1.0}, make_euclidean(), initial, 8,
                ScanMode::kIndexed, 8);
  ASSERT_EQ(sb.shards(), 8);
  std::vector<AgentCluster> in_flight;
  std::uint64_t commits = 0;
  while (!sb.all_done()) {
    for (auto& c : sb.pop_ready_clusters()) in_flight.push_back(std::move(c));
    ASSERT_FALSE(in_flight.empty()) << "scheduler stalled";
    const std::size_t pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(in_flight.size()) - 1));
    AgentCluster cluster = std::move(in_flight[pick]);
    in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));
    std::vector<std::pair<AgentId, Pos>> moves;
    for (AgentId m : cluster.members) {
      Pos pos = sb.pos_of(m);
      pos.x += rng.uniform(-1.0, 1.0) * 0.7;
      pos.y += rng.uniform(-1.0, 1.0) * 0.7;
      moves.emplace_back(m, pos);
    }
    sb.commit(moves, /*probe_floor=*/sb.min_step());
    if (++commits % 101 == 0) sb.check_invariants();
  }
  sb.check_invariants();
  EXPECT_EQ(sb.min_step(), 8);
  std::uint64_t shard_commits = 0;
  for (std::int32_t s = 0; s < sb.shards(); ++s) {
    shard_commits += sb.shard_stats(s).commits;
  }
  EXPECT_EQ(shard_commits, sb.stats().commits);
  EXPECT_EQ(sb.stats().commits, commits);
}

TEST(ScoreboardIndex, GraphMetricRunsIndexedNotFallback) {
  // GraphMetric positions encode node ids, so the box index cannot serve
  // it — but the adjacency seam hands the scoreboard a GraphIndex, and
  // indexed mode must genuinely use it (and still match brute force; the
  // sweep above covers the matching at scale).
  auto metric = std::make_shared<GraphMetric>(
      world::CsrGraph({{1}, {0, 2}, {1, 3}, {2, 4}, {3}}));
  DependencyParams params{1.0, 0.0};
  std::vector<Pos> nodes;
  for (int i = 0; i < 5; ++i) nodes.push_back(Pos{static_cast<double>(i), 0});
  Scoreboard indexed(params, metric, nodes, 6, ScanMode::kIndexed);
  Scoreboard brute(params, metric, nodes, 6, ScanMode::kBruteForce);
  EXPECT_TRUE(indexed.use_graph_index());
  EXPECT_FALSE(brute.use_graph_index());
  while (!indexed.all_done()) {
    const auto ready_i = indexed.pop_ready_clusters();
    const auto ready_b = brute.pop_ready_clusters();
    ASSERT_EQ(ready_i.size(), ready_b.size());
    for (const auto& c : ready_i) {
      std::vector<std::pair<AgentId, Pos>> moves;
      for (AgentId m : c.members) moves.emplace_back(m, indexed.pos_of(m));
      indexed.commit(moves);
      brute.commit(moves);
    }
    test_support::expect_scoreboards_equal(indexed, brute);
  }
  indexed.check_invariants();
}

/// Forwards to a GraphMetric, adjacency included (so the scoreboard
/// builds its GraphIndex), and counts distance() calls.
class CountingGraphMetric final : public Metric {
 public:
  explicit CountingGraphMetric(world::CsrGraph graph)
      : inner_(std::move(graph)) {}
  double distance(const Pos& a, const Pos& b) const override {
    ++calls;
    return inner_.distance(a, b);
  }
  std::string name() const override { return "counting-graph"; }
  const world::CsrGraph* graph_adjacency() const override {
    return inner_.graph_adjacency();
  }
  mutable std::uint64_t calls = 0;

 private:
  GraphMetric inner_;
};

TEST(ScoreboardIndex, GraphProbesNeverCallTheMetric) {
  // An indexed graph board reads every distance it tests — blockers,
  // coupling, watcher refreshes, the max_vel check — from its own ball
  // walks. A randomized schedule of one-hop moves, with agent 0 held back
  // in flight until nothing else can move, builds deep lag balls: on a
  // sparse ring with few shortcuts, agents far from the straggler run
  // well ahead of it.
  const auto adj = world::newman_watts_graph(400, 2, 0.02, 61);
  auto metric = std::make_shared<CountingGraphMetric>(adj);
  Rng rng(61);
  std::vector<Pos> initial;
  for (int i = 0; i < 30; ++i) {
    initial.push_back(Pos{static_cast<double>(rng.uniform_int(0, 399)), 0});
  }
  const Step target = 10;
  Scoreboard sb(DependencyParams{1.0, 1.0}, metric, initial, target);
  ASSERT_TRUE(sb.use_graph_index());
  std::vector<AgentCluster> in_flight;
  Step max_lag = 0;
  while (!sb.all_done()) {
    for (auto& c : sb.pop_ready_clusters()) in_flight.push_back(std::move(c));
    ASSERT_FALSE(in_flight.empty()) << "scheduler stalled";
    std::vector<std::size_t> movable;
    for (std::size_t k = 0; k < in_flight.size(); ++k) {
      const auto& members = in_flight[k].members;
      if (std::find(members.begin(), members.end(), 0) == members.end()) {
        movable.push_back(k);
      }
    }
    // Only agent 0's cluster left: commit it.
    const std::size_t pick =
        movable.empty() ? 0
                        : movable[static_cast<std::size_t>(rng.uniform_int(
                              0, static_cast<std::int64_t>(movable.size()) -
                                     1))];
    AgentCluster cluster = std::move(in_flight[pick]);
    in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));
    std::vector<std::pair<AgentId, Pos>> moves;
    for (AgentId m : cluster.members) {
      Pos pos = sb.pos_of(m);
      const auto nbrs = adj.neighbors(static_cast<std::int32_t>(pos.x));
      if (rng.bernoulli(0.7)) {
        pos.x = nbrs[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(nbrs.size()) - 1))];
      }
      moves.emplace_back(m, pos);
    }
    sb.commit(moves);
    Step max_step = 0;
    for (std::size_t i = 0; i < sb.agent_count(); ++i) {
      max_step = std::max(max_step, sb.step_of(static_cast<AgentId>(i)));
    }
    max_lag = std::max(max_lag, max_step - sb.min_step());
  }
  EXPECT_GE(max_lag, 5) << "the straggler never built a deep lag ball";
  EXPECT_EQ(metric->calls, 0u);
  // The counter is live: the O(n^2) invariant check does use the metric.
  sb.check_invariants();
  EXPECT_GT(metric->calls, 0u);
}

TEST(ScoreboardIndex, GraphSpeedCheckRejectsMultiHopMoves) {
  // On an indexed graph board the max_vel check counts hops with a walk
  // that stops once the new node is labeled (none for a stay); a move
  // beyond max_vel hops must still fail loudly. Each case runs on a fresh
  // board: a rejected member leaves the members before it committed.
  auto metric = std::make_shared<GraphMetric>(
      world::CsrGraph({{1}, {0, 2}, {1, 3}, {2, 4}, {3}}));
  auto fresh = [&](double max_vel, std::vector<Pos> initial) {
    auto sb = std::make_unique<Scoreboard>(DependencyParams{1.0, max_vel},
                                           metric, std::move(initial), 3);
    EXPECT_TRUE(sb->use_graph_index());
    return sb;
  };
  auto node = [](double x) { return Pos{x, 0.0}; };
  {
    auto sb = fresh(1.0, {node(0)});
    ASSERT_EQ(sb->pop_ready_clusters().size(), 1u);
    EXPECT_THROW(sb->commit({{0, node(2)}}), CheckError);
    sb->commit({{0, node(1)}});
    EXPECT_EQ(sb->step_of(0), 1);
    EXPECT_EQ(sb->pos_of(0), node(1));
  }
  {
    // A stay.
    auto sb = fresh(1.0, {node(2)});
    ASSERT_EQ(sb->pop_ready_clusters().size(), 1u);
    sb->commit({{0, node(2)}});
    EXPECT_EQ(sb->step_of(0), 1);
    EXPECT_EQ(sb->pos_of(0), node(2));
  }
  {
    // max_vel = 2: the walk labels past depth 1. Two hops land, three
    // fail.
    auto sb = fresh(2.0, {node(0)});
    ASSERT_EQ(sb->pop_ready_clusters().size(), 1u);
    EXPECT_THROW(sb->commit({{0, node(3)}}), CheckError);
    sb->commit({{0, node(2)}});
    EXPECT_EQ(sb->step_of(0), 1);
    EXPECT_EQ(sb->pos_of(0), node(2));
  }
  {
    // A two-member commit whose second member jumps.
    auto sb = fresh(1.0, {node(0), node(1)});
    const auto ready = sb->pop_ready_clusters();
    ASSERT_EQ(ready.size(), 1u);
    ASSERT_EQ(ready[0].members, (std::vector<AgentId>{0, 1}));
    EXPECT_THROW(sb->commit({{0, node(1)}, {1, node(3)}}), CheckError);
  }
}

TEST(ScoreboardIndex, MinStepIsMaintainedIncrementally) {
  // min_step() is O(1) now; cross-check it against a full scan at every
  // commit of a lag-heavy schedule (one straggler pinned at step 0).
  Rng rng(21);
  std::vector<Pos> initial;
  for (int i = 0; i < 16; ++i) {
    initial.push_back(Pos{rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)});
  }
  Scoreboard sb(DependencyParams{4.0, 1.0}, make_euclidean(), initial, 12);
  std::vector<AgentCluster> in_flight;
  while (!sb.all_done()) {
    for (auto& c : sb.pop_ready_clusters()) in_flight.push_back(std::move(c));
    ASSERT_FALSE(in_flight.empty());
    // Never commit a cluster containing agent 0 until nothing else can
    // move — maximal lag spread.
    std::size_t pick = in_flight.size();
    for (std::size_t k = 0; k < in_flight.size(); ++k) {
      const auto& members = in_flight[k].members;
      if (std::find(members.begin(), members.end(), 0) == members.end()) {
        pick = k;
        break;
      }
    }
    if (pick == in_flight.size()) pick = 0;  // only agent-0 work left
    AgentCluster cluster = std::move(in_flight[pick]);
    in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));
    std::vector<std::pair<AgentId, Pos>> moves;
    for (AgentId m : cluster.members) moves.emplace_back(m, sb.pos_of(m));
    sb.commit(moves);
    Step brute_min = sb.target_step();
    for (std::size_t i = 0; i < sb.agent_count(); ++i) {
      brute_min = std::min(brute_min, sb.step_of(static_cast<AgentId>(i)));
    }
    ASSERT_EQ(sb.min_step(), brute_min);
  }
  EXPECT_EQ(sb.min_step(), 12);
}

TEST(ScoreboardIndex, ThousandAgentRunHoldsInvariants) {
  // The scale the index exists for: 1000 agents, moderately dense, run to
  // completion in indexed mode with full O(n^2) invariant checks at
  // checkpoints (causality, edge symmetry, cluster bookkeeping, index
  // consistency).
  Rng rng(31);
  std::vector<Pos> initial;
  for (int i = 0; i < 1000; ++i) {
    initial.push_back(
        Pos{rng.uniform(0.0, 2000.0), rng.uniform(0.0, 150.0)});
  }
  Scoreboard sb(DependencyParams{4.0, 1.0}, make_euclidean(), initial, 5);
  std::vector<AgentCluster> in_flight;
  std::uint64_t commits = 0;
  while (!sb.all_done()) {
    for (auto& c : sb.pop_ready_clusters()) in_flight.push_back(std::move(c));
    ASSERT_FALSE(in_flight.empty()) << "scheduler stalled";
    const std::size_t pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(in_flight.size()) - 1));
    AgentCluster cluster = std::move(in_flight[pick]);
    in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));
    std::vector<std::pair<AgentId, Pos>> moves;
    for (AgentId m : cluster.members) {
      Pos pos = sb.pos_of(m);
      const double angle = rng.uniform(0.0, 2.0 * M_PI);
      const double dist = rng.uniform(0.0, 1.0);
      pos.x += std::cos(angle) * dist;
      pos.y += std::sin(angle) * dist;
      moves.emplace_back(m, pos);
    }
    sb.commit(moves);
    if (++commits % 997 == 0) sb.check_invariants();
  }
  sb.check_invariants();
  EXPECT_EQ(sb.min_step(), 5);
  EXPECT_EQ(sb.stats().commits, commits);
  // The paper's sparsity regime: far fewer blockers than agents.
  EXPECT_LT(sb.mean_blockers(), 5.0);
}

}  // namespace
}  // namespace aimetro::core
