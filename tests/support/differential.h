// Reusable randomized differential harness for the scoreboard scan modes.
//
// The guarantee under test: ScanMode::kIndexed must be observably
// indistinguishable from the brute-force full-scan reference — identical
// ready-cluster sequences, identical edges, identical statistics — for any
// metric, any workload shape, and any pop/commit schedule. The harness
// drives an indexed and a brute scoreboard through the exact same
// randomized executor loop and compares the complete observable state
// after every commit.
//
// A failing tuple prints a one-line repro string; re-running the sweep
// with that string in the AIMETRO_DIFF_REPRO environment variable runs
// ONLY the failing (shape, metric, seed) tuple, so a 100-case sweep
// shrinks to a single deterministic case under a debugger:
//
//   AIMETRO_DIFF_REPRO="metric=graph agents=24 spread=0 target=15
//       radius=2 vel=1 nodes=120 degree=4 rewire=0.1 seed=1007" (one
//       line) ./scoreboard_index_test --gtest_filter='*Sweep*'
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "core/metric.h"
#include "core/scoreboard.h"
#include "world/social_graph.h"

namespace aimetro::test_support {

/// One differential workload shape. Grid metrics scatter agents uniformly
/// in [0, spread]^2; the graph metric ignores `spread` and scatters them
/// over the nodes of a Newman-Watts small-world graph built from the
/// graph_* knobs (and the case seed, so every seed sees a fresh graph).
struct DiffShape {
  int n_agents = 16;
  double spread = 100.0;
  Step target = 15;
  core::DependencyParams params{4.0, 1.0};
  const char* metric = "euclidean";  // euclidean|manhattan|chebyshev|graph
  int graph_nodes = 0;
  int graph_degree = 4;
  double graph_rewire = 0.1;
  /// Region partition of the *indexed* board; the brute board always runs
  /// unsharded, so shards > 1 differentially tests the sharded strip
  /// structure (border registrations, per-strip cluster homes, lazy min)
  /// against the flat reference through the same executor schedule.
  int shards = 1;
};

/// A shape pinned to one seed: the unit of repro.
struct DiffCase {
  DiffShape shape;
  std::uint64_t seed = 0;
};

inline std::string repro_string(const DiffCase& c) {
  return strformat(
      "metric=%s agents=%d spread=%g target=%lld radius=%g vel=%g "
      "nodes=%d degree=%d rewire=%g shards=%d seed=%llu",
      c.shape.metric, c.shape.n_agents, c.shape.spread,
      static_cast<long long>(c.shape.target), c.shape.params.radius_p,
      c.shape.params.max_vel, c.shape.graph_nodes, c.shape.graph_degree,
      c.shape.graph_rewire, c.shape.shards,
      static_cast<unsigned long long>(c.seed));
}

/// Inverse of repro_string; nullopt on any unknown key or malformed value.
inline std::optional<DiffCase> parse_repro(const std::string& text) {
  static std::string metric_storage;  // keeps the const char* alive
  DiffCase c;
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    try {
      if (key == "metric") {
        metric_storage = value;
        c.shape.metric = metric_storage.c_str();
      } else if (key == "agents") {
        c.shape.n_agents = std::stoi(value);
      } else if (key == "spread") {
        c.shape.spread = std::stod(value);
      } else if (key == "target") {
        c.shape.target = std::stoll(value);
      } else if (key == "radius") {
        c.shape.params.radius_p = std::stod(value);
      } else if (key == "vel") {
        c.shape.params.max_vel = std::stod(value);
      } else if (key == "nodes") {
        c.shape.graph_nodes = std::stoi(value);
      } else if (key == "degree") {
        c.shape.graph_degree = std::stoi(value);
      } else if (key == "rewire") {
        c.shape.graph_rewire = std::stod(value);
      } else if (key == "shards") {
        c.shape.shards = std::stoi(value);
      } else if (key == "seed") {
        c.seed = std::stoull(value);
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  return c;
}

/// Every externally observable bit of both scoreboards must agree.
inline void expect_scoreboards_equal(const core::Scoreboard& a,
                                     const core::Scoreboard& b) {
  ASSERT_EQ(a.agent_count(), b.agent_count());
  for (std::size_t i = 0; i < a.agent_count(); ++i) {
    const auto id = static_cast<AgentId>(i);
    ASSERT_EQ(a.step_of(id), b.step_of(id)) << "agent " << id;
    ASSERT_EQ(a.pos_of(id), b.pos_of(id)) << "agent " << id;
    ASSERT_EQ(a.status_of(id), b.status_of(id)) << "agent " << id;
    ASSERT_EQ(a.blockers_of(id), b.blockers_of(id)) << "agent " << id;
    ASSERT_EQ(a.cluster_of(id), b.cluster_of(id)) << "agent " << id;
  }
  ASSERT_EQ(a.min_step(), b.min_step());
  ASSERT_EQ(a.mean_blockers(), b.mean_blockers());
  const core::ScoreboardStats& sa = a.stats();
  const core::ScoreboardStats& sb = b.stats();
  ASSERT_EQ(sa.clusters_dispatched, sb.clusters_dispatched);
  ASSERT_EQ(sa.commits, sb.commits);
  ASSERT_EQ(sa.edges_added, sb.edges_added);
  ASSERT_EQ(sa.edges_removed, sb.edges_removed);
  ASSERT_EQ(sa.max_concurrent_running, sb.max_concurrent_running);
  ASSERT_EQ(sa.sum_cluster_sizes, sb.sum_cluster_sizes);
}

/// Run one (shape, seed) tuple to completion, asserting equality after
/// every commit. Uses ASSERT_* throughout: the first divergence stops the
/// case (the caller checks HasFatalFailure() to stop the sweep).
inline void run_differential_case(const DiffCase& c) {
  const DiffShape& shape = c.shape;
  const bool graph = std::string(shape.metric) == "graph";
  Rng rng(c.seed);

  world::CsrGraph adjacency;
  std::shared_ptr<const core::Metric> metric;
  std::vector<Pos> initial;
  if (graph) {
    ASSERT_GE(shape.graph_nodes, 3) << "graph shapes need graph_nodes";
    adjacency = world::newman_watts_graph(shape.graph_nodes,
                                          shape.graph_degree,
                                          shape.graph_rewire, c.seed);
    metric = std::make_shared<core::GraphMetric>(adjacency);
    for (int i = 0; i < shape.n_agents; ++i) {
      initial.push_back(Pos{static_cast<double>(rng.uniform_int(
                                0, shape.graph_nodes - 1)),
                            0.0});
    }
  } else if (std::string(shape.metric) == "euclidean") {
    metric = std::make_shared<core::EuclideanMetric>();
  } else if (std::string(shape.metric) == "manhattan") {
    metric = std::make_shared<core::ManhattanMetric>();
  } else if (std::string(shape.metric) == "chebyshev") {
    metric = std::make_shared<core::ChebyshevMetric>();
  } else {
    FAIL() << "unknown metric " << shape.metric;
  }
  if (!graph) {
    for (int i = 0; i < shape.n_agents; ++i) {
      initial.push_back(Pos{rng.uniform(0.0, shape.spread),
                            rng.uniform(0.0, shape.spread)});
    }
  }

  core::Scoreboard indexed(shape.params, metric, initial, shape.target,
                           core::ScanMode::kIndexed, shape.shards);
  core::Scoreboard brute(shape.params, metric, initial, shape.target,
                         core::ScanMode::kBruteForce);
  if (graph) {
    // Graph metrics collapse the partition; the request must be harmless.
    EXPECT_EQ(indexed.shards(), 1);
  } else {
    EXPECT_EQ(indexed.shards(), shape.shards);
  }
  expect_scoreboards_equal(indexed, brute);

  // One executor loop drives both boards: the ready sequences are equal
  // (asserted), so shuffled commit picks and randomized moves hit both
  // identically. Out-of-order pressure comes from committing a random
  // in-flight cluster each round, which builds up real lag spreads.
  std::vector<core::AgentCluster> in_flight;
  std::uint64_t commits = 0;
  while (!indexed.all_done()) {
    auto ready_i = indexed.pop_ready_clusters();
    const auto ready_b = brute.pop_ready_clusters();
    ASSERT_EQ(ready_i.size(), ready_b.size());
    for (std::size_t k = 0; k < ready_i.size(); ++k) {
      ASSERT_EQ(ready_i[k].step, ready_b[k].step);
      ASSERT_EQ(ready_i[k].members, ready_b[k].members);
    }
    for (auto& cl : ready_i) in_flight.push_back(std::move(cl));
    ASSERT_FALSE(in_flight.empty()) << "scheduler stalled";
    const std::size_t pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(in_flight.size()) - 1));
    core::AgentCluster cluster = std::move(in_flight[pick]);
    in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));
    std::vector<std::pair<AgentId, Pos>> moves;
    for (AgentId m : cluster.members) {
      Pos pos = indexed.pos_of(m);
      if (graph) {
        // One hop along a random edge, or stay put: hop distance 1 or 0,
        // legal whenever max_vel >= 1.
        if (shape.params.max_vel >= 1.0 && rng.bernoulli(0.7)) {
          const auto nbrs = adjacency.neighbors(
              static_cast<std::int32_t>(std::llround(pos.x)));
          if (!nbrs.empty()) {
            pos.x = static_cast<double>(nbrs[static_cast<std::size_t>(
                rng.uniform_int(0,
                                static_cast<std::int64_t>(nbrs.size()) - 1))]);
          }
        }
      } else {
        const double angle = rng.uniform(0.0, 2.0 * M_PI);
        const double dist = rng.uniform(0.0, shape.params.max_vel);
        // Chebyshev displacement of a unit vector can exceed 1 only for
        // Euclidean; scale so every metric sees a legal move.
        const double scale =
            std::string(shape.metric) == "euclidean" ? 1.0 : 0.5;
        pos.x += std::cos(angle) * dist * scale;
        pos.y += std::sin(angle) * dist * scale;
      }
      moves.emplace_back(m, pos);
    }
    if (shape.shards > 1 && rng.bernoulli(0.5)) {
      // Exercise the floored-probe path interior commits use (plus the
      // boundary classifier, for crash coverage) with a floor drawn from
      // [0, min_step()]: any lower bound, such as a caller's own lagging
      // floor, may only widen probes, never change state.
      const auto floor =
          static_cast<Step>(rng.uniform_int(0, indexed.min_step()));
      (void)indexed.local_commit_shard(moves, floor);
      indexed.commit(moves, floor);
    } else {
      indexed.commit(moves);
    }
    brute.commit(moves);
    ++commits;
    expect_scoreboards_equal(indexed, brute);
    if (commits % 11 == 0) {
      indexed.check_invariants();
      brute.check_invariants();
    }
  }
  EXPECT_TRUE(brute.all_done());
  EXPECT_EQ(indexed.min_step(), shape.target);
  indexed.check_invariants();
  brute.check_invariants();
}

/// Sweep shapes x seeds. When AIMETRO_DIFF_REPRO is set, run only the
/// tuple it encodes (the shrink mode); otherwise derive `n_seeds` distinct
/// seeds per shape from `seed_base` and stop the sweep at the first
/// fatally failing tuple so one bug prints one repro line, not hundreds.
inline void run_differential_sweep(const std::vector<DiffShape>& shapes,
                                   int n_seeds,
                                   std::uint64_t seed_base = 1000) {
  if (const char* env = std::getenv("AIMETRO_DIFF_REPRO")) {
    const auto c = parse_repro(env);
    ASSERT_TRUE(c.has_value()) << "unparseable AIMETRO_DIFF_REPRO: " << env;
    SCOPED_TRACE("repro " + repro_string(*c));
    run_differential_case(*c);
    return;
  }
  for (std::size_t si = 0; si < shapes.size(); ++si) {
    for (int k = 0; k < n_seeds; ++k) {
      const DiffCase c{shapes[si],
                       seed_base + 100 * si + static_cast<std::uint64_t>(k)};
      SCOPED_TRACE("rerun just this tuple with AIMETRO_DIFF_REPRO=\"" +
                   repro_string(c) + "\"");
      run_differential_case(c);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace aimetro::test_support
