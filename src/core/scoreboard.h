// The spatiotemporal dependency scoreboard (§3.3) plus geo-clustering
// (§3.4): the data structure at the heart of AI Metropolis.
//
// Each agent is a node carrying (step, position, status). Directed edges
// record "B currently blocks A"; idle agents at the same step within the
// coupling radius are merged into clusters (the minimal synchronized
// units). The engine drives it with exactly two operations:
//
//   pop_ready_clusters()  — controller: take every cluster whose members
//                           are all unblocked, marking them running;
//   commit(moves)         — worker: a dispatched cluster finished its step;
//                           members advance one step to their new positions,
//                           relationships are re-examined, and any agents
//                           this unblocks become available to the next
//                           pop_ready_clusters().
//
// Progress guarantee: agents at the globally smallest step can only be
// blocked by running same-step agents, so some cluster is always
// dispatchable until every agent reaches `target_step`.
//
// Internally the scoreboard keeps every live (non-done) agent in a
// neighbor index, so blocker recomputation and idle clustering are local
// probes rather than full scans: Chebyshev-bounded metrics use a
// world::SpatialIndex (box probes), graph metrics use a world::GraphIndex
// (hop-bounded BFS ball probes over the metric's flat graph). A commit
// probes once per member: the blocker probe also collects the coupling
// candidates its clustering pass reads, and on a graph board the same
// walk serves the outgoing-edge refresh (a member that leaves its node
// adds a label-only walk for the speed check) — see "Dependency core" in
// docs/ARCHITECTURE.md for the index structures and the radius math. A
// brute-force full-scan reference path is retained for differential
// testing (ScanMode::kBruteForce).
//
// Sharding (the boundary-lag protocol, docs/ARCHITECTURE.md "Sharded
// world"): with `shards > 1` the world is cut into equal-width x-strips
// (world::RegionPartition, fixed at construction) and every
// per-position structure — spatial index, live-step counts, idle
// clusters, dirty lists, stats — lives in the strip that owns the
// position. Probes fan out over exactly the strips their box overlaps
// and re-sort by id, so every observable bit (edges, clusters, stats,
// dispatch order) is byte-identical to the single-shard board. Every agent records the strip span of its blocking-radius box,
// and clusters whose members span strips are counted per strip; both
// feed local_commit_shard(), which tells a caller (core::MetroController)
// whether a commit is provably confined to one strip — the precondition
// for taking a per-shard lock instead of the exclusive one. The
// scoreboard itself stays unsynchronized: callers serialize commits that
// local_commit_shard() maps to the same strip (or to no strip) exactly
// as they serialized whole-board commits before.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "core/dependency_rules.h"
#include "core/metric.h"
#include "world/graph_index.h"
#include "world/region_partition.h"
#include "world/spatial_index.h"

namespace aimetro::core {

/// A group of coupled agents at the same step, dispatched as one unit.
struct AgentCluster {
  Step step = 0;
  std::vector<AgentId> members;  // sorted
};

enum class AgentStatus : std::uint8_t { kIdle, kRunning, kDone };

/// How the scoreboard finds "relevant" agents when recomputing edges and
/// clusters.
///  - kIndexed: index probes bounded by the live lag spread (near-O(1)
///    per commit at the paper's sparsity). Metrics with the Chebyshev
///    lower bound probe spatial-index boxes; graph metrics (those
///    exposing a flat graph) probe hop-bounded GraphIndex balls. A metric
///    with neither property silently falls back to full scans — results
///    are identical in every case.
///  - kBruteForce: the historical O(n) full scan; the reference
///    implementation for differential tests and benchmarks.
enum class ScanMode : std::uint8_t { kIndexed, kBruteForce };

/// Hard cap on the region partition (and the encoding of shard ids into
/// the low bits of cluster ids).
inline constexpr std::int32_t kMaxShards = 64;

struct ScoreboardStats {
  std::uint64_t clusters_dispatched = 0;
  std::uint64_t commits = 0;
  std::uint64_t edges_added = 0;
  std::uint64_t edges_removed = 0;
  std::uint64_t max_concurrent_running = 0;
  double sum_cluster_sizes = 0.0;
  double mean_cluster_size() const {
    return clusters_dispatched
               ? sum_cluster_sizes / static_cast<double>(clusters_dispatched)
               : 0.0;
  }
};

class Scoreboard {
 public:
  /// Agents start idle at step 0 at `initial_positions`; the simulation
  /// finishes when every agent has committed `target_step` steps.
  /// `shards` in [1, kMaxShards] requests equal-width strips over the
  /// initial positions' x-range; it takes effect only on the
  /// spatial-index probe path (kIndexed with a Chebyshev-bounded metric)
  /// and silently collapses to 1 otherwise — observable behavior is
  /// identical either way. `partition` is kept only because
  /// metro_bench/metro_bench.cpp passes it: it must be kEqualWidth.
  Scoreboard(DependencyParams params, std::shared_ptr<const Metric> metric,
             std::vector<Pos> initial_positions, Step target_step,
             ScanMode mode = ScanMode::kIndexed, std::int32_t shards = 1,
             world::PartitionKind partition = world::PartitionKind::kEqualWidth);

  // ---- Controller side ----
  /// All clusters that are ready right now (every member idle and
  /// unblocked). Members are marked running; the caller must eventually
  /// commit() each returned cluster. Ordered by (step, first member).
  std::vector<AgentCluster> pop_ready_clusters();
  /// The same, restricted to clusters homed in strip `shard`. Safe to
  /// call concurrently with pops/commits in other strips only while no
  /// idle cluster spans the strip and another one, which
  /// local_commit_shard() verifies.
  std::vector<AgentCluster> pop_ready_clusters_in_shard(std::int32_t shard);

  // ---- Worker side ----
  /// Commit one dispatched cluster: each member's position after the step.
  /// Members advance to step+1 (or Done at target_step).
  ///
  /// `probe_floor` is a lower bound on min_step() used to bound the
  /// blocking-radius probes; -1 (the default) reads min_step() here. An
  /// interior commit passes the floor its classification sampled, so
  /// both bound their boxes identically; a looser floor only widens the
  /// probe boxes (the exact predicates filter the extras), so results
  /// are identical for any valid floor.
  void commit(const std::vector<std::pair<AgentId, Pos>>& moves,
              Step probe_floor = -1);

  /// Boundary-lag classification for a concurrent caller: the single
  /// strip this commit is provably confined to, or -1 if it must be
  /// treated as cross-shard. Confined means: every member's old/new
  /// influence box (blocking_radius(target - probe_floor) plus the
  /// coupling radius) lies inside one strip s, every member's border
  /// registration is single-strip on s, and strip s currently has no
  /// cross-strip clusters. Only reads state owned by the committing
  /// cluster plus one atomic counter, so it is safe to call while other
  /// strips commit.
  std::int32_t local_commit_shard(
      const std::vector<std::pair<AgentId, Pos>>& moves,
      Step probe_floor) const;

  // ---- Introspection ----
  std::size_t agent_count() const { return agents_.size(); }
  Step target_step() const { return target_step_; }
  ScanMode scan_mode() const { return mode_; }
  /// Effective shard count (1 unless the spatial-index path is active).
  std::int32_t shards() const { return shards_; }
  /// Home strip of a position under the region partition.
  std::int32_t shard_of_pos(Pos pos) const { return partition_.shard_of(pos); }
  /// True when kIndexed probes are answered by the hop-bounded graph
  /// index (non-Chebyshev metric exposing a graph adjacency) rather than
  /// the spatial box index. False in brute mode either way.
  bool use_graph_index() const { return graph_live_index_ != nullptr; }
  bool all_done() const {
    return done_count_.load(std::memory_order_acquire) == agents_.size();
  }
  Step step_of(AgentId id) const { return agent(id).step; }
  Pos pos_of(AgentId id) const { return agent(id).pos; }
  AgentStatus status_of(AgentId id) const { return agent(id).status; }
  bool is_blocked(AgentId id) const { return !agent(id).blocked_by.empty(); }
  /// Current blockers of `id`, sorted.
  std::vector<AgentId> blockers_of(AgentId id) const;
  /// Members of the idle cluster containing `id` (empty if not idle).
  std::vector<AgentId> cluster_of(AgentId id) const;
  /// Smallest step any agent is still about to execute (target_step once
  /// everyone is done): the minimum of the strips' published minima,
  /// O(shards) and lock-free. While the board is held shared only
  /// interior commits run, and each only raises its own strip's minimum,
  /// so a value read then stays a lower bound until the next cross
  /// commit (core::MetroController samples it as the probe floor).
  Step min_step() const;
  /// Stats rolled up across strips (sums, except max_concurrent_running
  /// which is a max of per-dispatch snapshots of the global counter).
  ScoreboardStats stats() const;
  /// Per-strip stats (commits/edges attributed to the strip that owns
  /// the touched position).
  const ScoreboardStats& shard_stats(std::int32_t shard) const;

  /// Mean number of blockers per blocked-check, a sparsity measure
  /// comparable to the paper's "each agent depends on only 1.85 agents".
  double mean_blockers() const;

  /// Throws CheckError if the Appendix A validity condition is violated
  /// for any agent pair, if internal edge/cluster bookkeeping is
  /// inconsistent, or if the spatial index / live-step / border
  /// registration bookkeeping has drifted from the agent table. O(n^2); meant for
  /// tests.
  void check_invariants() const;

  /// Graphviz dot rendering of the current graph (Figure 3 style).
  std::string to_dot() const;

 private:
  struct AgentNode {
    Step step = 0;
    Pos pos;
    AgentStatus status = AgentStatus::kIdle;
    // Edge lists, sorted by id and duplicate-free (kept with lower_bound,
    // so they iterate in ascending id order). B in blocked_by => B blocks
    // this agent; `blocks` holds the reverse edges. Vectors keep their
    // capacity across commits, so steady-state edge churn allocates
    // nothing.
    std::vector<AgentId> blocked_by;
    std::vector<AgentId> blocks;
    std::int64_t cluster = -1;     // idle cluster id, -1 when not idle
    // Border registration: the strip span of the blocking-radius box at
    // the last position/step change.
    std::int32_t border_lo = 0;
    std::int32_t border_hi = 0;
  };

  /// A coupling candidate of a committed agent: an agent within the
  /// coupling radius of its new position, with that distance.
  struct Coupling {
    AgentId id = 0;
    double dist = 0.0;
  };

  /// One slot of a strip's cluster slab. A free slot (live == false)
  /// sits on the strip's free list; one freed by a merge keeps its member
  /// vector's capacity for the next cluster that takes it (a dispatch
  /// moves the members out).
  struct ClusterRec {
    Step step = 0;
    std::vector<AgentId> members;  // sorted
    std::int32_t blocked_members = 0;  // members with nonempty blocked_by
    // Strip span of member positions; multi-strip spans are counted in
    // cross_clusters for every strip in the span.
    std::int32_t span_lo = 0;
    std::int32_t span_hi = 0;
    bool live = false;
    /// Touched since the last pop of its strip, and on the strip's dirty
    /// list (a candidate for readiness).
    bool dirty = false;
  };

  /// Everything owned by one strip of the region partition. With
  /// shards() == 1 there is exactly one of these and the board behaves
  /// exactly like the historical unsharded implementation.
  ///
  /// The commit path keeps capacity rather than allocating: edge lists,
  /// cluster slots, the dirty list and the scratch buffers below all
  /// survive from one commit to the next (docs/ARCHITECTURE.md,
  /// "Commit-path memory").
  struct ShardData {
    ShardData(double cell_size, Step target_step)
        : live_index(cell_size), live_min(target_step) {}
    /// Live (non-done) agents homed in this strip, keyed by position —
    /// the probe structure for recompute_blockers / cluster_in.
    /// Maintained only when use_index().
    world::SpatialIndex live_index;
    /// Live agents homed here per step (index = step; at most
    /// target_step entries, grown on demand) and the smallest step with
    /// a nonzero count (target_step when none) — this strip's min.
    /// Maintained in every mode. live_min is published: only this
    /// strip's commits (and cross commits) store it, and min_step()
    /// reads it from any strip without a lock.
    std::vector<std::int32_t> live_steps;
    std::atomic<Step> live_min;
    /// The cluster slab: cid >> 6 indexes it (the low 6 bits name the
    /// strip). Freed slots go on free_slots and are reused first.
    std::vector<ClusterRec> clusters;
    std::vector<std::int32_t> free_slots;
    /// Slots of clusters touched since the last pop, in no particular
    /// order. A slot freed (or already handled) since it was listed is
    /// skipped: only records still flagged dirty are examined.
    std::vector<std::int32_t> dirty_slots;
    /// Idle agents bucketed by step: the coupling candidates of the
    /// full-scan path, maintained only there (see full_scan()).
    std::map<Step, std::set<AgentId>> idle_by_step;
    /// Idle clusters spanning this strip plus at least one other. A
    /// relaxed atomic: readers (local_commit_shard) are ordered against
    /// writers by the caller's locking protocol, not by this counter.
    std::atomic<std::int32_t> cross_clusters{0};
    /// Reusable buffers so steady-state commits allocate nothing: probe
    /// candidates, a copy of the edge list being rewritten, and the
    /// neighbor clusters an idle agent merges. A commit uses the buffers
    /// of the strip its agents live in: an interior commit touches only
    /// its own strip, and a cross commit holds the whole board.
    std::vector<AgentId> probe_buf;
    std::vector<AgentId> edge_buf;
    std::vector<std::int64_t> merge_buf;
    /// The coupling candidates one commit's blocker probes collected for
    /// its phase-3 cluster_in calls: member k's run is
    /// couple_buf[couple_begin[k] .. couple_begin[k + 1]). A commit uses
    /// the buffers of the strip its first member was homed in (the one
    /// whose commit counter it bumps), so concurrent interior commits in
    /// other strips never share them.
    std::vector<Coupling> couple_buf;
    std::vector<std::size_t> couple_begin;
    ScoreboardStats stats;
    // mean_blockers bookkeeping
    std::uint64_t blocker_samples = 0;
    std::uint64_t blocker_total = 0;
  };

  AgentNode& agent(AgentId id);
  const AgentNode& agent(AgentId id) const;
  ShardData& shard(std::int32_t s) { return *shards_data_[
      static_cast<std::size_t>(s)]; }
  const ShardData& shard(std::int32_t s) const { return *shards_data_[
      static_cast<std::size_t>(s)]; }
  /// Strip that owns `cid`'s record (encoded in the low bits).
  static std::int32_t shard_of_cluster(std::int64_t cid) {
    return static_cast<std::int32_t>(cid & (kMaxShards - 1));
  }
  /// The live record of cluster `cid`.
  ClusterRec& cluster_rec(std::int64_t cid);
  const ClusterRec& cluster_rec(std::int64_t cid) const;
  /// The strip whose scratch buffers a step of `id`'s commit uses.
  ShardData& scratch_of(AgentId id) {
    return shard(partition_.shard_of(agent(id).pos));
  }

  bool use_index() const { return mode_ == ScanMode::kIndexed && indexable_; }
  /// Neither index applies: candidates come from full scans (and the
  /// idle_by_step buckets), on one strip.
  bool full_scan() const { return !use_index() && !use_graph_index(); }
  /// Every live agent whose metric distance from `center` could be <=
  /// radius (sorted by id; exact predicates applied by the caller).
  /// Fans out over the strips the box overlaps. Requires use_index() or
  /// use_graph_index().
  const std::vector<AgentId>& probe_into(const Pos& center, double radius);
  /// metric_->distance(center, p). On a graph-index board it is read from
  /// the last ball walked around `center` instead (probe_into or
  /// walk_edge_ball): exact inside the ball, +inf beyond it, so it tests
  /// the same as the metric against any threshold no larger than the
  /// probe radius.
  double probe_distance(const Pos& center, const Pos& p) const;
  /// Count one more (fewer) live agent at `step` in `sd`, moving the
  /// strip's min cursor down (up past emptied steps).
  void live_step_add(ShardData& sd, Step step);
  void live_step_remove(ShardData& sd, Step step);
  /// Recompute `id`'s border registration from its current position and
  /// step, bounding the blocking radius with `floor` (no-op with one
  /// shard).
  void update_border_registration(AgentId id, Step floor);

  void add_edge(AgentId blocker, AgentId blocked);
  void remove_edge(AgentId blocker, AgentId blocked);
  /// Graph boards only: walk the one ball around committed agent `id`
  /// that both refresh_outgoing (its laggiest watcher's blocking radius)
  /// and recompute_blockers (blocking_radius(step - floor)) read, into
  /// shard(0).probe_buf and the index's hop distances. Walks nothing when
  /// `id` is done and blocks nobody.
  void walk_edge_ball(AgentId id, Step floor);
  /// Recompute blocked_by for `id` from scratch: a blocking_radius(max
  /// live lag) box probe in indexed mode (lag bounded below by `floor`),
  /// the walk_edge_ball candidates on a graph board, a full scan
  /// otherwise. Appends every candidate within the coupling radius, with
  /// its distance, to `coupling` when it is non-null.
  void recompute_blockers(AgentId id, Step floor,
                          std::vector<Coupling>* coupling);
  /// Re-check the agents `id` currently blocks; drop stale edges. A graph
  /// board reads the distances from walk_edge_ball's walk.
  void refresh_outgoing(AgentId id);
  void on_blocked_count_change(AgentId id, bool now_blocked);
  /// Place a newly idle agent into the idle clustering (may merge several
  /// existing clusters). Indexed boards take their candidates from
  /// `coupling`, which recompute_blockers collected for `id` in the same
  /// commit; full scans read idle_by_step instead.
  void cluster_in(AgentId id, std::span<const Coupling> coupling);
  /// Take a slot in `strip`'s slab for an empty cluster at `step`.
  std::int64_t new_cluster(Step step, std::int32_t strip);
  /// Return `cid`'s slot to its strip's free list.
  void free_cluster(std::int64_t cid);
  /// Put `cid` on its strip's dirty list unless it is already there.
  void mark_dirty(std::int64_t cid);
  /// Member strip-span bookkeeping (keeps the cross_clusters counters
  /// in sync; no-ops with one shard).
  void span_counters_remove(const ClusterRec& rec);
  void span_counters_add(const ClusterRec& rec);
  void cluster_span_include(std::int64_t cid, std::int32_t strip);
  void pop_shard_ready_into(std::int32_t strip,
                            std::vector<AgentCluster>* ready);

  DependencyParams params_;
  std::shared_ptr<const Metric> metric_;
  Step target_step_;
  ScanMode mode_;
  bool indexable_ = false;  // metric admits box-superset probes
  std::int32_t shards_ = 1;
  world::RegionPartition partition_{1, 0.0, 0.0};
  std::vector<AgentNode> agents_;
  std::vector<std::unique_ptr<ShardData>> shards_data_;
  /// The graph-metric sibling of the spatial indexes: live agents
  /// bucketed by graph node, probed with hop-bounded BFS balls. Non-null
  /// exactly when mode is kIndexed and the metric exposes an adjacency
  /// (which forces shards() == 1).
  std::unique_ptr<world::GraphIndex> graph_live_index_;
  /// Merge buffers for probes that straddle strips. Only touched by
  /// cross-shard probes, which callers serialize exclusively.
  std::vector<AgentId> multi_probe_buf_;
  std::vector<AgentId> strip_tmp_buf_;
  std::atomic<std::size_t> done_count_{0};
  std::atomic<std::size_t> running_count_{0};
};

}  // namespace aimetro::core
