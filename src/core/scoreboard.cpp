#include "core/scoreboard.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <sstream>
#include <utility>

#include "common/check.h"

namespace aimetro::core {

namespace {

/// Cell size for the live-agent index: coupling-radius cells keep the
/// common probes (coupling, small-lag blocking) within a 3x3 cell box
/// while staying coarse enough that buckets aren't degenerate.
double index_cell_size(const DependencyParams& params) {
  return std::max(1.0, params.coupling_radius());
}

/// Slab index of a cluster id (the low 6 bits name the strip).
std::size_t slot_of(std::int64_t cid) {
  return static_cast<std::size_t>(cid >> 6);
}

/// Sorted-vector set operations for the edge lists. Each returns whether
/// the vector changed, like std::set's insert().second / erase().
bool sorted_insert(std::vector<AgentId>& v, AgentId id) {
  const auto it = std::lower_bound(v.begin(), v.end(), id);
  if (it != v.end() && *it == id) return false;
  v.insert(it, id);
  return true;
}

bool sorted_erase(std::vector<AgentId>& v, AgentId id) {
  const auto it = std::lower_bound(v.begin(), v.end(), id);
  if (it == v.end() || *it != id) return false;
  v.erase(it);
  return true;
}

bool sorted_contains(const std::vector<AgentId>& v, AgentId id) {
  return std::binary_search(v.begin(), v.end(), id);
}

}  // namespace

Scoreboard::Scoreboard(DependencyParams params,
                       std::shared_ptr<const Metric> metric,
                       std::vector<Pos> initial_positions, Step target_step,
                       ScanMode mode, std::int32_t shards,
                       world::PartitionKind partition)
    : params_(params),
      metric_(std::move(metric)),
      target_step_(target_step),
      mode_(mode) {
  AIM_CHECK(metric_ != nullptr);
  AIM_CHECK(target_step_ >= 0);
  AIM_CHECK(!initial_positions.empty());
  AIM_CHECK_MSG(shards >= 1 && shards <= kMaxShards,
                "shards must be in [1, " << kMaxShards << "], got " << shards);
  AIM_CHECK_MSG(partition == world::PartitionKind::kEqualWidth,
                "strips are equal-width; population cuts were removed");
  indexable_ = metric_->lower_bounded_by_chebyshev();
  if (mode_ == ScanMode::kIndexed && !indexable_) {
    // Graph metrics can't be probed with Chebyshev boxes, but they expose
    // their flat graph: live agents go into a GraphIndex over it instead,
    // and every probe site walks a hop-bounded ball (an exact metric ball
    // — hop distances are integral). A metric with neither property runs
    // the full-scan path even in indexed mode.
    if (const world::CsrGraph* graph = metric_->graph_adjacency()) {
      graph_live_index_ = std::make_unique<world::GraphIndex>(graph);
    }
  }
  // The region partition only pays off where probes are strip-local box
  // queries; the brute-force scan, graph-ball, and full-scan fallback
  // paths collapse to one strip (behavior is identical either way).
  shards_ = use_index() ? shards : 1;
  double x_min = initial_positions.front().x;
  double x_max = x_min;
  for (const Pos& p : initial_positions) {
    x_min = std::min(x_min, p.x);
    x_max = std::max(x_max, p.x);
  }
  partition_ = world::RegionPartition(shards_, x_min, x_max);
  shards_data_.reserve(static_cast<std::size_t>(shards_));
  for (std::int32_t s = 0; s < shards_; ++s) {
    shards_data_.push_back(
        std::make_unique<ShardData>(index_cell_size(params), target_step_));
  }

  agents_.resize(initial_positions.size());
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    agents_[i].pos = initial_positions[i];
    if (target_step_ == 0) {
      agents_[i].status = AgentStatus::kDone;
      done_count_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (target_step_ == 0) return;
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    live_step_add(shard(partition_.shard_of(agents_[i].pos)), 0);
  }
  if (use_index() || use_graph_index()) {
    if (use_index()) {
      std::vector<std::vector<std::pair<AgentId, Pos>>> per_strip(
          static_cast<std::size_t>(shards_));
      for (std::size_t i = 0; i < agents_.size(); ++i) {
        per_strip[static_cast<std::size_t>(
                      partition_.shard_of(agents_[i].pos))]
            .emplace_back(static_cast<AgentId>(i), agents_[i].pos);
      }
      for (std::int32_t s = 0; s < shards_; ++s) {
        shard(s).live_index.bulk_insert(per_strip[static_cast<std::size_t>(s)]);
      }
    } else {
      std::vector<std::pair<AgentId, Pos>> items;
      items.reserve(agents_.size());
      for (std::size_t i = 0; i < agents_.size(); ++i) {
        items.emplace_back(static_cast<AgentId>(i), agents_[i].pos);
      }
      graph_live_index_->bulk_insert(items);
    }
  }
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    update_border_registration(static_cast<AgentId>(i), 0);
  }
  // Initial edges and clustering: everyone idle at step 0, so there are no
  // blockers (no lower step, nobody running); only coupling applies. The
  // flood-fill expands each component through coupling-radius box probes
  // (indexed) or full scans (brute) — the components, and therefore the
  // cluster ids assigned in ascending-smallest-member order, are identical
  // either way.
  if (full_scan()) {
    for (std::size_t i = 0; i < agents_.size(); ++i) {
      shard(0).idle_by_step[0].insert(static_cast<AgentId>(i));
    }
  }
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    if (agents_[i].cluster >= 0) continue;
    const std::int32_t strip = partition_.shard_of(agents_[i].pos);
    const std::int64_t cid = new_cluster(0, strip);
    ClusterRec& rec = cluster_rec(cid);
    std::vector<AgentId> frontier{static_cast<AgentId>(i)};
    agents_[i].cluster = cid;
    while (!frontier.empty()) {
      const AgentId u = frontier.back();
      frontier.pop_back();
      rec.members.push_back(u);
      cluster_span_include(cid, partition_.shard_of(agent(u).pos));
      auto consider = [&](AgentId v) {
        AgentNode& node = agent(v);
        if (node.cluster >= 0) return;
        if (coupled(probe_distance(agent(u).pos, node.pos), 0, 0, params_)) {
          node.cluster = cid;
          frontier.push_back(v);
        }
      };
      if (use_index() || use_graph_index()) {
        for (AgentId v : probe_into(agent(u).pos, params_.coupling_radius())) {
          consider(v);
        }
      } else {
        for (std::size_t j = 0; j < agents_.size(); ++j) {
          consider(static_cast<AgentId>(j));
        }
      }
    }
    std::sort(rec.members.begin(), rec.members.end());
    mark_dirty(cid);
  }
}

Scoreboard::AgentNode& Scoreboard::agent(AgentId id) {
  AIM_CHECK(id >= 0 && static_cast<std::size_t>(id) < agents_.size());
  return agents_[static_cast<std::size_t>(id)];
}

const Scoreboard::AgentNode& Scoreboard::agent(AgentId id) const {
  AIM_CHECK(id >= 0 && static_cast<std::size_t>(id) < agents_.size());
  return agents_[static_cast<std::size_t>(id)];
}

Scoreboard::ClusterRec& Scoreboard::cluster_rec(std::int64_t cid) {
  return const_cast<ClusterRec&>(std::as_const(*this).cluster_rec(cid));
}

const Scoreboard::ClusterRec& Scoreboard::cluster_rec(std::int64_t cid) const {
  AIM_CHECK(cid >= 0);
  const auto& slab = shard(shard_of_cluster(cid)).clusters;
  AIM_CHECK(slot_of(cid) < slab.size());
  const ClusterRec& rec = slab[slot_of(cid)];
  AIM_CHECK_MSG(rec.live, "cluster " << cid << " is not live");
  return rec;
}

const std::vector<AgentId>& Scoreboard::probe_into(const Pos& center,
                                                   double radius) {
  if (!use_index()) {
    graph_live_index_->query_ball_into(center, radius, &shard(0).probe_buf);
    return shard(0).probe_buf;
  }
  const auto span = partition_.span_of_box(center, radius);
  if (span.single()) {
    ShardData& sd = shard(span.lo);
    sd.live_index.query_box_into(center, radius, &sd.probe_buf);
    return sd.probe_buf;
  }
  // Fan out over every overlapped strip and restore global id order. Each
  // strip returns an id-sorted, disjoint slice (an agent is indexed only
  // in its home strip), so the merged result equals what one global index
  // would return. Callers of multi-strip probes hold the board
  // exclusively, so the shared merge buffers are safe.
  multi_probe_buf_.clear();
  for (std::int32_t s = span.lo; s <= span.hi; ++s) {
    shard(s).live_index.query_box_into(center, radius, &strip_tmp_buf_);
    multi_probe_buf_.insert(multi_probe_buf_.end(), strip_tmp_buf_.begin(),
                            strip_tmp_buf_.end());
  }
  std::sort(multi_probe_buf_.begin(), multi_probe_buf_.end());
  return multi_probe_buf_;
}

double Scoreboard::probe_distance(const Pos& center, const Pos& p) const {
  return use_graph_index() ? graph_live_index_->hop_distance(p)
                           : metric_->distance(center, p);
}

Step Scoreboard::min_step() const {
  Step best = target_step_;
  for (std::int32_t s = 0; s < shards_; ++s) {
    best = std::min(best, shard(s).live_min.load(std::memory_order_acquire));
  }
  return best;
}

void Scoreboard::live_step_add(ShardData& sd, Step step) {
  AIM_CHECK(step >= 0 && step < target_step_);
  const auto k = static_cast<std::size_t>(step);
  // Grown on demand, so the array is as long as the furthest step the
  // strip has held rather than the whole horizon up front.
  if (k >= sd.live_steps.size()) sd.live_steps.resize(k + 1, 0);
  ++sd.live_steps[k];
  if (step < sd.live_min.load(std::memory_order_acquire)) {
    sd.live_min.store(step, std::memory_order_release);
  }
}

void Scoreboard::live_step_remove(ShardData& sd, Step step) {
  AIM_CHECK(step >= 0 &&
            static_cast<std::size_t>(step) < sd.live_steps.size());
  std::int32_t& count = sd.live_steps[static_cast<std::size_t>(step)];
  AIM_CHECK(count > 0);
  if (--count != 0 || step != sd.live_min.load(std::memory_order_acquire)) {
    return;
  }
  // The cursor scans up only past steps this strip has emptied
  // (live_step_add moves it down only to an occupied step). Past the end
  // of the array the strip holds no live agent. The scan runs on a local
  // copy, so a concurrent min_step() sees only the final value.
  const auto end = static_cast<Step>(sd.live_steps.size());
  Step min = step;
  while (min < end && sd.live_steps[static_cast<std::size_t>(min)] == 0) {
    ++min;
  }
  sd.live_min.store(min == end ? target_step_ : min,
                    std::memory_order_release);
}

void Scoreboard::update_border_registration(AgentId id, Step floor) {
  if (shards_ == 1) return;
  AgentNode& node = agent(id);
  if (node.status == AgentStatus::kDone) {
    node.border_lo = node.border_hi = partition_.shard_of(node.pos);
    return;
  }
  const Step lead = node.step - floor;
  AIM_CHECK(lead >= 0);
  const auto span =
      partition_.span_of_box(node.pos, params_.blocking_radius(lead));
  node.border_lo = span.lo;
  node.border_hi = span.hi;
}

std::int64_t Scoreboard::new_cluster(Step step, std::int32_t strip) {
  ShardData& sd = shard(strip);
  std::size_t slot;
  if (sd.free_slots.empty()) {
    slot = sd.clusters.size();
    sd.clusters.emplace_back();
  } else {
    slot = static_cast<std::size_t>(sd.free_slots.back());
    sd.free_slots.pop_back();
  }
  ClusterRec& rec = sd.clusters[slot];
  rec.step = step;
  rec.members.clear();
  rec.blocked_members = 0;
  rec.span_lo = rec.span_hi = strip;
  rec.live = true;
  rec.dirty = false;
  return (static_cast<std::int64_t>(slot) << 6) |
         static_cast<std::int64_t>(strip);
}

void Scoreboard::free_cluster(std::int64_t cid) {
  ClusterRec& rec = cluster_rec(cid);
  rec.live = false;
  // A stale dirty-list entry for the slot is skipped by the next pop.
  rec.dirty = false;
  shard(shard_of_cluster(cid))
      .free_slots.push_back(static_cast<std::int32_t>(slot_of(cid)));
}

void Scoreboard::mark_dirty(std::int64_t cid) {
  ClusterRec& rec = cluster_rec(cid);
  if (rec.dirty) return;
  rec.dirty = true;
  shard(shard_of_cluster(cid))
      .dirty_slots.push_back(static_cast<std::int32_t>(slot_of(cid)));
}

void Scoreboard::span_counters_remove(const ClusterRec& rec) {
  if (rec.span_lo == rec.span_hi) return;
  for (std::int32_t t = rec.span_lo; t <= rec.span_hi; ++t) {
    shard(t).cross_clusters.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Scoreboard::span_counters_add(const ClusterRec& rec) {
  if (rec.span_lo == rec.span_hi) return;
  for (std::int32_t t = rec.span_lo; t <= rec.span_hi; ++t) {
    shard(t).cross_clusters.fetch_add(1, std::memory_order_relaxed);
  }
}

void Scoreboard::cluster_span_include(std::int64_t cid, std::int32_t strip) {
  if (shards_ == 1) return;
  ClusterRec& rec = cluster_rec(cid);
  if (strip >= rec.span_lo && strip <= rec.span_hi) return;
  span_counters_remove(rec);
  rec.span_lo = std::min(rec.span_lo, strip);
  rec.span_hi = std::max(rec.span_hi, strip);
  span_counters_add(rec);
}

void Scoreboard::on_blocked_count_change(AgentId id, bool now_blocked) {
  AgentNode& node = agent(id);
  if (node.cluster < 0) return;
  ClusterRec& rec = cluster_rec(node.cluster);
  rec.blocked_members += now_blocked ? 1 : -1;
  AIM_CHECK(rec.blocked_members >= 0);
  mark_dirty(node.cluster);
}

void Scoreboard::add_edge(AgentId blocker, AgentId blocked) {
  AgentNode& a = agent(blocked);
  const bool was_blocked = !a.blocked_by.empty();
  if (!sorted_insert(a.blocked_by, blocker)) return;
  sorted_insert(agent(blocker).blocks, blocked);
  ++shard(partition_.shard_of(a.pos)).stats.edges_added;
  if (!was_blocked) on_blocked_count_change(blocked, true);
}

void Scoreboard::remove_edge(AgentId blocker, AgentId blocked) {
  AgentNode& a = agent(blocked);
  if (!sorted_erase(a.blocked_by, blocker)) return;
  sorted_erase(agent(blocker).blocks, blocked);
  ++shard(partition_.shard_of(a.pos)).stats.edges_removed;
  if (a.blocked_by.empty()) on_blocked_count_change(blocked, false);
}

void Scoreboard::walk_edge_ball(AgentId id, Step floor) {
  const AgentNode& node = agent(id);
  // Both radii grow with lag, so the larger lag names the deeper ball.
  Step lag = -1;
  for (AgentId w : node.blocks) {
    lag = std::max({lag, Step{0}, agent(w).step - node.step});
  }
  if (node.status != AgentStatus::kDone) {
    AIM_CHECK(node.step >= floor);
    lag = std::max(lag, node.step - floor);
  }
  if (lag < 0) return;
  graph_live_index_->query_ball_into(node.pos, params_.blocking_radius(lag),
                                     &shard(0).probe_buf);
}

void Scoreboard::recompute_blockers(AgentId id, Step floor,
                                    std::vector<Coupling>* coupling) {
  AgentNode& node = agent(id);
  // Drop all existing incoming edges, then rebuild. Indexed mode probes
  // the largest radius any live agent could block from: blocking_radius(
  // own step - min live step). Any blocker B at lag L satisfies dist <=
  // blocking_radius(L) <= blocking_radius(max lag), and every such metric
  // ball is inside the probe — a Chebyshev box for metrics with the
  // Chebyshev lower bound, a hop-bounded BFS ball for graph metrics (the
  // one walk_edge_ball took, at least this deep) — so the probe is a
  // superset of the brute-force candidate set; a graph walk also hands
  // back each candidate's hop distance (probe_distance). Candidates
  // arrive sorted by id — the same order the full scan visits them — so
  // edge bookkeeping is byte-identical (see docs/ARCHITECTURE.md,
  // "Dependency core"). Commits carrying a probe_floor use that lower
  // bound instead of the exact minimum; the box only widens, and the
  // exact blocks() predicate filters the extras.
  std::vector<AgentId>& previous = scratch_of(id).edge_buf;
  previous.assign(node.blocked_by.begin(), node.blocked_by.end());
  for (AgentId b : previous) remove_edge(b, id);

  if (node.status == AgentStatus::kDone) return;
  std::uint64_t found = 0;
  auto consider = [&](AgentId b) {
    if (b == id) return;
    const AgentNode& other = agent(b);
    if (other.status == AgentStatus::kDone) return;
    const double dist = probe_distance(node.pos, other.pos);
    if (blocks(dist, node.step, other.step,
               other.status == AgentStatus::kRunning, params_)) {
      add_edge(b, id);
      ++found;
    }
    if (coupling != nullptr && dist <= params_.coupling_radius()) {
      coupling->push_back({b, dist});
    }
  };
  if (use_graph_index()) {
    for (AgentId b : shard(0).probe_buf) consider(b);
  } else if (use_index()) {
    const Step max_lag = node.step - floor;
    AIM_CHECK(max_lag >= 0);
    for (AgentId b : probe_into(node.pos, params_.blocking_radius(max_lag))) {
      consider(b);
    }
  } else {
    for (std::size_t j = 0; j < agents_.size(); ++j) {
      consider(static_cast<AgentId>(j));
    }
  }
  ShardData& sd = shard(partition_.shard_of(node.pos));
  ++sd.blocker_samples;
  sd.blocker_total += found;
}

void Scoreboard::refresh_outgoing(AgentId id) {
  AgentNode& node = agent(id);
  if (node.blocks.empty()) return;
  std::vector<AgentId>& watchers = scratch_of(id).edge_buf;
  watchers.assign(node.blocks.begin(), node.blocks.end());
  for (AgentId w : watchers) {
    const AgentNode& watcher = agent(w);
    // A graph board reads walk_edge_ball's walk around the committed agent
    // (hops are symmetric: CsrGraph rejects one-way edges). It is at least
    // as deep as the laggiest watcher's blocking radius, so a watcher
    // outside it is beyond its own radius, where the walk's +inf fails
    // blocks() exactly as its true distance does.
    const double dist = use_graph_index()
                            ? graph_live_index_->hop_distance(watcher.pos)
                            : metric_->distance(watcher.pos, node.pos);
    if (!blocks(dist, watcher.step, node.step,
                node.status == AgentStatus::kRunning, params_)) {
      remove_edge(id, w);
    }
  }
}

void Scoreboard::cluster_in(AgentId id, std::span<const Coupling> coupling) {
  AgentNode& node = agent(id);
  AIM_CHECK(node.status == AgentStatus::kIdle && node.cluster < 0);
  const std::int32_t home = partition_.shard_of(node.pos);
  if (full_scan()) shard(0).idle_by_step[node.step].insert(id);

  // Find idle same-step agents within the coupling radius; `id` may bridge
  // several existing clusters into one. Indexed mode reads the coupling
  // candidates its blocker probe collected and filters them to idle
  // same-step agents — the same candidates the brute path reads out of
  // idle_by_step.
  std::vector<std::int64_t>& neighbors_clusters = shard(home).merge_buf;
  neighbors_clusters.clear();
  // Mid-commit, sibling members can already be idle but not yet clustered
  // (their own cluster_in hasn't run; they are not in idle_by_step yet).
  // Skip them — they will see us when they cluster in — so both scan
  // modes read the same candidate set.
  auto joinable = [&](AgentId other) {
    const AgentNode& o = agent(other);
    return other != id && o.status == AgentStatus::kIdle && o.cluster >= 0;
  };
  auto join = [&](AgentId other, double dist) {
    const AgentNode& o = agent(other);
    if (coupled(dist, node.step, o.step, params_)) {
      neighbors_clusters.push_back(o.cluster);
    }
  };
  if (full_scan()) {
    for (AgentId other : shard(0).idle_by_step.at(node.step)) {
      if (joinable(other)) {
        join(other, metric_->distance(node.pos, agent(other).pos));
      }
    }
  } else {
    for (const auto& [other, dist] : coupling) {
      if (joinable(other)) join(other, dist);
    }
  }

  std::sort(neighbors_clusters.begin(), neighbors_clusters.end());
  neighbors_clusters.erase(
      std::unique(neighbors_clusters.begin(), neighbors_clusters.end()),
      neighbors_clusters.end());
  std::int64_t target;
  if (neighbors_clusters.empty()) {
    target = new_cluster(node.step, home);
  } else {
    // Merge everything into the first (smallest-id) cluster. The merge
    // survivor's identity is unobservable — cluster_of() reports members
    // — so the encoded ids changing the relative order across strips
    // cannot change observable behavior.
    target = neighbors_clusters.front();
    ClusterRec& target_rec = cluster_rec(target);
    for (std::size_t k = 1; k < neighbors_clusters.size(); ++k) {
      ClusterRec& victim = cluster_rec(neighbors_clusters[k]);
      for (AgentId m : victim.members) {
        agent(m).cluster = target;
        target_rec.members.push_back(m);
      }
      target_rec.blocked_members += victim.blocked_members;
      if (shards_ > 1 &&
          (victim.span_lo < target_rec.span_lo ||
           victim.span_hi > target_rec.span_hi)) {
        span_counters_remove(target_rec);
        target_rec.span_lo = std::min(target_rec.span_lo, victim.span_lo);
        target_rec.span_hi = std::max(target_rec.span_hi, victim.span_hi);
        span_counters_add(target_rec);
      }
      span_counters_remove(victim);
      free_cluster(neighbors_clusters[k]);
    }
  }
  ClusterRec& rec = cluster_rec(target);
  node.cluster = target;
  rec.members.push_back(id);
  std::sort(rec.members.begin(), rec.members.end());
  if (!node.blocked_by.empty()) ++rec.blocked_members;
  cluster_span_include(target, home);
  mark_dirty(target);
}

void Scoreboard::pop_shard_ready_into(std::int32_t strip,
                                      std::vector<AgentCluster>* ready) {
  // The dirty list's order is unobservable: whether a cluster dispatches
  // depends only on its own blocked count, callers sort the output by
  // (step, first member), and every stat below is a sum or a max of
  // running-count snapshots. On one thread that count only rises within
  // a pop, so the max is its final value in any order (with strips
  // committing concurrently the snapshots are timing-dependent anyway).
  ShardData& sd = shard(strip);
  for (const std::int32_t slot : sd.dirty_slots) {
    ClusterRec& rec = sd.clusters[static_cast<std::size_t>(slot)];
    // Freed since it was listed, or a repeat entry already handled.
    if (!rec.dirty) continue;
    rec.dirty = false;
    // Stays idle; keep it clean until an edge change re-dirties it.
    if (rec.blocked_members > 0) continue;
    // Dispatch: mark members running, drop from idle structures.
    AgentCluster out;
    out.step = rec.step;
    out.members = std::move(rec.members);
    for (AgentId m : out.members) {
      AgentNode& node = agent(m);
      AIM_CHECK(node.status == AgentStatus::kIdle);
      node.status = AgentStatus::kRunning;
      node.cluster = -1;
      if (full_scan()) {
        auto& idle = shard(0).idle_by_step;
        auto idle_it = idle.find(rec.step);
        AIM_CHECK(idle_it != idle.end());
        idle_it->second.erase(m);
        if (idle_it->second.empty()) idle.erase(idle_it);
      }
      running_count_.fetch_add(1, std::memory_order_relaxed);
    }
    span_counters_remove(rec);
    free_cluster((static_cast<std::int64_t>(slot) << 6) | strip);
    ++sd.stats.clusters_dispatched;
    sd.stats.sum_cluster_sizes += static_cast<double>(out.members.size());
    sd.stats.max_concurrent_running = std::max<std::uint64_t>(
        sd.stats.max_concurrent_running,
        running_count_.load(std::memory_order_relaxed));
    ready->push_back(std::move(out));
  }
  sd.dirty_slots.clear();
}

std::vector<AgentCluster> Scoreboard::pop_ready_clusters() {
  std::vector<AgentCluster> ready;
  for (std::int32_t s = 0; s < shards_; ++s) pop_shard_ready_into(s, &ready);
  std::sort(ready.begin(), ready.end(),
            [](const AgentCluster& a, const AgentCluster& b) {
              if (a.step != b.step) return a.step < b.step;
              return a.members.front() < b.members.front();
            });
  return ready;
}

std::vector<AgentCluster> Scoreboard::pop_ready_clusters_in_shard(
    std::int32_t strip) {
  AIM_CHECK(strip >= 0 && strip < shards_);
  std::vector<AgentCluster> ready;
  pop_shard_ready_into(strip, &ready);
  std::sort(ready.begin(), ready.end(),
            [](const AgentCluster& a, const AgentCluster& b) {
              if (a.step != b.step) return a.step < b.step;
              return a.members.front() < b.members.front();
            });
  return ready;
}

std::int32_t Scoreboard::local_commit_shard(
    const std::vector<std::pair<AgentId, Pos>>& moves,
    Step probe_floor) const {
  if (shards_ == 1 || moves.empty()) return -1;
  AIM_CHECK(probe_floor >= 0);
  // The influence region of a commit: every structure it can touch lies
  // within blocking_radius(max possible lag) of a member's old or new
  // position (existing edges and probe boxes), plus a coupling radius
  // for the idle-cluster merge probe. If every such box sits inside one
  // strip, every agent/cluster the commit reads or writes is homed there.
  const double rb =
      params_.blocking_radius(target_step_ - probe_floor) +
      params_.coupling_radius();
  std::int32_t strip = -1;
  for (const auto& [id, pos] : moves) {
    const AgentNode& node = agent(id);
    const auto old_span = partition_.span_of_box(node.pos, rb);
    const auto new_span = partition_.span_of_box(pos, rb);
    if (!old_span.single() || !new_span.single() ||
        old_span.lo != new_span.lo) {
      return -1;
    }
    if (strip < 0) strip = old_span.lo;
    if (old_span.lo != strip) return -1;
    // A registration wider than one strip means the member's blocking
    // box reached across a boundary at its last commit (under an
    // earlier, smaller floor); such a member reconciles cross-shard.
    if (node.border_lo != node.border_hi || node.border_lo != strip) {
      return -1;
    }
  }
  // A cluster chain reaching across the boundary couples this strip to
  // its neighbor: any commit here may need to merge into (or unblock) a
  // record owned by another strip, so it reconciles cross-shard.
  if (shard(strip).cross_clusters.load(std::memory_order_relaxed) != 0) {
    return -1;
  }
  return strip;
}

void Scoreboard::commit(const std::vector<std::pair<AgentId, Pos>>& moves,
                        Step probe_floor) {
  AIM_CHECK(!moves.empty());
  // The floor bounds every blocking-radius probe in this commit. The
  // exact path samples the live minimum once, up front: it can only rise
  // during phase 1, so the sample stays a valid lower bound, and a lower
  // floor merely widens probe boxes (the exact predicates filter the
  // extras — observable state is floor-independent).
  const Step floor = probe_floor >= 0 ? probe_floor : min_step();
  // The commit's strip: every member is homed in it before and after an
  // interior commit, and a cross commit holds the whole board.
  ShardData& scratch =
      shard(partition_.shard_of(agent(moves.front().first).pos));
  ++scratch.stats.commits;
  // Phase 1: advance state (agent table, live-step counts, live index,
  // border registration).
  for (const auto& [id, pos] : moves) {
    AgentNode& node = agent(id);
    AIM_CHECK_MSG(node.status == AgentStatus::kRunning,
                  "commit of non-running agent " << id);
    // A graph board counts the hops with a walk that stops once the new
    // node is labeled (none for a stay): a move beyond max_vel hops reads
    // +inf and fails, as it must.
    const double moved =
        use_graph_index()
            ? graph_live_index_->hops_within(node.pos, pos, params_.max_vel)
            : metric_->distance(node.pos, pos);
    AIM_CHECK_MSG(moved <= params_.max_vel + 1e-9,
                  "agent " << id << " moved faster than max_vel");
    AIM_CHECK(node.step >= floor);
    const std::int32_t old_strip = partition_.shard_of(node.pos);
    const std::int32_t new_strip = partition_.shard_of(pos);
    node.pos = pos;
    node.step += 1;
    AIM_CHECK(node.step <= target_step_);
    running_count_.fetch_sub(1, std::memory_order_relaxed);
    const bool now_done = node.step == target_step_;
    // Count the new step first, so the old step's strip cursor (when the
    // strip does not change) stops at it rather than scanning past.
    if (!now_done) live_step_add(shard(new_strip), node.step);
    live_step_remove(shard(old_strip), node.step - 1);
    if (now_done) {
      node.status = AgentStatus::kDone;
      done_count_.fetch_add(1, std::memory_order_release);
      if (use_index()) shard(old_strip).live_index.remove(id);
      if (use_graph_index()) graph_live_index_->remove(id);
    } else {
      node.status = AgentStatus::kIdle;
      if (use_index()) {
        if (old_strip == new_strip) {
          shard(new_strip).live_index.update(id, pos);
        } else {
          shard(old_strip).live_index.remove(id);
          shard(new_strip).live_index.insert(id, pos);
        }
      }
      if (use_graph_index()) graph_live_index_->update(id, pos);
    }
    update_border_registration(id, floor);
  }
  // Phase 2: re-examine relationships. Outgoing edges of committed agents
  // can only shrink (they advanced / are no longer running); incoming edges
  // must be rebuilt because their step and position changed. On a graph
  // board one walk per member serves both. The blocker probes also
  // collect each member's coupling candidates for phase 3: a blocker probe
  // reaches blocking_radius(lag) >= coupling_radius() for every lag >= 0,
  // and no position moves between the phases. Full scans collect nothing.
  std::vector<Coupling>* coupling =
      full_scan() ? nullptr : &scratch.couple_buf;
  scratch.couple_buf.clear();
  scratch.couple_begin.clear();
  for (const auto& [id, pos] : moves) {
    (void)pos;
    scratch.couple_begin.push_back(scratch.couple_buf.size());
    if (use_graph_index()) walk_edge_ball(id, floor);
    refresh_outgoing(id);
    recompute_blockers(id, floor, coupling);
  }
  scratch.couple_begin.push_back(scratch.couple_buf.size());
  // Phase 3: idle clustering for members still in flight toward target.
  for (std::size_t k = 0; k < moves.size(); ++k) {
    const AgentId id = moves[k].first;
    AgentNode& node = agent(id);
    if (node.status == AgentStatus::kIdle) {
      const Coupling* run = scratch.couple_buf.data();
      cluster_in(id, {run + scratch.couple_begin[k],
                      run + scratch.couple_begin[k + 1]});
    }
    if (node.status == AgentStatus::kDone) {
      // A done agent blocks nobody and is blocked by nobody.
      std::vector<AgentId>& watchers = scratch_of(id).edge_buf;
      watchers.assign(node.blocks.begin(), node.blocks.end());
      for (AgentId w : watchers) remove_edge(id, w);
      AIM_CHECK(node.blocked_by.empty());
    }
  }
}

std::vector<AgentId> Scoreboard::blockers_of(AgentId id) const {
  const AgentNode& node = agent(id);
  return {node.blocked_by.begin(), node.blocked_by.end()};
}

std::vector<AgentId> Scoreboard::cluster_of(AgentId id) const {
  const AgentNode& node = agent(id);
  if (node.cluster < 0) return {};
  return cluster_rec(node.cluster).members;
}

ScoreboardStats Scoreboard::stats() const {
  ScoreboardStats out;
  for (std::int32_t s = 0; s < shards_; ++s) {
    const ScoreboardStats& ss = shard(s).stats;
    out.clusters_dispatched += ss.clusters_dispatched;
    out.commits += ss.commits;
    out.edges_added += ss.edges_added;
    out.edges_removed += ss.edges_removed;
    // Each per-strip maximum is a snapshot of the one global running
    // counter, so the board-wide peak is the max, not the sum.
    out.max_concurrent_running =
        std::max(out.max_concurrent_running, ss.max_concurrent_running);
    out.sum_cluster_sizes += ss.sum_cluster_sizes;
  }
  return out;
}

const ScoreboardStats& Scoreboard::shard_stats(std::int32_t s) const {
  AIM_CHECK(s >= 0 && s < shards_);
  return shard(s).stats;
}

double Scoreboard::mean_blockers() const {
  std::uint64_t samples = 0;
  std::uint64_t total = 0;
  for (std::int32_t s = 0; s < shards_; ++s) {
    samples += shard(s).blocker_samples;
    total += shard(s).blocker_total;
  }
  return samples ? static_cast<double>(total) / static_cast<double>(samples)
                 : 0.0;
}

void Scoreboard::check_invariants() const {
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    for (std::size_t j = i + 1; j < agents_.size(); ++j) {
      const AgentNode& a = agents_[i];
      const AgentNode& b = agents_[j];
      const double dist = metric_->distance(a.pos, b.pos);
      AIM_CHECK_MSG(
          state_valid(dist, a.step, b.step, params_),
          "temporal causality violated between agents "
              << i << "@" << a.step << " and " << j << "@" << b.step
              << " at distance " << dist);
    }
  }
  // Edge symmetry and cluster bookkeeping.
  auto strictly_sorted = [](const std::vector<AgentId>& v) {
    return std::adjacent_find(v.begin(), v.end(), std::greater_equal<>()) ==
           v.end();
  };
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    const auto id = static_cast<AgentId>(i);
    const AgentNode& node = agents_[i];
    AIM_CHECK_MSG(strictly_sorted(node.blocked_by) &&
                      strictly_sorted(node.blocks),
                  "edge list of agent " << id << " is not sorted and unique");
    for (AgentId b : node.blocked_by) {
      AIM_CHECK(sorted_contains(agent(b).blocks, id));
    }
    for (AgentId w : node.blocks) {
      AIM_CHECK(sorted_contains(agent(w).blocked_by, id));
    }
    if (node.status == AgentStatus::kIdle) {
      AIM_CHECK(node.cluster >= 0);
      const ClusterRec& rec = cluster_rec(node.cluster);
      AIM_CHECK(std::find(rec.members.begin(), rec.members.end(), id) !=
                rec.members.end());
      AIM_CHECK(rec.step == node.step);
    }
  }
  std::vector<std::int32_t> expected_cross(
      static_cast<std::size_t>(shards_), 0);
  for (std::int32_t s = 0; s < shards_; ++s) {
    const ShardData& sd = shard(s);
    // Slab bookkeeping: the free list names exactly the dead slots, once
    // each; only live records may be dirty, and every dirty record is on
    // its strip's dirty list.
    std::vector<bool> listed_free(sd.clusters.size(), false);
    for (std::int32_t slot : sd.free_slots) {
      const auto k = static_cast<std::size_t>(slot);
      AIM_CHECK_MSG(k < sd.clusters.size() && !listed_free[k],
                    "bad free-list entry " << slot << " in strip " << s);
      listed_free[k] = true;
      AIM_CHECK_MSG(!sd.clusters[k].live,
                    "free slot " << slot << " in strip " << s << " is live");
    }
    std::vector<bool> listed_dirty(sd.clusters.size(), false);
    for (std::int32_t slot : sd.dirty_slots) {
      const auto k = static_cast<std::size_t>(slot);
      AIM_CHECK(k < sd.clusters.size());
      listed_dirty[k] = true;
    }
    for (std::size_t k = 0; k < sd.clusters.size(); ++k) {
      const ClusterRec& rec = sd.clusters[k];
      AIM_CHECK_MSG(rec.live || listed_free[k],
                    "dead slot " << k << " in strip " << s
                                 << " is missing from the free list");
      AIM_CHECK_MSG(!rec.dirty || (rec.live && listed_dirty[k]),
                    "dirty slot " << k << " in strip " << s
                                  << " is dead or not on the dirty list");
      if (!rec.live) continue;
      const std::int64_t cid = (static_cast<std::int64_t>(k) << 6) | s;
      std::int32_t blocked = 0;
      std::int32_t span_lo = std::numeric_limits<std::int32_t>::max();
      std::int32_t span_hi = std::numeric_limits<std::int32_t>::min();
      for (AgentId m : rec.members) {
        AIM_CHECK(agent(m).status == AgentStatus::kIdle);
        AIM_CHECK_MSG(agent(m).cluster == cid,
                      "member " << m << " of cluster " << cid
                                << " points at cluster " << agent(m).cluster);
        if (!agent(m).blocked_by.empty()) ++blocked;
        const std::int32_t strip = partition_.shard_of(agent(m).pos);
        span_lo = std::min(span_lo, strip);
        span_hi = std::max(span_hi, strip);
      }
      AIM_CHECK_MSG(blocked == rec.blocked_members,
                    "cluster blocked-count drift: " << blocked << " vs "
                                                    << rec.blocked_members);
      if (shards_ > 1) {
        AIM_CHECK_MSG(span_lo == rec.span_lo && span_hi == rec.span_hi,
                      "cluster strip-span drift for cluster " << cid);
        AIM_CHECK_MSG(rec.span_lo <= s && s <= rec.span_hi,
                      "cluster " << cid << " homed outside its span");
        if (rec.span_lo != rec.span_hi) {
          for (std::int32_t t = rec.span_lo; t <= rec.span_hi; ++t) {
            ++expected_cross[static_cast<std::size_t>(t)];
          }
        }
      }
    }
  }
  // Live-step counts, the per-strip spatial indexes, the border
  // registrations and the cross-strip cluster counters must mirror the
  // agent table.
  std::vector<std::vector<std::int32_t>> expected_live(
      static_cast<std::size_t>(shards_),
      std::vector<std::int32_t>(static_cast<std::size_t>(target_step_), 0));
  std::size_t live = 0;
  const Step floor = min_step();
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    const AgentNode& node = agents_[i];
    const auto id = static_cast<AgentId>(i);
    const std::int32_t home = partition_.shard_of(node.pos);
    if (node.status == AgentStatus::kDone) continue;
    ++live;
    ++expected_live[static_cast<std::size_t>(home)]
                   [static_cast<std::size_t>(node.step)];
    if (use_index()) {
      const auto& index = shard(home).live_index;
      AIM_CHECK_MSG(index.contains(id),
                    "live agent " << id << " missing from its strip index");
      AIM_CHECK_MSG(index.position(id) == node.pos,
                    "index position drift for agent " << id);
    }
    if (use_graph_index()) {
      AIM_CHECK_MSG(graph_live_index_->contains(id),
                    "live agent " << id << " missing from the graph index");
      AIM_CHECK_MSG(graph_live_index_->position(id) == node.pos,
                    "graph-index position drift for agent " << id);
    }
    if (shards_ > 1) {
      // The registration was taken against some historical floor <= the
      // current one, so it must still contain the current box.
      const auto span = partition_.span_of_box(
          node.pos, params_.blocking_radius(node.step - floor));
      AIM_CHECK_MSG(node.border_lo <= span.lo && span.hi <= node.border_hi,
                    "border registration of agent "
                        << id << " no longer covers its blocking box");
    }
  }
  std::size_t indexed_total = 0;
  for (std::int32_t s = 0; s < shards_; ++s) {
    const std::vector<std::int32_t>& counts =
        expected_live[static_cast<std::size_t>(s)];
    std::vector<std::int32_t> held = shard(s).live_steps;
    AIM_CHECK(held.size() <= counts.size());
    held.resize(counts.size(), 0);
    AIM_CHECK_MSG(counts == held, "live-step count drift in strip " << s);
    const auto first = std::find_if(counts.begin(), counts.end(),
                                    [](std::int32_t c) { return c > 0; });
    AIM_CHECK_MSG(shard(s).live_min.load(std::memory_order_acquire) ==
                      first - counts.begin(),
                  "live-step min cursor drift in strip " << s);
    if (use_index()) indexed_total += shard(s).live_index.size();
    if (shards_ > 1) {
      AIM_CHECK_MSG(
          expected_cross[static_cast<std::size_t>(s)] ==
              shard(s).cross_clusters.load(std::memory_order_relaxed),
          "cross-strip cluster counter drift in strip " << s);
    }
  }
  if (use_index()) AIM_CHECK(indexed_total == live);
  if (use_graph_index()) AIM_CHECK(graph_live_index_->size() == live);
}

std::string Scoreboard::to_dot() const {
  std::ostringstream os;
  os << "digraph scoreboard {\n  rankdir=LR;\n";
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    const AgentNode& a = agents_[i];
    const char* color = a.status == AgentStatus::kRunning ? "green"
                        : a.blocked_by.empty()            ? "white"
                                                          : "orange";
    os << "  a" << i << " [label=\"" << static_cast<char>('A' + (i % 26))
       << "@" << a.step << "\", style=filled, fillcolor=" << color << "];\n";
  }
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    for (AgentId w : agents_[i].blocks) {
      os << "  a" << i << " -> a" << w << ";\n";
    }
  }
  // Coupled relationships (same cluster) rendered as double arrows.
  for (std::int32_t s = 0; s < shards_; ++s) {
    for (const ClusterRec& rec : shard(s).clusters) {
      if (!rec.live) continue;
      for (std::size_t k = 0; k + 1 < rec.members.size(); ++k) {
        os << "  a" << rec.members[k] << " -> a" << rec.members[k + 1]
           << " [dir=both, color=blue];\n";
      }
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace aimetro::core
