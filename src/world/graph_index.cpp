#include "world/graph_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace aimetro::world {

namespace {

/// Hop distances are integral: dist <= r iff dist <= floor(r). The small
/// epsilon keeps an exactly-integral radius computed in floating point
/// (e.g. (lag+1)*max_vel + radius_p) from flooring one level short.
std::int32_t depth_of(double hop_radius) {
  AIM_CHECK(hop_radius >= 0.0);
  return static_cast<std::int32_t>(std::floor(hop_radius + 1e-9));
}

}  // namespace

GraphIndex::GraphIndex(const CsrGraph* graph) : graph_(graph) {
  AIM_CHECK(graph_ != nullptr);
  const auto n = static_cast<std::size_t>(graph_->node_count());
  buckets_.resize(n);
  occupancy_.assign(n, 0);
  visits_.assign(n, Visit{});
}

std::int32_t GraphIndex::node_of(Pos p) const {
  const auto node = static_cast<std::int32_t>(p.x);
  AIM_CHECK_MSG(node >= 0 && node < node_count(),
                "position " << p.x << " is not a node id");
  return node;
}

void GraphIndex::insert(AgentId id, Pos pos) {
  AIM_CHECK_MSG(positions_.emplace(id, pos).second,
                "agent " << id << " already indexed");
  const auto node = static_cast<std::size_t>(node_of(pos));
  buckets_[node].push_back(id);
  ++occupancy_[node];
}

void GraphIndex::bulk_insert(
    const std::vector<std::pair<AgentId, Pos>>& items) {
  positions_.reserve(positions_.size() + items.size());
  for (const auto& [id, pos] : items) insert(id, pos);
}

void GraphIndex::remove(AgentId id) {
  const auto it = positions_.find(id);
  if (it == positions_.end()) return;
  const auto node = static_cast<std::size_t>(node_of(it->second));
  auto& bucket = buckets_[node];
  const auto bit = std::find(bucket.begin(), bucket.end(), id);
  AIM_CHECK(bit != bucket.end());
  *bit = bucket.back();
  bucket.pop_back();
  --occupancy_[node];
  positions_.erase(it);
}

void GraphIndex::update(AgentId id, Pos pos) {
  const auto it = positions_.find(id);
  if (it == positions_.end()) {
    insert(id, pos);
    return;
  }
  const auto from = static_cast<std::size_t>(node_of(it->second));
  const auto to = static_cast<std::size_t>(node_of(pos));
  it->second = pos;
  if (from == to) return;
  auto& bucket = buckets_[from];
  const auto bit = std::find(bucket.begin(), bucket.end(), id);
  AIM_CHECK(bit != bucket.end());
  *bit = bucket.back();
  bucket.pop_back();
  --occupancy_[from];
  buckets_[to].push_back(id);
  ++occupancy_[to];
}

Pos GraphIndex::position(AgentId id) const {
  const auto it = positions_.find(id);
  AIM_CHECK_MSG(it != positions_.end(), "agent " << id << " not indexed");
  return it->second;
}

void GraphIndex::walk(std::int32_t start, std::int32_t depth,
                      std::vector<AgentId>* out, std::int32_t stop) const {
  if (++epoch_ == 0) {  // epoch counter wrapped: reset all stamps
    std::fill(visits_.begin(), visits_.end(), Visit{});
    epoch_ = 1;
  }
  auto collect = [&](std::int32_t node) {
    if (out == nullptr || occupancy_[static_cast<std::size_t>(node)] == 0) {
      return;
    }
    const auto& bucket = buckets_[static_cast<std::size_t>(node)];
    out->insert(out->end(), bucket.begin(), bucket.end());
  };
  visits_[static_cast<std::size_t>(start)] = Visit{epoch_, 0};
  collect(start);
  queue_.clear();
  queue_.push_back(start);
  std::size_t head = 0;
  for (std::int32_t level = 1; level <= depth && head < queue_.size();
       ++level) {
    // The last level's nodes are labeled but never expanded, so they stay
    // off the queue.
    const bool expand_next = level < depth;
    for (const std::size_t level_end = queue_.size(); head < level_end;
         ++head) {
      for (std::int32_t v : graph_->neighbors(queue_[head])) {
        Visit& visit = visits_[static_cast<std::size_t>(v)];
        if (visit.epoch == epoch_) continue;
        visit = Visit{epoch_, level};
        if (v == stop) return;
        if (expand_next) queue_.push_back(v);
        collect(v);
      }
    }
  }
}

void GraphIndex::query_ball_into(Pos center, double hop_radius,
                                 std::vector<AgentId>* out) const {
  AIM_CHECK(out != nullptr);
  out->clear();
  walk(node_of(center), depth_of(hop_radius), out, -1);
  std::sort(out->begin(), out->end());
}

std::vector<AgentId> GraphIndex::query_ball(Pos center,
                                            double hop_radius) const {
  std::vector<AgentId> out;
  query_ball_into(center, hop_radius, &out);
  return out;
}

double GraphIndex::hop_distance(Pos pos) const {
  const Visit& visit = visits_[static_cast<std::size_t>(node_of(pos))];
  return visit.epoch == epoch_ ? static_cast<double>(visit.level)
                               : std::numeric_limits<double>::infinity();
}

double GraphIndex::hops_within(Pos from, Pos to, double hop_radius) const {
  const std::int32_t depth = depth_of(hop_radius);
  const std::int32_t start = node_of(from);
  const std::int32_t target = node_of(to);
  if (start == target) return 0.0;
  walk(start, depth, nullptr, target);
  return hop_distance(to);
}

}  // namespace aimetro::world
