#include "world/graph_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace aimetro::world {

GraphIndex::GraphIndex(
    const std::vector<std::vector<std::int32_t>>* adjacency)
    : adjacency_(adjacency) {
  AIM_CHECK(adjacency_ != nullptr && !adjacency_->empty());
  const auto n = static_cast<std::int32_t>(adjacency_->size());
  for (const auto& neighbors : *adjacency_) {
    for (std::int32_t v : neighbors) AIM_CHECK(v >= 0 && v < n);
  }
  buckets_.resize(adjacency_->size());
  visits_.assign(adjacency_->size(), Visit{});
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
  buckets_[static_cast<std::size_t>(node_of(pos))].push_back(id);
}

void GraphIndex::bulk_insert(
    const std::vector<std::pair<AgentId, Pos>>& items) {
  positions_.reserve(positions_.size() + items.size());
  for (const auto& [id, pos] : items) insert(id, pos);
}

void GraphIndex::remove(AgentId id) {
  const auto it = positions_.find(id);
  if (it == positions_.end()) return;
  auto& bucket = buckets_[static_cast<std::size_t>(node_of(it->second))];
  const auto bit = std::find(bucket.begin(), bucket.end(), id);
  AIM_CHECK(bit != bucket.end());
  *bit = bucket.back();
  bucket.pop_back();
  positions_.erase(it);
}

void GraphIndex::update(AgentId id, Pos pos) {
  const auto it = positions_.find(id);
  if (it == positions_.end()) {
    insert(id, pos);
    return;
  }
  const std::int32_t from = node_of(it->second);
  const std::int32_t to = node_of(pos);
  it->second = pos;
  if (from == to) return;
  auto& bucket = buckets_[static_cast<std::size_t>(from)];
  const auto bit = std::find(bucket.begin(), bucket.end(), id);
  AIM_CHECK(bit != bucket.end());
  *bit = bucket.back();
  bucket.pop_back();
  buckets_[static_cast<std::size_t>(to)].push_back(id);
}

Pos GraphIndex::position(AgentId id) const {
  const auto it = positions_.find(id);
  AIM_CHECK_MSG(it != positions_.end(), "agent " << id << " not indexed");
  return it->second;
}

void GraphIndex::query_ball_into(Pos center, double hop_radius,
                                 std::vector<AgentId>* out) const {
  AIM_CHECK(out != nullptr);
  out->clear();
  AIM_CHECK(hop_radius >= 0.0);
  // Hop distances are integral: dist <= r iff dist <= floor(r). The small
  // epsilon keeps an exactly-integral radius computed in floating point
  // (e.g. (lag+1)*max_vel + radius_p) from flooring one level short.
  const auto depth = static_cast<std::int32_t>(std::floor(hop_radius + 1e-9));
  const std::int32_t start = node_of(center);

  if (++epoch_ == 0) {  // epoch counter wrapped: reset all stamps
    std::fill(visits_.begin(), visits_.end(), Visit{});
    epoch_ = 1;
  }
  frontier_.clear();
  frontier_.push_back(start);
  visits_[static_cast<std::size_t>(start)] = Visit{epoch_, 0};
  auto collect = [&](std::int32_t node) {
    const auto& bucket = buckets_[static_cast<std::size_t>(node)];
    out->insert(out->end(), bucket.begin(), bucket.end());
  };
  collect(start);
  for (std::int32_t level = 0; level < depth && !frontier_.empty(); ++level) {
    next_frontier_.clear();
    for (std::int32_t u : frontier_) {
      for (std::int32_t v : (*adjacency_)[static_cast<std::size_t>(u)]) {
        auto& visit = visits_[static_cast<std::size_t>(v)];
        if (visit.epoch == epoch_) continue;
        visit = Visit{epoch_, level + 1};
        next_frontier_.push_back(v);
        collect(v);
      }
    }
    frontier_.swap(next_frontier_);
  }
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

}  // namespace aimetro::world
