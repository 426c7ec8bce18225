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
  order_slot_.assign(n, -1);
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
  occupy(node, 1);
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
  occupy(node, -1);
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
  occupy(from, -1);
  buckets_[to].push_back(id);
  occupy(to, 1);
}

Pos GraphIndex::position(AgentId id) const {
  const auto it = positions_.find(id);
  AIM_CHECK_MSG(it != positions_.end(), "agent " << id << " not indexed");
  return it->second;
}

void GraphIndex::Order::reset(std::int32_t start) {
  nodes.assign(1, start);
  level_end.assign(1, 1);
}

void GraphIndex::occupy(std::size_t node, std::int32_t delta) {
  occupancy_[node] += delta;
  std::int32_t& slot = order_slot_[node];
  if (occupancy_[node] > 0 || slot < 0) return;
  free_orders_.push_back(slot);
  slot = -1;
}

GraphIndex::Order& GraphIndex::order_of(std::int32_t node) const {
  std::int32_t& slot = order_slot_[static_cast<std::size_t>(node)];
  if (slot >= 0) return orders_[static_cast<std::size_t>(slot)];
  if (free_orders_.empty()) {
    slot = static_cast<std::int32_t>(orders_.size());
    orders_.emplace_back();
  } else {
    slot = free_orders_.back();
    free_orders_.pop_back();
  }
  Order& order = orders_[static_cast<std::size_t>(slot)];
  order.reset(node);
  return order;
}

void GraphIndex::walk(Order& order, std::int32_t depth,
                      std::vector<AgentId>* out, std::int32_t stop) const {
  if (++epoch_ == 0) {  // epoch counter wrapped: reset all stamps
    std::fill(visits_.begin(), visits_.end(), Visit{});
    epoch_ = 1;
  }
  auto label = [&](std::int32_t node, std::int32_t level) {
    visits_[static_cast<std::size_t>(node)] = Visit{epoch_, level};
    if (out == nullptr || occupancy_[static_cast<std::size_t>(node)] == 0) {
      return;
    }
    const auto& bucket = buckets_[static_cast<std::size_t>(node)];
    out->insert(out->end(), bucket.begin(), bucket.end());
  };
  // Replay the stored levels the ball reaches.
  const auto stored = static_cast<std::int32_t>(order.level_end.size()) - 1;
  std::size_t next = 0;
  for (std::int32_t level = 0; level <= std::min(depth, stored); ++level) {
    const std::size_t end = order.level_end[static_cast<std::size_t>(level)];
    for (; next < end; ++next) label(order.nodes[next], level);
  }
  // Extend past the last stored level. Every stored node is labeled by
  // now, so the BFS labels exactly the nodes the order has not reached.
  for (std::int32_t level = stored + 1; level <= depth; ++level) {
    // Expand the level before this one.
    std::size_t head =
        level > 1 ? order.level_end[static_cast<std::size_t>(level - 2)] : 0;
    const std::size_t head_end = order.nodes.size();
    if (head == head_end) return;  // the component is exhausted
    for (; head < head_end; ++head) {
      for (std::int32_t v : graph_->neighbors(order.nodes[head])) {
        if (visits_[static_cast<std::size_t>(v)].epoch == epoch_) continue;
        order.nodes.push_back(v);
        label(v, level);
        if (v == stop) return;
      }
    }
    order.level_end.push_back(static_cast<std::uint32_t>(order.nodes.size()));
  }
}

void GraphIndex::query_ball_into(Pos center, double hop_radius,
                                 std::vector<AgentId>* out) const {
  AIM_CHECK(out != nullptr);
  out->clear();
  const std::int32_t start = node_of(center);
  Order* order = &scratch_;
  if (occupancy_[static_cast<std::size_t>(start)] > 0) {
    order = &order_of(start);
  } else {
    scratch_.reset(start);
  }
  walk(*order, depth_of(hop_radius), out, -1);
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
  scratch_.reset(start);
  walk(scratch_, depth, nullptr, target);
  return hop_distance(to);
}

}  // namespace aimetro::world
