#include "core/metric.h"

#include "common/check.h"

namespace aimetro::core {

GraphMetric::GraphMetric(
    const std::vector<std::vector<std::int32_t>>& adjacency)
    : graph_(adjacency) {
  // A shortest path visits each node at most once, so any connected
  // distance fits in a Depth as long as the node count does.
  AIM_CHECK_MSG(static_cast<std::uint64_t>(node_count()) < kUnreached,
                "graph too large for BFS depth labels");
}

GraphMetric::BfsRow& GraphMetric::row_for(std::int32_t src) const {
  auto it = rows_.find(src);
  if (it != rows_.end()) return it->second;
  if (rows_.size() >= max_cached_rows()) rows_.clear();
  BfsRow& row = rows_[src];
  row.dist.assign(static_cast<std::size_t>(node_count()), kUnreached);
  row.dist[static_cast<std::size_t>(src)] = 0;
  row.frontier.push_back(src);
  return row;
}

double GraphMetric::distance(const Pos& a, const Pos& b) const {
  const auto ia = static_cast<std::int32_t>(a.x);
  const auto ib = static_cast<std::int32_t>(b.x);
  AIM_CHECK(ia >= 0 && ia < node_count() && ib >= 0 && ib < node_count());
  if (ia == ib) return 0.0;
  common::MutexLock lock(cache_mutex_);
  BfsRow& row = row_for(ia);
  // Expand the row one BFS level at a time until the target is labeled or
  // the component is exhausted.
  std::vector<std::int32_t> next;
  while (row.dist[static_cast<std::size_t>(ib)] == kUnreached &&
         !row.frontier.empty()) {
    next.clear();
    const Depth depth = row.depth_done + 1;
    for (std::int32_t u : row.frontier) {
      for (std::int32_t v : graph_.neighbors(u)) {
        if (row.dist[static_cast<std::size_t>(v)] == kUnreached) {
          row.dist[static_cast<std::size_t>(v)] = depth;
          next.push_back(v);
        }
      }
    }
    row.frontier.swap(next);
    row.depth_done = depth;
  }
  const Depth d = row.dist[static_cast<std::size_t>(ib)];
  return d == kUnreached ? kDisconnected : static_cast<double>(d);
}

std::shared_ptr<const Metric> make_euclidean() {
  static const auto instance = std::make_shared<EuclideanMetric>();
  return instance;
}

}  // namespace aimetro::core
