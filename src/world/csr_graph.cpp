#include "world/csr_graph.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace aimetro::world {

CsrGraph::CsrGraph(const std::vector<std::vector<std::int32_t>>& adjacency) {
  AIM_CHECK_MSG(!adjacency.empty(), "graph has no nodes");
  const auto n = static_cast<std::int32_t>(adjacency.size());
  std::size_t ends = 0;
  for (const auto& row : adjacency) ends += row.size();
  AIM_CHECK_MSG(ends <= std::numeric_limits<std::uint32_t>::max(),
                "graph has too many edges for 32-bit row offsets");
  offsets_.reserve(adjacency.size() + 1);
  targets_.reserve(ends);
  offsets_.push_back(0);
  for (const auto& row : adjacency) {
    for (std::int32_t v : row) {
      AIM_CHECK_MSG(v >= 0 && v < n, "graph neighbor " << v
                                                       << " is not a node id");
    }
    const auto begin = static_cast<std::ptrdiff_t>(targets_.size());
    targets_.insert(targets_.end(), row.begin(), row.end());
    std::sort(targets_.begin() + begin, targets_.end());
    offsets_.push_back(static_cast<std::uint32_t>(targets_.size()));
  }
  for (std::int32_t u = 0; u < n; ++u) {
    for (std::int32_t v : neighbors(u)) {
      const auto back = neighbors(v);
      AIM_CHECK_MSG(std::binary_search(back.begin(), back.end(), u),
                    "one-way graph edge " << u << " -> " << v << ": node " << v
                                          << " does not list " << u);
    }
  }
}

}  // namespace aimetro::world
