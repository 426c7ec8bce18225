#include "world/csr_graph.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace aimetro::world {

CsrGraph::CsrGraph(std::vector<std::uint32_t> offsets,
                   std::vector<std::int32_t> targets)
    : offsets_(std::move(offsets)), targets_(std::move(targets)) {
  check_shape();
}

CsrGraph::CsrGraph(const std::vector<std::vector<std::int32_t>>& adjacency) {
  offsets_.push_back(0);
  for (const auto& row : adjacency) {
    targets_.insert(targets_.end(), row.begin(), row.end());
    offsets_.push_back(static_cast<std::uint32_t>(targets_.size()));
  }
  check_shape();
}

void CsrGraph::check_shape() const {
  AIM_CHECK_MSG(offsets_.size() >= 2, "graph has no nodes");
  // Also catches offsets that wrapped past 32 bits: the last falls short.
  AIM_CHECK_MSG(offsets_.front() == 0 && offsets_.back() == targets_.size() &&
                    std::is_sorted(offsets_.begin(), offsets_.end()),
                "graph row offsets do not partition its neighbor array");
  const std::int32_t n = node_count();
  for (std::int32_t u = 0; u < n; ++u) {
    const auto row = neighbors(u);
    AIM_CHECK_MSG(std::is_sorted(row.begin(), row.end()),
                  "graph node " << u << " lists its neighbors out of order");
    for (std::int32_t v : row) {
      AIM_CHECK_MSG(v >= 0 && v < n, "graph neighbor " << v << " of node " << u
                                                       << " is not a node id");
    }
  }
  // The graph is undirected: hop distances read from either end of an
  // edge must agree.
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
