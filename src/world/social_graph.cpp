#include "world/social_graph.h"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace aimetro::world {

CsrGraph newman_watts_graph(std::int32_t nodes, std::int32_t degree,
                            double shortcut_prob, std::uint64_t seed) {
  AIM_CHECK(nodes >= 3);
  AIM_CHECK_MSG(degree >= 2 && degree % 2 == 0,
                "ring degree must be even and >= 2");
  AIM_CHECK_MSG(degree < nodes, "ring degree must be below the node count");
  AIM_CHECK(shortcut_prob >= 0.0 && shortcut_prob <= 1.0);

  // Each edge as two arcs, one per direction; duplicates go after the
  // draws.
  std::vector<std::pair<std::int32_t, std::int32_t>> arcs;
  auto add_edge = [&](std::int32_t a, std::int32_t b) {
    if (a == b) return;
    arcs.emplace_back(a, b);
    arcs.emplace_back(b, a);
  };
  // Ring lattice: node i tied to its degree/2 neighbors on each side.
  for (std::int32_t i = 0; i < nodes; ++i) {
    for (std::int32_t k = 1; k <= degree / 2; ++k) {
      add_edge(i, (i + k) % nodes);
    }
  }
  // Shortcuts: one candidate per ring edge, Newman–Watts style (added on
  // top of the ring, never replacing it, so connectivity is guaranteed).
  Rng rng(splitmix64(seed ^ 0x50C1A1ULL));
  const std::int64_t ring_edges =
      static_cast<std::int64_t>(nodes) * (degree / 2);
  for (std::int64_t e = 0; e < ring_edges; ++e) {
    if (!rng.bernoulli(shortcut_prob)) continue;
    const auto a = static_cast<std::int32_t>(rng.uniform_int(0, nodes - 1));
    const auto b = static_cast<std::int32_t>(rng.uniform_int(0, nodes - 1));
    add_edge(a, b);
  }

  // Sorted arcs are the rows, in order: each row ascending, no duplicates.
  std::sort(arcs.begin(), arcs.end());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
  std::vector<std::uint32_t> offsets(static_cast<std::size_t>(nodes) + 1, 0);
  std::vector<std::int32_t> targets;
  targets.reserve(arcs.size());
  for (const auto& [from, to] : arcs) {
    ++offsets[static_cast<std::size_t>(from) + 1];
    targets.push_back(to);
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  return CsrGraph(std::move(offsets), std::move(targets));
}

}  // namespace aimetro::world
