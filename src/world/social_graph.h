// Social-network world substrate: deterministic follower-graph builders.
//
// Graph worlds replace the tile map with a fixed undirected graph whose
// nodes are "places in the network" (profiles, venues, communities);
// agents stand on nodes, move one hop per step, and couple within a
// hop-count radius (core::GraphMetric). The canonical family is a
// Newman–Watts small world: a ring lattice (every node tied to its k
// nearest ring neighbors — the local follower clusters) plus random
// shortcut edges (the cross-community follows that give social networks
// their short path lengths). Unlike Watts–Strogatz rewiring, Newman–Watts
// only ADDS shortcuts, so the ring stays intact and the graph is always
// connected — every pair of agents has a finite hop distance.
#pragma once

#include <cstdint>

#include "world/csr_graph.h"

namespace aimetro::world {

/// Undirected Newman–Watts small-world graph: `nodes` vertices on a ring,
/// each linked to its `degree` nearest ring neighbors (degree/2 per side;
/// `degree` must be even and >= 2), plus one shortcut per ring edge with
/// probability `shortcut_prob`. Deterministic in (nodes, degree,
/// shortcut_prob, seed). Returned flat, with each neighborhood ascending
/// and free of duplicates and self-loops: the graph a social trace carries
/// (trace::generate_social_graph) and every graph-world reader walks.
CsrGraph newman_watts_graph(std::int32_t nodes, std::int32_t degree,
                            double shortcut_prob, std::uint64_t seed);

}  // namespace aimetro::world
