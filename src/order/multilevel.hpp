// Multilevel graph bisection (the METIS recipe): heavy-edge matching
// coarsening, greedy graph-growing initial partition on the coarsest
// graph, and Fiduccia–Mattheyses-style refinement during uncoarsening.
// Used as the higher-quality splitter inside nested dissection.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "order/graph.hpp"

namespace slu3d::order_detail {

struct Bisection {
  std::vector<index_t> a;  ///< global vertex ids of side 0
  std::vector<index_t> b;  ///< global vertex ids of side 1
  offset_t cut_weight = 0; ///< edge cut of the final partition
};

/// Balanced edge bisection of the subgraph of `g` induced by `verts`
/// (which must form a single connected component). Returns nullopt when
/// the subgraph cannot be split (fewer than 2 vertices).
/// Deterministic: every stage (matching visit order, equal-weight
/// neighbour choice, initial-partition start vertex) breaks ties by vertex
/// id, so the result is a pure function of (g, verts).
std::optional<Bisection> multilevel_bisect(const Adjacency& g,
                                           std::span<const index_t> verts);

}  // namespace slu3d::order_detail
