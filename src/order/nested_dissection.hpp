// Fill-reducing orderings. Nested dissection (§II-B) produces the separator
// tree that drives the whole solver stack; METIS is replaced by a
// from-scratch BFS level-set dissection for general graphs plus an exact
// geometric dissection for generated grid problems.
#pragma once

#include <optional>

#include "order/separator_tree.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"

namespace slu3d {

enum class NdAlgorithm {
  /// BFS level-set separators from multiple sources (fast, robust).
  LevelSet,
  /// Multilevel edge bisection (heavy-edge matching coarsening + greedy
  /// initial partition + FM refinement — the METIS recipe), with the
  /// vertex separator taken from the refined cut. Better separators on
  /// irregular graphs at somewhat higher ordering cost.
  Multilevel,
};

struct NdOptions {
  /// Subgraphs at or below this size become leaf supernodes: the relaxed
  /// supernode size, at least 1. Unset means relaxed_leaf_size(1, 1, 1);
  /// a SolverService sets it from its own process grid. Every entry point
  /// below resolves it once, on entry, and throws on a value below 1.
  std::optional<index_t> leaf_size;
  NdAlgorithm algorithm = NdAlgorithm::LevelSet;
};

/// The relaxed-supernode size (SuperLU_DIST's `SUPERLU_RELAX`) for a
/// Px x Py x Pz process grid: 64 when Px*Py >= max(16, 4*Pz), else 32.
/// The other bound on a supernode is its width cap, kMaxSnodeWidth
/// (symbolic/block_structure.hpp, SuperLU_DIST's `maxsuper`).
///
/// A wider leaf costs more flops, charged at gamma on the one rank that
/// owns each leaf subtree. It saves diagonal and panel messages, since
/// every supernode on a plane of more than one rank sends its own, each
/// charged alpha. The saving wins only when the plane has at least 16
/// ranks and at least 4*Pz of them: on small planes with many grids the
/// extra leaf flops sit on every grid's critical path while few messages
/// go away. bench/ablation_leafsize measures this at every shape of the
/// Fig. 9 sweep (EXPERIMENTS.md, "Grid-derived relaxed supernodes").
index_t relaxed_leaf_size(int Px, int Py, int Pz);

/// General-graph nested dissection on the pattern of A + Aᵀ. Separators are
/// BFS level sets from a pseudo-peripheral root, thinned so that every
/// separator vertex touches both halves.
SeparatorTree nested_dissection(const CsrMatrix& A, const NdOptions& opts = {});

namespace order_detail {
/// opts.leaf_size, or relaxed_leaf_size(1, 1, 1) when unset; throws
/// slu3d::Error on a value below 1. Compare against this, never against
/// the optional: `x <= std::nullopt` is false for every x.
index_t resolve_leaf_size(const NdOptions& opts);
}  // namespace order_detail

/// Exact geometric nested dissection for regular grids: recursively bisect
/// the longest box axis with a width-1 hyperplane separator. Matches the
/// separator sizes assumed by the paper's §IV analysis (sqrt(n) planar,
/// n^(2/3) non-planar).
SeparatorTree geometric_nd(const GridGeometry& geom, const NdOptions& opts = {});

/// Reverse Cuthill–McKee ordering (bandwidth-reducing baseline used in
/// ordering-quality comparisons).
std::vector<index_t> rcm_ordering(const CsrMatrix& A);

}  // namespace slu3d
