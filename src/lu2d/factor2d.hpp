// The 2D distributed right-looking supernodal LU factorization — the
// SuperLU_DIST baseline algorithm (§II-E2):
//   per supernode k: diagonal factorization at the owner of (k,k),
//   diagonal broadcast along the owner's process row and column, panel
//   solves at the owning row/column of processes, panel broadcast, then
//   the owner-only-update Schur complement on every rank.
// The schedule (lookahead pipelining, stash slots, non-blocking panel
// broadcasts, targeted one-sided delivery) is the panel engine in
// factor2d.cpp.
//
// `snodes` restricts the factorization to a node list — this is exactly
// the dSparseLU2D(A, nList) primitive that Algorithm 1 (the 3D algorithm)
// invokes per elimination-forest level.
#pragma once

#include <span>

#include "lu2d/dist_factors.hpp"
#include "pipeline/options.hpp"
#include "simmpi/process_grid.hpp"

namespace slu3d {

/// Scheduling knobs; the struct lives in pipeline/options.hpp, and the
/// historical name survives for callers.
using Lu2dOptions = pipeline::PanelOptions;

/// Factorizes the supernodes in `snodes` (ascending elimination order) in
/// place on every rank of `grid`. Collective over grid.grid(). Schur
/// updates are applied to every allocated target block, including
/// replicated-ancestor blocks when `F` is a masked (3D) layout.
void factorize_2d(Dist2dFactors& F, sim::ProcessGrid2D& grid,
                  std::span<const int> snodes, const Lu2dOptions& options = {});

}  // namespace slu3d
