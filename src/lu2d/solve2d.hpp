// Distributed triangular solves on the 2D block-cyclic factors — the
// SuperLU_DIST pdgstrs counterpart. Forward substitution walks supernodes
// leaves first: the diagonal owner solves its block, sends the solution
// slice to the L-panel block owners in its process column, and each of
// those sends one partial product to the target supernode's diagonal
// owner. Backward substitution mirrors this through the U panels, root
// first. Both sweeps follow the critical-path order of
// lu2d/solve_schedule.hpp. All routing is derived from the replicated symbolic
// structure; contribution counts are known in advance on every rank.
#pragma once

#include <span>

#include "lu2d/dist_factors.hpp"
#include "simmpi/process_grid.hpp"

namespace slu3d {

struct Solve2dOptions {
  /// Base message tag; the solver uses a tag range disjoint per call when
  /// callers pick distinct bases (see solve2d_tag_span).
  int tag_base = (1 << 24);
  /// Number of right-hand-side columns solved in one sweep. `x` is then an
  /// n x nrhs column-major panel; one set of broadcasts and contribution
  /// messages serves the whole batch (message counts are independent of
  /// nrhs, sizes scale with it).
  index_t nrhs = 1;
};

/// Number of distinct message tags one solve_2d call may consume starting
/// at `tag_base`. Callers issuing several solves on the same communicator
/// must advance tag_base by at least this span between calls.
int solve2d_tag_span(const BlockStructure& bs);

/// Solves L U X = B in the permuted index space on the factored `F`.
/// Collective over grid.grid(). Every rank passes the full permuted
/// right-hand side panel in `x` (replicated, n x nrhs column-major); on
/// return every rank's `x` holds the full solution panel. `snodes`
/// defaults to all supernodes; a restricted ascending list solves the
/// corresponding principal subsystem.
void solve_2d(Dist2dFactors& F, sim::ProcessGrid2D& grid, std::span<real_t> x,
              const Solve2dOptions& options = {});

}  // namespace slu3d
