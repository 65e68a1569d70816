// Distributed triangular solves on the *3D* factor layout produced by
// factorize_3d — no gathering: each supernode's blocks stay on its anchor
// grid. Forward substitution routes partial products across grids
// point-to-point (an L block of supernode s lives on anchor(s), its
// target ancestor's diagonal owner on anchor(a)); backward substitution
// broadcasts each solved slice down its replication group along z and
// then along the plane column, reaching every descendant's U blocks. A
// log-depth allgatherv (Comm::allgatherv) finally hands every rank the
// whole solution. At Pz = 1 the layout is SuperLU_DIST's 2D block-cyclic
// one and this is the pdgstrs counterpart.
//
// Schedule. Every rank visits supernodes in one static order built from
// the ND tree (SolveSchedule in solve3d.cpp): the forward sweep by
// ascending tree height, the backward sweep by ascending depth, ties by
// id. The leaves of every subtree start at once instead of waiting behind
// the separators of earlier subtrees, as they would in postorder. Messages,
// bytes and the ascending-c accumulation at each diagonal owner do not
// depend on the order, so solutions are bitwise those of a postorder walk.
// Matching rule: a rank that sends one diagonal owner backward
// contributions for several descendants on the same (source, btag(s))
// pair sends them in the receiver's visiting order
// (SolveSchedule::out_of), not in descending c.
//
// The paper factors in 3D but stops short of a 3D solve (that is
// follow-up work); this implements the natural extension.
#pragma once

#include <span>

#include "lu3d/factor3d.hpp"

namespace slu3d {

struct Solve3dOptions {
  /// Base message tag; callers issuing several solves on the same resident
  /// grid must keep bases at least solve3d_tag_span(bs) apart.
  int tag_base = (1 << 24);
  /// Number of right-hand-side columns solved in one sweep. `x` is then an
  /// n x nrhs column-major panel; one set of z-messages and broadcasts
  /// serves the whole batch (message counts are independent of nrhs).
  index_t nrhs = 1;
};

/// Number of distinct message tags one solve_3d call may consume starting
/// at `tag_base`. Queued solves on the same resident grid must advance
/// tag_base by at least this span between calls so tag ranges never
/// collide.
int solve3d_tag_span(const BlockStructure& bs);

/// Solves L U X = B in the permuted index space on the 3D-factored `F`.
/// Collective over `world` (all Px*Py*Pz ranks). Every rank passes the
/// full permuted right-hand side panel in `x` (n x nrhs column-major); on
/// return every rank holds the full solution panel.
void solve_3d(Dist2dFactors& F, sim::Comm& world, sim::ProcessGrid3D& grid,
              const ForestPartition& part, std::span<real_t> x,
              const Solve3dOptions& options = {});

}  // namespace slu3d
