// Algorithm 1: the 3D sparse LU factorization. Each 2D grid factors its
// local elimination forests level by level (via the dSparseLU2D primitive,
// factorize_2d), accumulating Schur-complement updates into its replicated
// copies of the common-ancestor blocks; after each level, copies are
// pairwise reduced along the z-axis (Ancestor-Reduction) onto the
// surviving grid. factorize_3d takes factorize_2d's LuOptions: the
// lookahead runs every level's 2D pipeline, and the one Wire picks the
// format of both the panel transfers and the Ancestor-Reduction.
#pragma once

#include <optional>

#include "lu2d/factor2d.hpp"
#include "lu3d/forest_partition.hpp"

namespace slu3d {

/// Creates the per-rank factor storage for the 3D layout: grid pz
/// allocates only its local trees plus the replicated ancestors
/// (ForestPartition::mask_for), fills it with the permuted matrix, and
/// zeroes replicated copies on non-anchor grids so that the z-axis
/// reduction sums to A + all updates ("initialize A(S) with zeros",
/// §III-A).
Dist2dFactors make_3d_factors(const BlockStructure& bs,
                              sim::ProcessGrid3D& grid,
                              const ForestPartition& part,
                              const CsrMatrix& Ap);

/// Numeric *refactorization* reset: reuses the existing allocation of a
/// previously analyzed layout, refilling it with a new matrix of the same
/// sparsity pattern (zero everything, scatter Ap, re-zero the replicated
/// non-anchor ancestor copies). After this, factorize_3d may run again
/// with no new ordering or symbolic analysis.
void refill_3d_factors(Dist2dFactors& F, sim::ProcessGrid3D& grid,
                       const ForestPartition& part, const CsrMatrix& Ap);

/// Runs Algorithm 1. Collective over the whole 3D grid. On return, the
/// factored blocks of each supernode live on its anchor grid.
void factorize_3d(Dist2dFactors& F, sim::ProcessGrid3D& grid,
                  const ForestPartition& part, const LuOptions& options = {});

/// Gathers the factored supernodal matrix onto world rank 0 (pz=0, px=0,
/// py=0), taking each supernode from its anchor grid. Collective over
/// `world`; returns a value only on world rank 0.
std::optional<SupernodalMatrix> gather_3d_to_root(const Dist2dFactors& F,
                                                  sim::Comm& world,
                                                  sim::ProcessGrid3D& grid,
                                                  const ForestPartition& part);

}  // namespace slu3d
