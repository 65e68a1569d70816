// Algorithm 1: the 3D sparse LU factorization. Each 2D grid factors its
// local elimination forests level by level (via the dSparseLU2D primitive,
// factorize_2d), accumulating Schur-complement updates into its replicated
// copies of the common-ancestor blocks; after each level, copies are
// pairwise reduced along the z-axis (Ancestor-Reduction) onto the
// surviving grid.
#pragma once

#include <optional>

#include "lu2d/factor2d.hpp"
#include "lu3d/forest_partition.hpp"

namespace slu3d {

/// How the z-axis ancestor-reduction payloads are packed on the wire.
enum class ZRedPacking {
  /// Every allocated ancestor block travels, zeros included — the paper's
  /// scheme, byte-identical to the historical drivers.
  Dense,
  /// Each ancestor's contribution travels as one frame (encode_frame) on
  /// the same pairwise message — a scalar-granularity presence bitmap plus
  /// the nonzero scalars — so every zero of the replicated copy is elided,
  /// inside touched blocks too. Numerically identical: the owner expands
  /// the frame and adds the dense stream in the same order as Dense.
  /// Both wires send the same messages; the saving is a Dense run's Z
  /// bytes minus a Targeted run's.
  Targeted,
};

/// 3D driver options: the wire format of the per-level z-axis ancestor
/// reduction plus the 2D panel-pipeline options applied at every forest
/// level. factorize_3d validates the packing on entry (and factorize_2d
/// the panel options).
struct Lu3dOptions {
  ZRedPacking packing = ZRedPacking::Dense;
  Lu2dOptions lu2d;
};

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
                  const ForestPartition& part, const Lu3dOptions& options = {});

/// Gathers the factored supernodal matrix onto world rank 0 (pz=0, px=0,
/// py=0), taking each supernode from its anchor grid. Collective over
/// `world`; returns a value only on world rank 0.
std::optional<SupernodalMatrix> gather_3d_to_root(const Dist2dFactors& F,
                                                  sim::Comm& world,
                                                  sim::ProcessGrid3D& grid,
                                                  const ForestPartition& part);

}  // namespace slu3d
