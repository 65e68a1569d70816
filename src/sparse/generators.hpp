// Synthetic matrix generators covering the structural classes of the
// paper's Table III test suite (see DESIGN.md for the mapping). All
// generators produce diagonally dominant values so that LU with static
// (no) pivoting — SuperLU_DIST's mode — is numerically stable.
#pragma once

#include <cstdint>
#include <string>

#include "sparse/csr.hpp"
#include "support/types.hpp"

namespace slu3d {

/// Regular-grid geometry attached to generated matrices; geometric nested
/// dissection exploits it. Vertex (x, y, z) has index x + nx*(y + ny*z).
struct GridGeometry {
  index_t nx = 0;
  index_t ny = 0;
  index_t nz = 1;  ///< 1 for planar problems

  index_t n() const { return nx * ny * nz; }
  index_t vertex(index_t x, index_t y, index_t z) const {
    return x + nx * (y + ny * z);
  }
  bool planar() const { return nz == 1; }
};

enum class Stencil2D { FivePoint, NinePoint };
enum class Stencil3D { SevenPoint, TwentySevenPoint };

/// 2D Poisson-like grid matrix (paper's K2D5pt / S2D9pt class).
/// `diag_boost` > 0 makes the matrix strictly diagonally dominant.
CsrMatrix grid2d_laplacian(GridGeometry geom, Stencil2D stencil,
                           real_t diag_boost = 0.05);

/// 3D Poisson-like grid matrix (Serena / audikw_1 / dielFilter class;
/// thin slabs with small nz model ldoor's "nearly planar" geometry).
CsrMatrix grid3d_laplacian(GridGeometry geom, Stencil3D stencil,
                           real_t diag_boost = 0.05);

/// 2D convection-diffusion: 5-point pattern with *nonsymmetric values*
/// (upwinded convection), so U is not the D Lᵀ of a symmetric matrix.
CsrMatrix grid2d_convection_diffusion(GridGeometry geom, real_t convection,
                                      real_t diag_boost = 0.05);

/// Anisotropic 2D Laplacian: x-coupling weighted `epsilon` relative to
/// y-coupling. Strong anisotropy stresses ordering heuristics (separators
/// should cut the weak direction).
CsrMatrix grid2d_anisotropic(GridGeometry geom, real_t epsilon,
                             real_t diag_boost = 0.05);

/// Shifted (Helmholtz-like) 2D operator: Laplacian minus `shift` on the
/// diagonal. For shifts above the smallest Laplacian eigenvalue the
/// matrix is symmetric *indefinite* — the stress case for static
/// pivoting + iterative refinement.
CsrMatrix grid2d_helmholtz(GridGeometry geom, real_t shift);

/// Circuit-style matrix (G3_circuit / ecology1 class): 2D grid plus
/// `extra_edges` random short-range branches. Remains essentially planar.
CsrMatrix circuit2d(GridGeometry geom, index_t extra_edges, std::uint64_t seed,
                    real_t diag_boost = 0.05);

/// KKT-style saddle-point matrix built on a 3D grid (nlpkkt80 class):
///   [ H  Aᵀ ]         H = 3D 7-pt Laplacian + shift,
///   [ A  -D ]         A = grid coupling, D = regularization diagonal.
/// Returned dimension is 2 * geom.n(). Values are scaled so the matrix is
/// (block) diagonally dominant and safe for static pivoting.
CsrMatrix kkt3d(GridGeometry geom, std::uint64_t seed);

/// A named test matrix together with its geometry (when it has one) — the
/// unit the bench harness iterates over.
struct TestMatrix {
  std::string name;
  CsrMatrix A;
  GridGeometry geom;       ///< nx == 0 when no grid geometry applies
  bool planar = false;     ///< paper's planar / non-planar classification
};

/// The scaled-down equivalent of the paper's Table III test suite.
/// `scale` in {0, 1, 2}: 0 = tiny (unit tests), 1 = default bench size,
/// 2 = large bench size.
std::vector<TestMatrix> paper_test_suite(int scale = 1);

}  // namespace slu3d
