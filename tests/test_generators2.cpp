// Tests for the extended generator set (anisotropic, Helmholtz) and the
// solver behaviours they are designed to stress.
#include <gtest/gtest.h>

#include <cmath>

#include "numeric/solver.hpp"
#include "order/nested_dissection.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"
#include "symbolic/etree.hpp"

namespace slu3d {
namespace {

TEST(Anisotropic, WeightsMatchEpsilon) {
  const GridGeometry g{6, 6, 1};
  const CsrMatrix A = grid2d_anisotropic(g, 0.01);
  EXPECT_DOUBLE_EQ(A.at(g.vertex(2, 2, 0), g.vertex(3, 2, 0)), -0.01);
  EXPECT_DOUBLE_EQ(A.at(g.vertex(2, 2, 0), g.vertex(2, 3, 0)), -1.0);
  EXPECT_TRUE(A.pattern_is_symmetric());
}

TEST(Anisotropic, SolvesAccurately) {
  const GridGeometry g{20, 20, 1};
  for (real_t eps : {1e-3, 1.0, 1e3}) {
    const CsrMatrix A = grid2d_anisotropic(g, eps);
    const SparseLuSolver solver(A);
    const auto n = static_cast<std::size_t>(A.n_rows());
    Rng rng(141);
    std::vector<real_t> xref(n), b(n), x(n);
    for (auto& v : xref) v = rng.uniform(-1, 1);
    A.spmv(xref, b);
    const auto rep = solver.solve(b, x);
    EXPECT_LT(rep.final_residual_norm, 1e-12) << "eps = " << eps;
  }
}

TEST(Helmholtz, ShiftMakesItIndefiniteButSolvable) {
  const GridGeometry g{16, 16, 1};
  // Shift well inside the spectrum: indefinite, still nonsingular for a
  // generic shift.
  const real_t shift = 1.37;
  const CsrMatrix A = grid2d_helmholtz(g, shift);
  const auto n = static_cast<std::size_t>(A.n_rows());
  // Indefinite: the graph Laplacian's rows sum to zero, so
  // onesᵀ A ones = -shift n < 0, while A(0,0) > 0.
  std::vector<real_t> ones(n, 1.0), a_ones(n);
  A.spmv(ones, a_ones);
  real_t quad = 0.0;
  for (const real_t v : a_ones) quad += v;
  EXPECT_NEAR(quad, -shift * static_cast<real_t>(n), 1e-9);
  EXPECT_GT(A.at(0, 0), 0.0);
  // ...but LU with refinement solves it.
  SolverOptions opt;
  opt.refinement_steps = 3;
  const SparseLuSolver solver(A, opt);
  Rng rng(143);
  std::vector<real_t> xref(n), b(n), x(n);
  for (auto& v : xref) v = rng.uniform(-1, 1);
  A.spmv(xref, b);
  const auto rep = solver.solve(b, x);
  EXPECT_LT(rep.final_residual_norm, 1e-10);
}

TEST(Helmholtz, ZeroShiftIsTheLaplacian) {
  const GridGeometry g{5, 4, 1};
  const CsrMatrix H = grid2d_helmholtz(g, 0.0);
  const CsrMatrix L = grid2d_laplacian(g, Stencil2D::FivePoint, 0.0);
  for (index_t i = 0; i < H.n_rows(); ++i)
    for (index_t j : H.row_cols(i)) EXPECT_DOUBLE_EQ(H.at(i, j), L.at(i, j));
}

TEST(Anisotropic, FillStaysBoundedAcrossAnisotropy) {
  // Ordering quality should not collapse under anisotropy: fill within a
  // small factor of the isotropic case.
  const GridGeometry g{24, 24, 1};
  const offset_t iso = scalar_factor_nnz(
      grid2d_anisotropic(g, 1.0).permuted_symmetric(
          nested_dissection(grid2d_anisotropic(g, 1.0), {.leaf_size = 16})
              .perm()));
  const CsrMatrix Aeps = grid2d_anisotropic(g, 1e-4);
  const offset_t aniso = scalar_factor_nnz(Aeps.permuted_symmetric(
      nested_dissection(Aeps, {.leaf_size = 16}).perm()));
  EXPECT_LT(aniso, 3 * iso);
}

}  // namespace
}  // namespace slu3d
