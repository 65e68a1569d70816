#include <gtest/gtest.h>

#include <cmath>

#include "numeric/seq_lu.hpp"
#include "numeric/solver.hpp"
#include "order/nested_dissection.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"

namespace slu3d {
namespace {

/// Checks L * U == P A Pᵀ entry-wise via the factor accessors (small n).
void expect_lu_reconstructs(const SupernodalMatrix& F, const CsrMatrix& Ap,
                            real_t tol) {
  const index_t n = Ap.n_rows();
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      real_t acc = 0.0;
      const index_t kmax = std::min(i, j);
      for (index_t k = 0; k <= kmax; ++k)
        acc += F.l_entry(i, k) * F.u_entry(k, j);
      EXPECT_NEAR(acc, Ap.at(i, j), tol) << "at (" << i << "," << j << ")";
    }
  }
}

TEST(SeqLu, ReconstructsSmallGridMatrix) {
  const GridGeometry g{6, 6, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = nested_dissection(A, {.leaf_size = 4});
  const BlockStructure bs(A, tree);
  SupernodalMatrix F(bs);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  F.fill_from(Ap);
  factorize_sequential(F);
  expect_lu_reconstructs(F, Ap, 1e-10);
}

TEST(SeqLu, ReconstructsNonsymmetricValues) {
  const GridGeometry g{5, 7, 1};
  const CsrMatrix A = grid2d_convection_diffusion(g, 0.6);
  const SeparatorTree tree = nested_dissection(A, {.leaf_size = 4});
  const BlockStructure bs(A, tree);
  SupernodalMatrix F(bs);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  F.fill_from(Ap);
  factorize_sequential(F);
  expect_lu_reconstructs(F, Ap, 1e-10);
}

TEST(SeqLu, ReconstructsWithGeometricNd) {
  const GridGeometry g{4, 4, 4};
  const CsrMatrix A = grid3d_laplacian(g, Stencil3D::SevenPoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 8});
  const BlockStructure bs(A, tree);
  SupernodalMatrix F(bs);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  F.fill_from(Ap);
  factorize_sequential(F);
  expect_lu_reconstructs(F, Ap, 1e-10);
}

class SolverOnSuite : public ::testing::TestWithParam<int> {};

TEST_P(SolverOnSuite, SolvesToTightResidual) {
  const auto suite = paper_test_suite(0);
  const auto& t = suite[static_cast<std::size_t>(GetParam())];
  SolverOptions opt;
  opt.nd.leaf_size = 16;
  const SparseLuSolver solver(t.A, opt);
  const auto n = static_cast<std::size_t>(t.A.n_rows());
  Rng rng(13);
  std::vector<real_t> xref(n), b(n), x(n);
  for (auto& v : xref) v = rng.uniform(-1, 1);
  t.A.spmv(xref, b);
  const SolveReport rep = solver.solve(b, x);
  EXPECT_LT(rep.final_residual_norm, 1e-12) << t.name;
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(x[i], xref[i], 1e-6) << t.name << " component " << i;
}

INSTANTIATE_TEST_SUITE_P(AllMatrices, SolverOnSuite, ::testing::Range(0, 10),
                         [](const auto& param_info) {
                           return paper_test_suite(0)[static_cast<std::size_t>(param_info.param)].name;
                         });

TEST(Solver, GeometricOrderingPath) {
  const GridGeometry g{12, 10, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  SolverOptions opt;
  opt.geometry = g;
  const SparseLuSolver solver(A, opt);
  const auto n = static_cast<std::size_t>(A.n_rows());
  std::vector<real_t> b(n, 1.0), x(n);
  const auto rep = solver.solve(b, x);
  EXPECT_LT(rep.final_residual_norm, 1e-13);
}

TEST(Solver, ReportsStatistics) {
  const GridGeometry g{8, 8, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SparseLuSolver solver(A);
  EXPECT_GT(solver.factor_nnz(), A.nnz());
  EXPECT_GT(solver.factor_flops(), solver.factor_nnz());
  EXPECT_GT(solver.factors().allocated_bytes(),
            static_cast<offset_t>(sizeof(real_t)) * solver.factor_nnz() / 2);
}

TEST(Solver, RejectsRectangular) {
  CooMatrix coo(2, 3);
  coo.add(0, 0, 1);
  const CsrMatrix A = CsrMatrix::from_coo(coo);
  EXPECT_THROW(SparseLuSolver{A}, Error);
}

TEST(Solver, RefinementImprovesIllConditioned) {
  // Mildly stressed: convection-diffusion with strong convection.
  const GridGeometry g{16, 16, 1};
  const CsrMatrix A = grid2d_convection_diffusion(g, 0.9, /*diag_boost=*/0.0);
  SolverOptions opt;
  opt.refinement_steps = 3;
  const SparseLuSolver solver(A, opt);
  const auto n = static_cast<std::size_t>(A.n_rows());
  Rng rng(21);
  std::vector<real_t> xref(n), b(n), x(n);
  for (auto& v : xref) v = rng.uniform(-1, 1);
  A.spmv(xref, b);
  const auto rep = solver.solve(b, x);
  EXPECT_LT(rep.final_residual_norm, 1e-12);
}

TEST(Solver, ReportsResidualOfReturnedSolution) {
  // A refinement step that fails to lower the residual still leaves its
  // x in place, so the report must describe that x.
  const GridGeometry g{8, 8, 1};
  const CsrMatrix A = grid2d_convection_diffusion(g, 0.95);
  SolverOptions opt;
  opt.refinement_steps = 3;
  const SparseLuSolver solver(A, opt);
  const auto n = static_cast<std::size_t>(A.n_rows());
  Rng rng(195);
  std::vector<real_t> x_true(n), b(n), x(n);
  for (auto& v : x_true) v = rng.uniform(-1, 1);
  A.spmv(x_true, b);
  const auto rep = solver.solve(b, x);
  EXPECT_EQ(rep.final_residual_norm, relative_residual(A, x, b));
}

TEST(SeqLu, RestrictedSnodeListMatchesFull) {
  // Factoring [0..k) then [k..end) must equal factoring everything at once.
  const GridGeometry g{8, 8, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = nested_dissection(A, {.leaf_size = 6});
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());

  SupernodalMatrix Ffull(bs);
  Ffull.fill_from(Ap);
  factorize_sequential(Ffull);

  SupernodalMatrix Fsplit(bs);
  Fsplit.fill_from(Ap);
  std::vector<int> first_half, second_half;
  for (int s = 0; s < bs.n_snodes(); ++s)
    (s < bs.n_snodes() / 2 ? first_half : second_half).push_back(s);
  factorize_snodes_sequential(Fsplit, first_half);
  factorize_snodes_sequential(Fsplit, second_half);

  for (index_t i = 0; i < bs.n(); ++i)
    for (index_t j = 0; j <= i; ++j) {
      EXPECT_NEAR(Ffull.l_entry(i, j), Fsplit.l_entry(i, j), 1e-14);
      EXPECT_NEAR(Ffull.u_entry(j, i), Fsplit.u_entry(j, i), 1e-14);
    }
}

}  // namespace
}  // namespace slu3d
