#include <gtest/gtest.h>

#include <cmath>

#include "numeric/solver.hpp"
#include "order/graph.hpp"
#include "order/multilevel.hpp"
#include "order/nested_dissection.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"
#include "symbolic/etree.hpp"

namespace slu3d {
namespace {

void expect_edges_respect_tree(const CsrMatrix& A, const SeparatorTree& tree) {
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm()).symmetrized_pattern();
  std::vector<int> owner(static_cast<std::size_t>(tree.n()), -1);
  for (int v = 0; v < tree.n_nodes(); ++v) {
    const auto& nd = tree.node(v);
    for (index_t c = nd.sep_first; c < nd.sep_last; ++c)
      owner[static_cast<std::size_t>(c)] = v;
  }
  auto is_anc = [&](int a, int b) {
    return tree.node(a).subtree_first <= tree.node(b).subtree_first &&
           tree.node(b).sep_last <= tree.node(a).sep_last;
  };
  for (index_t i = 0; i < Ap.n_rows(); ++i)
    for (index_t j : Ap.row_cols(i)) {
      if (i == j) continue;
      const int a = owner[static_cast<std::size_t>(i)];
      const int b = owner[static_cast<std::size_t>(j)];
      ASSERT_TRUE(is_anc(a, b) || is_anc(b, a));
    }
}

TEST(MultilevelBisect, BalancedCutOnGrid) {
  const GridGeometry g{24, 24, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const auto adj = order_detail::build_adjacency(A);
  std::vector<index_t> verts(static_cast<std::size_t>(A.n_rows()));
  for (std::size_t i = 0; i < verts.size(); ++i)
    verts[i] = static_cast<index_t>(i);
  const auto bis = order_detail::multilevel_bisect(adj, verts);
  ASSERT_TRUE(bis.has_value());
  EXPECT_EQ(bis->a.size() + bis->b.size(), verts.size());
  // Balance within the FM constraint (each side >= 1/3).
  EXPECT_GE(bis->a.size(), verts.size() / 3);
  EXPECT_GE(bis->b.size(), verts.size() / 3);
  // Cut of a 24x24 grid bisection should be close to one grid line.
  EXPECT_LE(bis->cut_weight, 3 * 24);
}

TEST(MultilevelBisect, TinyGraphs) {
  CooMatrix coo(2, 2);
  coo.add(0, 1, -1);
  coo.add(1, 0, -1);
  coo.add(0, 0, 2);
  coo.add(1, 1, 2);
  const CsrMatrix A = CsrMatrix::from_coo(coo);
  const auto adj = order_detail::build_adjacency(A);
  const std::vector<index_t> verts{0, 1};
  const auto bis = order_detail::multilevel_bisect(adj, verts);
  ASSERT_TRUE(bis.has_value());
  EXPECT_EQ(bis->a.size(), 1u);
  EXPECT_EQ(bis->b.size(), 1u);
}

class MultilevelNdOnSuite : public ::testing::TestWithParam<int> {};

TEST_P(MultilevelNdOnSuite, ValidTreeAndSolves) {
  const auto suite = paper_test_suite(0);
  const auto& t = suite[static_cast<std::size_t>(GetParam())];
  NdOptions opt;
  opt.leaf_size = 8;
  opt.algorithm = NdAlgorithm::Multilevel;
  const SeparatorTree tree = nested_dissection(t.A, opt);
  EXPECT_TRUE(is_permutation(tree.perm()));
  expect_edges_respect_tree(t.A, tree);

  SolverOptions sopt;
  sopt.nd = opt;
  const SparseLuSolver solver(t.A, sopt);
  const auto n = static_cast<std::size_t>(t.A.n_rows());
  Rng rng(91);
  std::vector<real_t> xref(n), b(n), x(n);
  for (auto& v : xref) v = rng.uniform(-1, 1);
  t.A.spmv(xref, b);
  const auto rep = solver.solve(b, x);
  EXPECT_LT(rep.final_residual_norm, 1e-12) << t.name;
}

INSTANTIATE_TEST_SUITE_P(AllMatrices, MultilevelNdOnSuite,
                         ::testing::Range(0, 10), [](const auto& pi) {
                           return paper_test_suite(0)[static_cast<std::size_t>(pi.param)].name;
                         });

TEST(MultilevelNd, CompetitiveFillOnIrregularGraph) {
  // On the circuit-class graph (irregular), the multilevel ordering should
  // be at least in the same ballpark as level-set ND — typically better.
  const GridGeometry g{40, 40, 1};
  const CsrMatrix A = circuit2d(g, g.n() / 8, 11);

  NdOptions lvl;
  lvl.leaf_size = 16;
  NdOptions ml = lvl;
  ml.algorithm = NdAlgorithm::Multilevel;
  const offset_t fill_lvl =
      scalar_factor_nnz(A.permuted_symmetric(nested_dissection(A, lvl).perm()));
  const offset_t fill_ml =
      scalar_factor_nnz(A.permuted_symmetric(nested_dissection(A, ml).perm()));
  EXPECT_LT(fill_ml, fill_lvl * 3 / 2);
}

TEST(MultilevelNd, DeterministicAcrossRuns) {
  const GridGeometry g{16, 16, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  NdOptions opt;
  opt.algorithm = NdAlgorithm::Multilevel;
  const SeparatorTree t1 = nested_dissection(A, opt);
  const SeparatorTree t2 = nested_dissection(A, opt);
  ASSERT_EQ(t1.perm().size(), t2.perm().size());
  for (std::size_t i = 0; i < t1.perm().size(); ++i)
    EXPECT_EQ(t1.perm()[i], t2.perm()[i]);
}

}  // namespace
}  // namespace slu3d
