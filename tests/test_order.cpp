#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>

#include "order/nested_dissection.hpp"
#include "order/parallel_nd.hpp"
#include "sparse/generators.hpp"

namespace slu3d {
namespace {

/// The invariant nested dissection must deliver for LU correctness: any
/// edge of the (permuted, symmetrized) graph connects two vertices whose
/// owning tree nodes are ancestor-related.
void expect_edges_respect_tree(const CsrMatrix& A, const SeparatorTree& tree) {
  const CsrMatrix Ap =
      A.permuted_symmetric(tree.perm()).symmetrized_pattern();
  // Map vertex -> owning node.
  std::vector<int> owner(static_cast<std::size_t>(tree.n()), -1);
  for (int v = 0; v < tree.n_nodes(); ++v) {
    const auto& nd = tree.node(v);
    for (index_t c = nd.sep_first; c < nd.sep_last; ++c)
      owner[static_cast<std::size_t>(c)] = v;
  }
  auto is_ancestor = [&](int a, int b) {  // a ancestor-or-equal of b
    return tree.node(a).subtree_first <= tree.node(b).subtree_first &&
           tree.node(b).sep_last <= tree.node(a).sep_last;
  };
  for (index_t i = 0; i < Ap.n_rows(); ++i) {
    for (index_t j : Ap.row_cols(i)) {
      if (i == j) continue;
      const int a = owner[static_cast<std::size_t>(i)];
      const int b = owner[static_cast<std::size_t>(j)];
      ASSERT_TRUE(is_ancestor(a, b) || is_ancestor(b, a))
          << "edge (" << i << "," << j << ") crosses unrelated tree nodes";
    }
  }
}

class NdOnSuite : public ::testing::TestWithParam<int> {};

TEST_P(NdOnSuite, TreeInvariantsAndSeparatorProperty) {
  const auto suite = paper_test_suite(0);
  const auto& t = suite[static_cast<std::size_t>(GetParam())];
  const SeparatorTree tree = nested_dissection(t.A, {.leaf_size = 8});
  EXPECT_TRUE(is_permutation(tree.perm()));
  expect_edges_respect_tree(t.A, tree);
}

INSTANTIATE_TEST_SUITE_P(AllMatrices, NdOnSuite, ::testing::Range(0, 10),
                         [](const auto& param_info) {
                           return paper_test_suite(0)[static_cast<std::size_t>(param_info.param)].name;
                         });

TEST(NestedDissection, BalancedOnSquareGrid) {
  const GridGeometry g{24, 24, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = nested_dissection(A, {.leaf_size = 16});
  const auto& root = tree.node(tree.root());
  ASSERT_FALSE(root.is_leaf());
  const auto l = tree.node(root.left).subtree_size();
  const auto r = tree.node(root.right).subtree_size();
  // Level-set separators are not perfectly balanced, but should be sane.
  EXPECT_GT(std::min(l, r), g.n() / 5);
  // Top separator should be O(sqrt(n)), allow generous slack.
  EXPECT_LE(root.block_size(), 4 * 24);
}

TEST(NestedDissection, HandlesDisconnectedGraph) {
  // Two disjoint paths.
  CooMatrix coo(10, 10);
  for (index_t i = 0; i < 4; ++i) {
    coo.add(i, i + 1, -1);
    coo.add(i + 1, i, -1);
  }
  for (index_t i = 5; i < 9; ++i) {
    coo.add(i, i + 1, -1);
    coo.add(i + 1, i, -1);
  }
  for (index_t i = 0; i < 10; ++i) coo.add(i, i, 4);
  const CsrMatrix A = CsrMatrix::from_coo(coo);
  const SeparatorTree tree = nested_dissection(A, {.leaf_size = 2});
  EXPECT_TRUE(is_permutation(tree.perm()));
  expect_edges_respect_tree(A, tree);
}

TEST(NestedDissection, SingletonAndTinyGraphs) {
  CooMatrix coo(1, 1);
  coo.add(0, 0, 1.0);
  const CsrMatrix A = CsrMatrix::from_coo(coo);
  const SeparatorTree tree = nested_dissection(A);
  EXPECT_EQ(tree.n_nodes(), 1);
  EXPECT_TRUE(tree.node(tree.root()).is_leaf());
}

TEST(NestedDissection, CompleteGraphBecomesLeaf) {
  const index_t n = 12;
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) coo.add(i, j, i == j ? 20.0 : -1.0);
  const CsrMatrix A = CsrMatrix::from_coo(coo);
  const SeparatorTree tree = nested_dissection(A, {.leaf_size = 4});
  // Diameter 1: cannot be split, must degrade gracefully to a leaf.
  EXPECT_EQ(tree.n_nodes(), 1);
}

TEST(NestedDissection, RejectsLeafSizeBelowOne) {
  // A leaf below 1 used to dissect the 12x12 grid into a tree of many
  // nodes without complaint; every entry point must name the bad value.
  const GridGeometry g{12, 12, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  auto expect_rejects = [](index_t leaf, const std::function<void()>& call) {
    try {
      call();
      ADD_FAILURE() << "leaf_size " << leaf << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("leaf_size " + std::to_string(leaf)),
                std::string::npos)
          << e.what();
    }
  };
  for (const index_t leaf : {0, -3}) {
    const NdOptions opts{.leaf_size = leaf};
    expect_rejects(leaf, [&] { nested_dissection(A, opts); });
    expect_rejects(leaf, [&] { geometric_nd(g, opts); });
    expect_rejects(leaf, [&] {
      sim::run_ranks(2, sim::MachineModel{}, [&](sim::Comm& world) {
        parallel_nested_dissection(A, world, opts);
      });
    });
  }
}

TEST(GeometricNd, ExactSeparatorSizesOnGrid) {
  const GridGeometry g{31, 31, 1};
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 16});
  EXPECT_TRUE(is_permutation(tree.perm()));
  const auto& root = tree.node(tree.root());
  EXPECT_EQ(root.block_size(), 31);  // one full grid line
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  expect_edges_respect_tree(A, tree);
}

TEST(GeometricNd, WorksFor3dAndNinePoint) {
  const GridGeometry g3{7, 7, 7};
  const SeparatorTree t3 = geometric_nd(g3, {.leaf_size = 8});
  EXPECT_EQ(t3.node(t3.root()).block_size(), 49);  // a full plane
  const CsrMatrix A3 = grid3d_laplacian(g3, Stencil3D::TwentySevenPoint);
  expect_edges_respect_tree(A3, t3);

  const GridGeometry g2{9, 9, 1};
  const CsrMatrix A9 = grid2d_laplacian(g2, Stencil2D::NinePoint);
  expect_edges_respect_tree(A9, geometric_nd(g2, {.leaf_size = 4}));
}

TEST(GeometricNd, LeafSizeRespected) {
  const GridGeometry g{16, 16, 1};
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 10});
  for (int v = 0; v < tree.n_nodes(); ++v) {
    if (tree.node(v).is_leaf()) {
      EXPECT_LE(tree.node(v).block_size(), 10);
    }
  }
}

TEST(Rcm, ProducesValidPermutationAndReducesBandwidth) {
  const GridGeometry g{12, 12, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const auto perm = rcm_ordering(A);
  EXPECT_TRUE(is_permutation(perm));
  auto bandwidth = [](const CsrMatrix& M) {
    index_t bw = 0;
    for (index_t i = 0; i < M.n_rows(); ++i)
      for (index_t j : M.row_cols(i)) bw = std::max(bw, std::abs(i - j));
    return bw;
  };
  // Scramble, then RCM should bring bandwidth back near the grid's nx.
  std::vector<index_t> scramble(static_cast<std::size_t>(A.n_rows()));
  for (std::size_t i = 0; i < scramble.size(); ++i)
    scramble[i] = static_cast<index_t>((17 * i + 5) % scramble.size());
  const CsrMatrix S = A.permuted_symmetric(scramble);
  const CsrMatrix R = S.permuted_symmetric(rcm_ordering(S));
  EXPECT_LT(bandwidth(R), bandwidth(S));
  EXPECT_LE(bandwidth(R), 3 * 12);
}

}  // namespace
}  // namespace slu3d
