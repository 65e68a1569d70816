#include <gtest/gtest.h>

#include <algorithm>

#include "order/nested_dissection.hpp"
#include "sparse/generators.hpp"
#include "symbolic/block_structure.hpp"
#include "symbolic/etree.hpp"

namespace slu3d {
namespace {

/// Dense reference symbolic Cholesky on the pattern of A + Aᵀ: O(n^3) but
/// obviously correct.
std::vector<std::vector<index_t>> dense_symbolic(const CsrMatrix& A) {
  const index_t n = A.n_rows();
  std::vector<std::vector<bool>> full(static_cast<std::size_t>(n),
                                      std::vector<bool>(static_cast<std::size_t>(n), false));
  for (index_t i = 0; i < n; ++i)
    for (index_t j : A.row_cols(i)) {
      full[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = true;
      full[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = true;
    }
  for (index_t k = 0; k < n; ++k)
    for (index_t i = k + 1; i < n; ++i)
      if (full[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)])
        for (index_t j = k + 1; j < n; ++j)
          if (full[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)])
            full[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = true;
  std::vector<std::vector<index_t>> cols(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j + 1; i < n; ++i)
      if (full[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)])
        cols[static_cast<std::size_t>(j)].push_back(i);
  return cols;
}

TEST(Etree, KnownSmallExample) {
  // Arrow matrix: every vertex connects to the last one; etree is a path
  // onto n-1? No: parent of each i < n-1 is n-1 directly.
  const index_t n = 6;
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 4);
    if (i + 1 < n) {
      coo.add(i, n - 1, -1);
      coo.add(n - 1, i, -1);
    }
  }
  const auto parent = elimination_tree(CsrMatrix::from_coo(coo));
  for (index_t i = 0; i + 1 < n; ++i) {
    EXPECT_EQ(parent[static_cast<std::size_t>(i)], n - 1);
  }
  EXPECT_EQ(parent[static_cast<std::size_t>(n - 1)], -1);
}

TEST(Etree, PostorderVisitsChildrenFirst) {
  const GridGeometry g{6, 6, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const auto parent = elimination_tree(A);
  const auto post = tree_postorder(parent);
  std::vector<int> position(post.size());
  for (std::size_t k = 0; k < post.size(); ++k)
    position[static_cast<std::size_t>(post[k])] = static_cast<int>(k);
  for (std::size_t v = 0; v < parent.size(); ++v) {
    if (parent[v] >= 0) {
      EXPECT_LT(position[v], position[static_cast<std::size_t>(parent[v])]);
    }
  }
}

TEST(Etree, HeightOfPathGraph) {
  const index_t n = 10;
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 4);
    if (i + 1 < n) {
      coo.add(i, i + 1, -1);
      coo.add(i + 1, i, -1);
    }
  }
  const auto parent = elimination_tree(CsrMatrix::from_coo(coo));
  EXPECT_EQ(tree_height(parent), n);  // natural order path: a chain
}

TEST(SymbolicFill, MatchesDenseReferenceOnSuite) {
  for (const auto& t : paper_test_suite(0)) {
    if (t.A.n_rows() > 600) continue;  // keep the O(n^3) reference cheap
    const auto fast = symbolic_fill(t.A);
    const auto ref = dense_symbolic(t.A);
    ASSERT_EQ(fast.size(), ref.size()) << t.name;
    for (std::size_t j = 0; j < fast.size(); ++j)
      EXPECT_EQ(fast[j], ref[j]) << t.name << " column " << j;
  }
}

TEST(SymbolicFill, NnzCountConsistent) {
  const GridGeometry g{8, 8, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const auto cols = symbolic_fill(A);
  offset_t nnz = A.n_rows();
  for (const auto& c : cols) nnz += static_cast<offset_t>(c.size());
  EXPECT_EQ(nnz, scalar_factor_nnz(A));
  EXPECT_GE(nnz, A.nnz() / 2 + A.n_rows() / 2);  // at least the lower part of A
}

class BlockStructureOnSuite : public ::testing::TestWithParam<int> {};

TEST_P(BlockStructureOnSuite, Invariants) {
  const auto suite = paper_test_suite(0);
  const auto& t = suite[static_cast<std::size_t>(GetParam())];
  const SeparatorTree tree = nested_dissection(t.A, {.leaf_size = 8});
  const BlockStructure bs(t.A, tree);

  EXPECT_EQ(bs.n(), t.A.n_rows());
  // The pieces of each tree node cover its block in id order.
  const SnodeNumbering num = SnodeNumbering::from_tree(tree);
  for (int v = 0; v < tree.n_nodes(); ++v) {
    index_t col = tree.node(v).sep_first;
    for (int s = num.first_piece(v); s < num.beyond_piece(v); ++s) {
      EXPECT_EQ(bs.first_col(s), col);
      col += bs.snode_size(s);
    }
    EXPECT_EQ(col, tree.node(v).sep_last);
  }

  offset_t covered = 0;
  for (int s = 0; s < bs.n_snodes(); ++s) {
    covered += bs.snode_size(s);
    const index_t beyond = bs.first_col(s) + bs.snode_size(s);
    index_t last_row = -1;
    index_t total_rows = 0;
    for (const PanelBlock& blk : bs.lpanel(s)) {
      EXPECT_GT(blk.snode, s);  // strictly below the diagonal
      for (index_t r : blk.rows) {
        EXPECT_GT(r, last_row);  // globally sorted across blocks
        last_row = r;
        EXPECT_GE(r, beyond);
        EXPECT_EQ(bs.col_to_snode(r), blk.snode);
      }
      total_rows += blk.n_rows();
    }
    EXPECT_EQ(total_rows, bs.panel_rows(s));
    // ND parentage: every panel block's supernode is an ND ancestor.
    for (const PanelBlock& blk : bs.lpanel(s)) {
      int a = s;
      bool found = false;
      while ((a = bs.nd_parent(a)) >= 0)
        if (a == blk.snode) {
          found = true;
          break;
        }
      EXPECT_TRUE(found) << "panel block outside the ND ancestor path";
    }
  }
  EXPECT_EQ(covered, static_cast<offset_t>(bs.n()));
  EXPECT_GT(bs.total_flops(), 0);
  EXPECT_GT(bs.total_nnz(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllMatrices, BlockStructureOnSuite,
                         ::testing::Range(0, 10), [](const auto& param_info) {
                           return paper_test_suite(0)[static_cast<std::size_t>(param_info.param)].name;
                         });

TEST(BlockStructure, SupersetOfScalarFill) {
  // The relaxed (dense-block) structure must contain the exact scalar fill.
  const GridGeometry g{10, 10, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = nested_dissection(A, {.leaf_size = 6});
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  const auto scalar = symbolic_fill(Ap);
  for (index_t j = 0; j < A.n_rows(); ++j) {
    const int sj = bs.col_to_snode(j);
    const index_t beyond = bs.first_col(sj) + bs.snode_size(sj);
    for (index_t i : scalar[static_cast<std::size_t>(j)]) {
      if (i < beyond) continue;  // inside the dense diagonal block
      bool found = false;
      for (const PanelBlock& blk : bs.lpanel(sj))
        if (std::binary_search(blk.rows.begin(), blk.rows.end(), i)) {
          found = true;
          break;
        }
      EXPECT_TRUE(found) << "scalar fill (" << i << "," << j
                         << ") missing from block structure";
    }
  }
  // And the dense-block nnz must dominate the scalar count.
  EXPECT_GE(bs.total_nnz(), 2 * scalar_factor_nnz(Ap) - A.n_rows());
}

TEST(BlockStructure, EmptySeparatorTiesKeepRangesConsistent) {
  // Regression: many disconnected islands produce empty separator blocks
  // whose sep_first ties with the first node of the *next* branch; the
  // supernode renumbering must keep ranges, tree links, and panel blocks
  // mutually consistent (panel blocks must stay on the ND ancestor path).
  const index_t k = 14, m = 9;
  CooMatrix coo(k * m, k * m);
  for (index_t c = 0; c < k; ++c)
    for (index_t i = 0; i + 1 < m; ++i) {
      coo.add(c * m + i, c * m + i + 1, -1.0);
      coo.add(c * m + i + 1, c * m + i, -1.0);
    }
  for (index_t i = 0; i < k * m; ++i) coo.add(i, i, 3.0);
  const CsrMatrix A = CsrMatrix::from_coo(coo);
  const BlockStructure bs(A, nested_dissection(A, {.leaf_size = 4}));
  for (int s = 0; s < bs.n_snodes(); ++s) {
    for (const PanelBlock& blk : bs.lpanel(s)) {
      int a = s;
      bool found = false;
      while ((a = bs.nd_parent(a)) >= 0) {
        if (a == blk.snode) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "snode " << s << " panel block " << blk.snode
                         << " escapes the ancestor path";
    }
  }
}

TEST(BlockStructure, GeometricNdAgrees) {
  const GridGeometry g{9, 9, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const BlockStructure bs(A, geometric_nd(g, {.leaf_size = 8}));
  EXPECT_EQ(bs.n(), 81);
  // Root supernode of the geometric ND of a 9x9 grid is a full line of 9.
  EXPECT_EQ(bs.snode_size(bs.n_snodes() - 1), 9);
}

// SnodeWidthCap: no supernode is wider than kMaxSnodeWidth. A wider
// separator block becomes a chain of near-equal pieces; the in-sim analysis
// and the solve through chains are pinned in test_dist_analysis.cpp and
// test_service.cpp.
TEST(SnodeWidthCap, EverySupernodeFitsTheCap) {
  int split = 0;
  for (const TestMatrix& t : paper_test_suite(1)) {
    const SeparatorTree tree = nested_dissection(t.A);
    const BlockStructure bs(t.A, tree);
    const SnodeNumbering num = SnodeNumbering::from_tree(tree);
    ASSERT_EQ(bs.n_snodes(), num.n_snodes) << t.name;
    for (int s = 0; s < bs.n_snodes(); ++s)
      EXPECT_LE(bs.snode_size(s), kMaxSnodeWidth) << t.name << " snode " << s;
    for (int v = 0; v < tree.n_nodes(); ++v) {
      const SepTreeNode& nd = tree.node(v);
      index_t col = nd.sep_first;
      index_t widest = 0, narrowest = nd.block_size();
      for (int s = num.first_piece(v); s < num.beyond_piece(v); ++s) {
        EXPECT_EQ(bs.first_col(s), col) << t.name << " node " << v;
        col += bs.snode_size(s);
        widest = std::max(widest, bs.snode_size(s));
        narrowest = std::min(narrowest, bs.snode_size(s));
        // A chain: every piece but the top one feeds the next.
        if (s + 1 < num.beyond_piece(v)) {
          EXPECT_EQ(bs.nd_parent(s), s + 1);
        }
      }
      EXPECT_EQ(col, nd.sep_last) << t.name << " node " << v;
      EXPECT_LE(widest - narrowest, 1) << t.name << " node " << v;
      if (num.n_pieces[static_cast<std::size_t>(v)] > 1) ++split;
    }
  }
  EXPECT_GT(split, 0) << "no separator of the suite is wider than the cap";
}

}  // namespace
}  // namespace slu3d
