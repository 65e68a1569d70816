#include <gtest/gtest.h>

#include <mutex>

#include "lu3d/solve3d.hpp"
#include "order/parallel_nd.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"
#include "symbolic/block_structure.hpp"

namespace slu3d {
namespace {

using sim::MachineModel;
using sim::run_ranks;

const MachineModel kModel{};

void expect_valid_tree(const CsrMatrix& A, const SeparatorTree& tree) {
  EXPECT_TRUE(is_permutation(tree.perm()));
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm()).symmetrized_pattern();
  std::vector<int> owner(static_cast<std::size_t>(tree.n()), -1);
  for (int v = 0; v < tree.n_nodes(); ++v)
    for (index_t c = tree.node(v).sep_first; c < tree.node(v).sep_last; ++c)
      owner[static_cast<std::size_t>(c)] = v;
  auto anc = [&](int a, int b) {
    return tree.node(a).subtree_first <= tree.node(b).subtree_first &&
           tree.node(b).sep_last <= tree.node(a).sep_last;
  };
  for (index_t i = 0; i < Ap.n_rows(); ++i)
    for (index_t j : Ap.row_cols(i)) {
      if (i == j) continue;
      const int a = owner[static_cast<std::size_t>(i)];
      const int b = owner[static_cast<std::size_t>(j)];
      ASSERT_TRUE(anc(a, b) || anc(b, a));
    }
}

class ParallelNdRanks : public ::testing::TestWithParam<int> {};

TEST_P(ParallelNdRanks, AllRanksGetTheSameValidTree) {
  const int P = GetParam();
  const GridGeometry g{14, 13, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);

  std::vector<std::vector<index_t>> perms(static_cast<std::size_t>(P));
  std::mutex mu;
  run_ranks(P, kModel, [&](sim::Comm& world) {
    const SeparatorTree tree =
        parallel_nested_dissection(A, world, {.leaf_size = 8});
    {
      const std::lock_guard<std::mutex> lock(mu);
      perms[static_cast<std::size_t>(world.rank())].assign(tree.perm().begin(),
                                                           tree.perm().end());
    }
    if (world.rank() == 0) expect_valid_tree(A, tree);
  });
  for (int r = 1; r < P; ++r) EXPECT_EQ(perms[static_cast<std::size_t>(r)],
                                        perms[0]);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ParallelNdRanks,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

TEST(ParallelNd, HandlesDisconnectedGraphs) {
  CooMatrix coo(40, 40);
  for (index_t c = 0; c < 4; ++c)
    for (index_t i = 0; i < 9; ++i) {
      coo.add(c * 10 + i, c * 10 + i + 1, -1.0);
      coo.add(c * 10 + i + 1, c * 10 + i, -1.0);
    }
  for (index_t i = 0; i < 40; ++i) coo.add(i, i, 3.0);
  const CsrMatrix A = CsrMatrix::from_coo(coo);
  run_ranks(4, kModel, [&](sim::Comm& world) {
    const SeparatorTree tree =
        parallel_nested_dissection(A, world, {.leaf_size = 4});
    if (world.rank() == 0) expect_valid_tree(A, tree);
  });
}

TEST(ParallelNd, DrivesTheFullDistributedPipeline) {
  // Order in parallel, then factor + solve in 3D: the complete SuperLU_DIST
  // pipeline with no serial ordering step outside the simulated machine.
  const GridGeometry g{12, 12, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const auto n = static_cast<std::size_t>(A.n_rows());
  Rng rng(131);
  std::vector<real_t> xref(n), b(n);
  for (auto& v : xref) v = rng.uniform(-1, 1);
  A.spmv(xref, b);

  std::vector<real_t> x(n, 0.0);
  std::mutex mu;
  run_ranks(8, kModel, [&](sim::Comm& world) {
    const SeparatorTree tree =
        parallel_nested_dissection(A, world, {.leaf_size = 8});
    const BlockStructure bs(A, tree);
    const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
    const ForestPartition part(bs, 2);
    const auto pinv = invert_permutation(tree.perm());

    auto grid = sim::ProcessGrid3D::create(world, 2, 2, 2);
    Dist2dFactors F = make_3d_factors(bs, grid, part, Ap);
    factorize_3d(F, grid, part, {});
    std::vector<real_t> pb(n);
    for (std::size_t i = 0; i < n; ++i)
      pb[static_cast<std::size_t>(pinv[i])] = b[i];
    solve_3d(F, world, grid, part, pb);
    if (world.rank() == 0) {
      const std::lock_guard<std::mutex> lock(mu);
      for (std::size_t i = 0; i < n; ++i)
        x[i] = pb[static_cast<std::size_t>(pinv[i])];
    }
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-8);
}

TEST(ParallelNd, MatchesSerialTopSeparatorChoice) {
  // The parallel recursion makes the same separator choices as the serial
  // code (the leader runs the identical splitter), so the trees coincide
  // when the serial recursion would assign work the same way.
  const GridGeometry g{10, 10, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree serial = nested_dissection(A, {.leaf_size = 8});
  run_ranks(4, kModel, [&](sim::Comm& world) {
    const SeparatorTree par =
        parallel_nested_dissection(A, world, {.leaf_size = 8});
    // Same top separator: the root block of both trees covers the same
    // column range and the same vertices.
    const auto& sr = serial.node(serial.root());
    const auto& pr = par.node(par.root());
    EXPECT_EQ(pr.sep_last - pr.sep_first, sr.sep_last - sr.sep_first);
    std::vector<index_t> sv(serial.perm().begin() + sr.sep_first,
                            serial.perm().begin() + sr.sep_last);
    std::vector<index_t> pv(par.perm().begin() + pr.sep_first,
                            par.perm().begin() + pr.sep_last);
    std::sort(sv.begin(), sv.end());
    std::sort(pv.begin(), pv.end());
    EXPECT_EQ(sv, pv);
  });
}

}  // namespace
}  // namespace slu3d
