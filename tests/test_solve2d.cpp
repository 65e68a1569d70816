// Distributed solves on a 2D process grid: factorize_3d + solve_3d on a
// Px x Py x 1 grid, where the layout is SuperLU_DIST's 2D block-cyclic one
// (one forest level, one dSparseLU2D call) and the solve is the pdgstrs
// counterpart.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "lu3d/solve3d.hpp"
#include "order/nested_dissection.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"

namespace slu3d {
namespace {

using sim::MachineModel;
using sim::ProcessGrid3D;
using sim::run_ranks;

const MachineModel kModel{};

/// Factorizes and solves fully distributed on a Px x Py x 1 grid; checks
/// against the true solution of A x = b. Every rank must end up with the
/// full solution.
void check_distributed_solve(const CsrMatrix& A, const SeparatorTree& tree,
                             int Px, int Py) {
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  const ForestPartition part(bs, 1);
  const auto pinv = invert_permutation(tree.perm());

  const auto n = static_cast<std::size_t>(A.n_rows());
  Rng rng(11);
  std::vector<real_t> xref(n), b(n);
  for (auto& v : xref) v = rng.uniform(-1, 1);
  A.spmv(xref, b);
  std::vector<real_t> pb(n);
  for (std::size_t i = 0; i < n; ++i)
    pb[static_cast<std::size_t>(pinv[i])] = b[i];

  std::vector<std::vector<real_t>> per_rank(static_cast<std::size_t>(Px * Py));
  run_ranks(Px * Py, kModel, [&](sim::Comm& world) {
    auto grid = ProcessGrid3D::create(world, Px, Py, 1);
    Dist2dFactors F = make_3d_factors(bs, grid, part, Ap);
    factorize_3d(F, grid, part, {});

    std::vector<real_t> x(pb);
    solve_3d(F, world, grid, part, x);
    per_rank[static_cast<std::size_t>(world.rank())] = std::move(x);
  });

  for (int r = 0; r < Px * Py; ++r) {
    const auto& px = per_rank[static_cast<std::size_t>(r)];
    ASSERT_EQ(px.size(), n);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_NEAR(px[static_cast<std::size_t>(pinv[i])], xref[i], 1e-8)
          << "rank " << r << " component " << i;
  }
}

struct GridCase {
  int Px, Py;
};

class Solve2dGrids : public ::testing::TestWithParam<GridCase> {};

TEST_P(Solve2dGrids, SolvesPlanarSystem) {
  const auto [Px, Py] = GetParam();
  const GridGeometry g{11, 9, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  check_distributed_solve(A, nested_dissection(A, {.leaf_size = 8}), Px, Py);
}

INSTANTIATE_TEST_SUITE_P(GridShapes, Solve2dGrids,
                         ::testing::Values(GridCase{1, 1}, GridCase{1, 2},
                                           GridCase{2, 1}, GridCase{2, 2},
                                           GridCase{2, 3}, GridCase{3, 2},
                                           GridCase{4, 2}),
                         [](const auto& pi) {
                           return "Px" + std::to_string(pi.param.Px) + "Py" +
                                  std::to_string(pi.param.Py);
                         });

TEST(Solve2d, NonsymmetricValues) {
  const GridGeometry g{7, 8, 1};
  const CsrMatrix A = grid2d_convection_diffusion(g, 0.4);
  check_distributed_solve(A, nested_dissection(A, {.leaf_size = 6}), 2, 2);
}

TEST(Solve2d, NonplanarMatrix) {
  const GridGeometry g{4, 4, 4};
  const CsrMatrix A = grid3d_laplacian(g, Stencil3D::SevenPoint);
  check_distributed_solve(A, geometric_nd(g, {.leaf_size = 8}), 2, 2);
}

TEST(Solve2d, KktSystem) {
  const GridGeometry g{3, 3, 2};
  const CsrMatrix A = kkt3d(g, 3);
  check_distributed_solve(A, nested_dissection(A, {.leaf_size = 8}), 3, 2);
}

TEST(Solve2d, RepeatedSolvesWithSameFactors) {
  const GridGeometry g{10, 10, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 8});
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  const ForestPartition part(bs, 1);
  const auto pinv = invert_permutation(tree.perm());
  const auto n = static_cast<std::size_t>(A.n_rows());

  std::vector<real_t> err(2, 1e300);
  run_ranks(4, kModel, [&](sim::Comm& world) {
    auto grid = ProcessGrid3D::create(world, 2, 2, 1);
    Dist2dFactors F = make_3d_factors(bs, grid, part, Ap);
    factorize_3d(F, grid, part, {});

    for (int rhs = 0; rhs < 2; ++rhs) {
      Rng rng(static_cast<std::uint64_t>(100 + rhs));
      std::vector<real_t> xref(n), b(n), x(n);
      for (auto& v : xref) v = rng.uniform(-1, 1);
      A.spmv(xref, b);
      for (std::size_t i = 0; i < n; ++i)
        x[static_cast<std::size_t>(pinv[i])] = b[i];
      // Both solves use the default tag base: they send the same messages
      // per (source, tag) in program order, so FIFO matching keeps them
      // apart.
      solve_3d(F, world, grid, part, x);
      if (world.rank() == 0) {
        real_t e = 0;
        for (std::size_t i = 0; i < n; ++i)
          e = std::max(e, std::abs(x[static_cast<std::size_t>(pinv[i])] - xref[i]));
        err[static_cast<std::size_t>(rhs)] = e;
      }
    }
  });
  EXPECT_LT(err[0], 1e-9);
  EXPECT_LT(err[1], 1e-9);
}

TEST(Solve2d, BatchedPanelBitwiseMatchesSequentialSolves) {
  // A panel solve must equal column-by-column solves bitwise (per-column
  // op order is independent of the panel width). The sequential solves
  // run back-to-back in the same simulated run on the panel solve's tag
  // base: every solve sends the same messages per (source, tag) in
  // program order, so FIFO matching pairs each receive with its own
  // solve's send.
  const GridGeometry g{10, 9, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = nested_dissection(A, {.leaf_size = 8});
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  const ForestPartition part(bs, 1);
  const auto n = static_cast<std::size_t>(A.n_rows());
  const index_t nrhs = 3;

  Rng rng(57);
  std::vector<real_t> B(n * static_cast<std::size_t>(nrhs));
  for (auto& v : B) v = rng.uniform(-1, 1);

  std::vector<real_t> batched, seq;
  run_ranks(4, kModel, [&](sim::Comm& world) {
    auto grid = ProcessGrid3D::create(world, 2, 2, 1);
    Dist2dFactors F = make_3d_factors(bs, grid, part, Ap);
    factorize_3d(F, grid, part, {});

    std::vector<real_t> xp(B);
    Solve3dOptions bopt;
    bopt.nrhs = nrhs;
    solve_3d(F, world, grid, part, xp, bopt);

    std::vector<real_t> xs(B);
    for (index_t j = 0; j < nrhs; ++j)
      solve_3d(F, world, grid, part,
               std::span<real_t>(xs).subspan(static_cast<std::size_t>(j) * n, n));
    if (world.rank() == 0) {
      batched = xp;
      seq = xs;
    }
  });

  ASSERT_EQ(batched.size(), seq.size());
  for (std::size_t i = 0; i < batched.size(); ++i)
    EXPECT_EQ(batched[i], seq[i]) << "panel entry " << i;
}

}  // namespace
}  // namespace slu3d
