#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <numeric>

#include "lu3d/factor3d.hpp"
#include "numeric/seq_lu.hpp"
#include "order/nested_dissection.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"

namespace slu3d {
namespace {

using sim::CommPlane;
using sim::MachineModel;
using sim::ProcessGrid3D;
using sim::RunResult;
using sim::run_ranks;

const MachineModel kModel{};

TEST(ForestPartition, SingleGridIsTrivial) {
  const GridGeometry g{8, 8, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const BlockStructure bs(A, nested_dissection(A, {.leaf_size = 8}));
  const ForestPartition part(bs, 1);
  EXPECT_EQ(part.n_levels(), 1);
  for (int s = 0; s < bs.n_snodes(); ++s) {
    EXPECT_EQ(part.level_of(s), 0);
    EXPECT_EQ(part.anchor_of(s), 0);
    EXPECT_TRUE(part.on_grid(s, 0));
  }
}

class PartitionPz : public ::testing::TestWithParam<int> {};

TEST_P(PartitionPz, StructuralInvariants) {
  const int Pz = GetParam();
  const GridGeometry g{12, 12, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const BlockStructure bs(A, nested_dissection(A, {.leaf_size = 8}));
  const ForestPartition part(bs, Pz);

  const int l = part.n_levels() - 1;
  EXPECT_EQ(1 << l, Pz);
  for (int s = 0; s < bs.n_snodes(); ++s) {
    const int lvl = part.level_of(s);
    ASSERT_GE(lvl, 0);
    ASSERT_LE(lvl, l);
    // Anchor must be aligned to the replication-group size.
    EXPECT_EQ(part.anchor_of(s) % part.group_size(s), 0);
    // Parent lives at the same or a shallower level, on a group that
    // contains this node's whole group (dependencies flow to ancestors).
    const int p = bs.nd_parent(s);
    if (p >= 0) {
      EXPECT_LE(part.level_of(p), lvl);
      EXPECT_TRUE(part.on_grid(p, part.anchor_of(s)));
      EXPECT_TRUE(part.on_grid(p, part.anchor_of(s) + part.group_size(s) - 1));
    }
  }
  // Every supernode is factored exactly once: by its anchor at its level.
  std::vector<bool> seen(static_cast<std::size_t>(bs.n_snodes()), false);
  for (int lvl = 0; lvl <= l; ++lvl) {
    const int step = 1 << (l - lvl);
    for (int pz = 0; pz < Pz; pz += step) {
      for (int s : part.nodes_at(pz, lvl)) {
        EXPECT_FALSE(seen[static_cast<std::size_t>(s)]);
        seen[static_cast<std::size_t>(s)] = true;
      }
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));

  // Masks are ancestor-closed.
  for (int pz = 0; pz < Pz; ++pz) {
    const auto mask = part.mask_for(pz);
    for (int s = 0; s < bs.n_snodes(); ++s) {
      if (mask[static_cast<std::size_t>(s)] && bs.nd_parent(s) >= 0) {
        EXPECT_TRUE(mask[static_cast<std::size_t>(bs.nd_parent(s))]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, PartitionPz, ::testing::Values(1, 2, 4, 8));

TEST(ForestPartition, GreedyBeatsCriticalPathOfChain) {
  // Critical path with Pz=2 must be at most the total (Pz=1) cost, and for
  // a balanced grid should be clearly smaller.
  const GridGeometry g{16, 16, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const BlockStructure bs(A, geometric_nd(g, {.leaf_size = 8}));
  const ForestPartition p2(bs, 2);
  EXPECT_LT(p2.critical_path_flops(), p2.total_flops());
  const ForestPartition p4(bs, 4);
  EXPECT_LE(p4.critical_path_flops(), p2.critical_path_flops());
}

TEST(ForestPartition, RejectsNonPowerOfTwo) {
  const GridGeometry g{6, 6, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const BlockStructure bs(A, nested_dissection(A, {.leaf_size = 8}));
  EXPECT_THROW(ForestPartition(bs, 3), Error);
}

/// Runs the full 3D algorithm and compares the gathered factors against
/// the sequential reference.
void check_3d_matches_sequential(const CsrMatrix& A, const SeparatorTree& tree,
                                 int Px, int Py, int Pz, int lookahead = 4) {
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  const ForestPartition part(bs, Pz);

  SupernodalMatrix ref(bs);
  ref.fill_from(Ap);
  factorize_sequential(ref);

  SupernodalMatrix gathered(bs);
  std::mutex mu;
  run_ranks(Px * Py * Pz, kModel, [&](sim::Comm& world) {
    auto grid = ProcessGrid3D::create(world, Px, Py, Pz);
    Dist2dFactors F = make_3d_factors(bs, grid, part, Ap);
    factorize_3d(F, grid, part, {.lookahead = lookahead});
    auto full = gather_3d_to_root(F, world, grid, part);
    if (full.has_value()) {
      const std::lock_guard<std::mutex> lock(mu);
      gathered = std::move(*full);
    }
  });

  for (index_t i = 0; i < bs.n(); ++i)
    for (index_t j = 0; j <= i; ++j) {
      ASSERT_NEAR(gathered.l_entry(i, j), ref.l_entry(i, j), 1e-11)
          << "L(" << i << "," << j << ") " << Px << "x" << Py << "x" << Pz;
      ASSERT_NEAR(gathered.u_entry(j, i), ref.u_entry(j, i), 1e-11)
          << "U(" << j << "," << i << ") " << Px << "x" << Py << "x" << Pz;
    }
}

struct Grid3dCase {
  int Px, Py, Pz;
};

class Lu3dGrids : public ::testing::TestWithParam<Grid3dCase> {};

TEST_P(Lu3dGrids, MatchesSequentialOnPlanarMatrix) {
  const auto [Px, Py, Pz] = GetParam();
  const GridGeometry g{12, 12, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  check_3d_matches_sequential(A, geometric_nd(g, {.leaf_size = 8}), Px, Py, Pz);
}

INSTANTIATE_TEST_SUITE_P(
    GridShapes, Lu3dGrids,
    ::testing::Values(Grid3dCase{1, 1, 2}, Grid3dCase{1, 1, 4},
                      Grid3dCase{2, 1, 2}, Grid3dCase{1, 2, 2},
                      Grid3dCase{2, 2, 2}, Grid3dCase{2, 2, 4},
                      Grid3dCase{2, 3, 2}, Grid3dCase{1, 1, 8}),
    [](const auto& pi) {
      return std::to_string(pi.param.Px) + "x" + std::to_string(pi.param.Py) +
             "x" + std::to_string(pi.param.Pz);
    });

TEST(Lu3d, MatchesSequentialOnNonplanarMatrix) {
  const GridGeometry g{5, 5, 5};
  const CsrMatrix A = grid3d_laplacian(g, Stencil3D::SevenPoint);
  check_3d_matches_sequential(A, geometric_nd(g, {.leaf_size = 10}), 2, 2, 2);
}

TEST(Lu3d, MatchesSequentialWithGeneralNdAndKkt) {
  const GridGeometry g{3, 3, 3};
  const CsrMatrix A = kkt3d(g, 7);
  check_3d_matches_sequential(A, nested_dissection(A, {.leaf_size = 10}), 2, 1, 4);
}

TEST(Lu3d, SolveThroughGatheredFactors) {
  const GridGeometry g{10, 10, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 8});
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  const ForestPartition part(bs, 2);
  const auto pinv = invert_permutation(tree.perm());

  Rng rng(5);
  const auto n = static_cast<std::size_t>(A.n_rows());
  std::vector<real_t> xref(n), b(n), x(n, 0.0);
  for (auto& v : xref) v = rng.uniform(-1, 1);
  A.spmv(xref, b);

  std::mutex mu;
  run_ranks(8, kModel, [&](sim::Comm& world) {
    auto grid = ProcessGrid3D::create(world, 2, 2, 2);
    Dist2dFactors F = make_3d_factors(bs, grid, part, Ap);
    factorize_3d(F, grid, part, {});
    auto full = gather_3d_to_root(F, world, grid, part);
    if (full.has_value()) {
      std::vector<real_t> pb(n);
      for (std::size_t i = 0; i < n; ++i) pb[static_cast<std::size_t>(pinv[i])] = b[i];
      solve_factored(*full, pb);
      const std::lock_guard<std::mutex> lock(mu);
      for (std::size_t i = 0; i < n; ++i) x[i] = pb[static_cast<std::size_t>(pinv[i])];
    }
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-8);
}

TEST(Lu3d, ZPlaneTrafficOnlyWithReplication) {
  const GridGeometry g{12, 12, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 8});
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());

  auto run = [&](int Px, int Py, int Pz) {
    const ForestPartition part(bs, Pz);
    return run_ranks(Px * Py * Pz, kModel, [&](sim::Comm& world) {
      auto grid = ProcessGrid3D::create(world, Px, Py, Pz);
      Dist2dFactors F = make_3d_factors(bs, grid, part, Ap);
      factorize_3d(F, grid, part, {});
    });
  };
  const RunResult flat = run(2, 2, 1);
  EXPECT_EQ(flat.total_bytes_sent(CommPlane::Z), 0);
  const RunResult deep = run(2, 2, 2);
  EXPECT_GT(deep.total_bytes_sent(CommPlane::Z), 0);
  // The 3D run reduces XY-plane (factorization) traffic per process.
  EXPECT_LT(deep.max_bytes_received(CommPlane::XY),
            flat.max_bytes_received(CommPlane::XY));
}

TEST(Lu3d, ReplicationIncreasesMemoryModestly) {
  const GridGeometry g{12, 12, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 8});
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());

  auto total_bytes = [&](int Pz) {
    const ForestPartition part(bs, Pz);
    std::vector<offset_t> bytes(static_cast<std::size_t>(4 * Pz), 0);
    run_ranks(4 * Pz, kModel, [&](sim::Comm& world) {
      auto grid = ProcessGrid3D::create(world, 2, 2, Pz);
      Dist2dFactors F = make_3d_factors(bs, grid, part, Ap);
      bytes[static_cast<std::size_t>(world.rank())] = F.allocated_bytes();
    });
    offset_t sum = 0;
    for (auto b : bytes) sum += b;
    return sum;
  };
  const offset_t m1 = total_bytes(1);
  const offset_t m4 = total_bytes(4);
  EXPECT_GT(m4, m1);          // replication costs memory...
  EXPECT_LT(m4, 3 * m1);      // ...but only a constant factor (planar case)
}

}  // namespace
}  // namespace slu3d
