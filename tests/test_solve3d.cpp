#include <gtest/gtest.h>

#include <numeric>
#include <utility>

#include "lu3d/solve3d.hpp"
#include "numeric/seq_lu.hpp"
#include "order/nested_dissection.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"

namespace slu3d {
namespace {

using sim::MachineModel;
using sim::ProcessGrid3D;
using sim::run_ranks;

const MachineModel kModel{};

/// Full 3D pipeline: factorize with Algorithm 1, then solve directly on
/// the 3D-distributed factors; every rank must end with the solution.
void check_3d_pipeline(const CsrMatrix& A, const SeparatorTree& tree, int Px,
                       int Py, int Pz) {
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  const ForestPartition part(bs, Pz);
  const auto pinv = invert_permutation(tree.perm());

  const auto n = static_cast<std::size_t>(A.n_rows());
  Rng rng(31);
  std::vector<real_t> xref(n), b(n), pb(n);
  for (auto& v : xref) v = rng.uniform(-1, 1);
  A.spmv(xref, b);
  for (std::size_t i = 0; i < n; ++i)
    pb[static_cast<std::size_t>(pinv[i])] = b[i];

  const int P = Px * Py * Pz;
  std::vector<std::vector<real_t>> per_rank(static_cast<std::size_t>(P));
  run_ranks(P, kModel, [&](sim::Comm& world) {
    auto grid = ProcessGrid3D::create(world, Px, Py, Pz);
    Dist2dFactors F = make_3d_factors(bs, grid, part, Ap);
    factorize_3d(F, grid, part, {});
    std::vector<real_t> x(pb);
    solve_3d(F, world, grid, part, x);
    per_rank[static_cast<std::size_t>(world.rank())] = std::move(x);
  });

  for (int r = 0; r < P; ++r) {
    const auto& px = per_rank[static_cast<std::size_t>(r)];
    ASSERT_EQ(px.size(), n);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_NEAR(px[static_cast<std::size_t>(pinv[i])], xref[i], 1e-8)
          << "rank " << r << " of " << Px << "x" << Py << "x" << Pz;
  }
}

struct Grid3dCase {
  int Px, Py, Pz;
};

class Solve3dGrids : public ::testing::TestWithParam<Grid3dCase> {};

TEST_P(Solve3dGrids, SolvesPlanarSystemEndToEnd) {
  const auto [Px, Py, Pz] = GetParam();
  const GridGeometry g{11, 12, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  check_3d_pipeline(A, geometric_nd(g, {.leaf_size = 8}), Px, Py, Pz);
}

INSTANTIATE_TEST_SUITE_P(
    GridShapes, Solve3dGrids,
    ::testing::Values(Grid3dCase{1, 1, 1}, Grid3dCase{1, 1, 2},
                      Grid3dCase{2, 2, 1}, Grid3dCase{2, 2, 2},
                      Grid3dCase{1, 2, 4}, Grid3dCase{2, 1, 4},
                      Grid3dCase{2, 2, 4}, Grid3dCase{1, 1, 8}),
    [](const auto& pi) {
      return std::to_string(pi.param.Px) + "x" + std::to_string(pi.param.Py) +
             "x" + std::to_string(pi.param.Pz);
    });

TEST(Solve3d, NonplanarSystem) {
  const GridGeometry g{4, 5, 4};
  const CsrMatrix A = grid3d_laplacian(g, Stencil3D::SevenPoint);
  check_3d_pipeline(A, geometric_nd(g, {.leaf_size = 10}), 2, 2, 2);
}

TEST(Solve3d, NonsymmetricValues) {
  const GridGeometry g{9, 7, 1};
  const CsrMatrix A = grid2d_convection_diffusion(g, 0.5);
  check_3d_pipeline(A, nested_dissection(A, {.leaf_size = 8}), 2, 1, 2);
}

TEST(Solve3d, GeneralNdWithEmptySeparators) {
  // Disconnected components produce empty separator supernodes; the solve
  // must skip them cleanly.
  CooMatrix coo(50, 50);
  for (index_t comp = 0; comp < 2; ++comp) {
    const index_t off = comp * 25;
    for (index_t i = 0; i < 24; ++i) {
      coo.add(off + i, off + i + 1, -1.0);
      coo.add(off + i + 1, off + i, -1.0);
    }
  }
  for (index_t i = 0; i < 50; ++i) coo.add(i, i, 4.0);
  const CsrMatrix A = CsrMatrix::from_coo(coo);
  check_3d_pipeline(A, nested_dissection(A, {.leaf_size = 4}), 1, 2, 2);
}

TEST(Solve3d, BatchedPanelBitwiseMatchesSequentialSolves) {
  // One nrhs-wide sweep must produce exactly the columns that nrhs
  // independent single-RHS solves produce: per-column accumulation order
  // in the panel kernels does not depend on the panel width, so the
  // comparison is bitwise. The sequential solves run back-to-back on the
  // same resident factors and the panel solve's tag base: every solve
  // sends the same messages per (source, tag) in program order, so FIFO
  // matching pairs each receive with its own solve's send.
  const GridGeometry g{11, 10, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 8});
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  const int Px = 2, Py = 2, Pz = 2;
  const ForestPartition part(bs, Pz);
  const auto n = static_cast<std::size_t>(A.n_rows());
  const index_t nrhs = 4;

  Rng rng(93);
  std::vector<real_t> B(n * static_cast<std::size_t>(nrhs));
  for (auto& v : B) v = rng.uniform(-1, 1);

  std::vector<real_t> batched, seq;
  run_ranks(Px * Py * Pz, kModel, [&](sim::Comm& world) {
    auto grid = ProcessGrid3D::create(world, Px, Py, Pz);
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

TEST(Solve3d, BatchedMessageCountIndependentOfNrhs) {
  // The point of batching: solve-phase message *counts* do not grow with
  // the panel width (sizes do).
  const GridGeometry g{10, 10, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 8});
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  const ForestPartition part(bs, 2);
  const auto n = static_cast<std::size_t>(A.n_rows());

  auto solve_messages = [&](index_t nrhs) {
    std::vector<real_t> B(n * static_cast<std::size_t>(nrhs), 1.0);
    std::vector<offset_t> msgs(8, 0);
    run_ranks(8, kModel, [&](sim::Comm& world) {
      auto grid = ProcessGrid3D::create(world, 2, 2, 2);
      Dist2dFactors F = make_3d_factors(bs, grid, part, Ap);
      factorize_3d(F, grid, part, {});
      const sim::RankStats pre = world.stats();
      std::vector<real_t> x(B);
      Solve3dOptions opt;
      opt.nrhs = nrhs;
      solve_3d(F, world, grid, part, x, opt);
      const sim::RankStats post = world.stats();
      msgs[static_cast<std::size_t>(world.rank())] =
          post.messages_sent[0] + post.messages_sent[1] -
          pre.messages_sent[0] - pre.messages_sent[1];
    });
    offset_t total = 0;
    for (offset_t m : msgs) total += m;
    return total;
  };

  const offset_t one = solve_messages(1);
  const offset_t sixteen = solve_messages(16);
  EXPECT_GT(one, 0);
  EXPECT_EQ(one, sixteen);
}

/// One rank's side of a solve: its solution panel and its stats around
/// the solve call.
struct RankSolve {
  std::vector<real_t> x;
  sim::RankStats before, after;
};

/// A matrix ordered by nested dissection, with its block structure.
struct Ordered {
  CsrMatrix Ap;  ///< the permuted matrix
  BlockStructure bs;
};

Ordered order_nd(const CsrMatrix& A, const NdOptions& nd) {
  const SeparatorTree tree = nested_dissection(A, nd);
  return {A.permuted_symmetric(tree.perm()), BlockStructure(A, tree)};
}

/// Factors `o` on a Px x Py x part.Pz() grid, then solves a seeded
/// n x nrhs panel, routed by `plan` when it is given and by a plan built
/// on the call otherwise.
std::vector<RankSolve> solve_per_rank(const Ordered& o,
                                      const ForestPartition& part, int Px,
                                      int Py, index_t nrhs,
                                      const SolvePlan* plan) {
  const BlockStructure& bs = o.bs;
  const CsrMatrix& Ap = o.Ap;
  Rng rng(57);
  std::vector<real_t> B(static_cast<std::size_t>(bs.n()) *
                        static_cast<std::size_t>(nrhs));
  for (auto& v : B) v = rng.uniform(-1, 1);
  const int P = Px * Py * part.Pz();
  std::vector<RankSolve> out(static_cast<std::size_t>(P));
  run_ranks(P, kModel, [&](sim::Comm& world) {
    auto grid = ProcessGrid3D::create(world, Px, Py, part.Pz());
    Dist2dFactors F = make_3d_factors(bs, grid, part, Ap);
    factorize_3d(F, grid, part, {});
    RankSolve& me = out[static_cast<std::size_t>(world.rank())];
    me.x = B;
    Solve3dOptions opt;
    opt.nrhs = nrhs;
    me.before = world.stats();
    if (plan != nullptr)
      solve_3d(F, world, *plan, me.x, opt);
    else
      solve_3d(F, world, grid, part, me.x, opt);
    me.after = world.stats();
  });
  return out;
}

/// Messages sent on `plane` by all ranks during the solve.
offset_t solve_messages(const std::vector<RankSolve>& ranks,
                        sim::CommPlane plane) {
  const auto pl = static_cast<std::size_t>(plane);
  offset_t total = 0;
  for (const RankSolve& r : ranks)
    total += r.after.messages_sent[pl] - r.before.messages_sent[pl];
  return total;
}

TEST(Solve3d, SingleRankSolveSendsNothing) {
  // A rank's contributions to its own diagonal blocks are added in place,
  // so one rank solves without a single message and its clock advances
  // by exactly its compute.
  const Ordered o =
      order_nd(grid2d_laplacian({32, 32, 1}, Stencil2D::FivePoint), {});
  const ForestPartition part(o.bs, 1);
  for (const index_t nrhs : {1, 16}) {
    const auto ranks = solve_per_rank(o, part, 1, 1, nrhs, nullptr);
    const RankSolve& r = ranks.front();
    EXPECT_EQ(solve_messages(ranks, sim::CommPlane::XY), 0) << "nrhs " << nrhs;
    EXPECT_EQ(solve_messages(ranks, sim::CommPlane::Z), 0) << "nrhs " << nrhs;
    const auto other = static_cast<std::size_t>(sim::ComputeKind::Other);
    EXPECT_GT(r.after.compute_seconds[other], r.before.compute_seconds[other]);
    // Equal up to the rounding of the two running sums; one message would
    // add alpha.
    EXPECT_NEAR(r.after.clock - r.before.clock,
                r.after.compute_seconds[other] - r.before.compute_seconds[other],
                1e-12 * r.after.clock)
        << "nrhs " << nrhs;
  }
}

TEST(Solve3d, SingleGridSolveSendsNoZTraffic) {
  // Z labels messages between grids; with one grid there are none.
  const Ordered o =
      order_nd(grid2d_laplacian({32, 32, 1}, Stencil2D::FivePoint), {});
  const ForestPartition part(o.bs, 1);
  for (const auto& [Px, Py] : {std::pair{4, 4}, std::pair{2, 3}}) {
    const auto ranks = solve_per_rank(o, part, Px, Py, 1, nullptr);
    EXPECT_GT(solve_messages(ranks, sim::CommPlane::XY), 0)
        << Px << "x" << Py;
    EXPECT_EQ(solve_messages(ranks, sim::CommPlane::Z), 0) << Px << "x" << Py;
  }
}

TEST(Solve3d, SharedPlanMatchesPerCallPlan) {
  // The service's shared plan and the plan solve_3d builds per call route
  // identically: same panels, clocks, bytes and messages on every rank.
  const Ordered o = order_nd(
      grid2d_laplacian({21, 18, 1}, Stencil2D::FivePoint), {.leaf_size = 8});
  const int Px = 2, Py = 2, Pz = 4;
  const ForestPartition part(o.bs, Pz);
  const SolvePlan plan(o.bs, part, Px, Py);
  const auto shared = solve_per_rank(o, part, Px, Py, 3, &plan);
  const auto per_call = solve_per_rank(o, part, Px, Py, 3, nullptr);
  ASSERT_EQ(shared.size(), per_call.size());
  for (std::size_t r = 0; r < shared.size(); ++r) {
    const RankSolve &u = shared[r], &v = per_call[r];
    EXPECT_EQ(u.x, v.x) << "rank " << r;
    EXPECT_EQ(u.after.clock - u.before.clock, v.after.clock - v.before.clock)
        << "rank " << r;
    for (std::size_t pl = 0; pl < static_cast<std::size_t>(sim::kNumPlanes);
         ++pl) {
      EXPECT_EQ(u.after.bytes_sent[pl] - u.before.bytes_sent[pl],
                v.after.bytes_sent[pl] - v.before.bytes_sent[pl])
          << "rank " << r << " plane " << pl;
      EXPECT_EQ(u.after.bytes_received[pl] - u.before.bytes_received[pl],
                v.after.bytes_received[pl] - v.before.bytes_received[pl])
          << "rank " << r << " plane " << pl;
      EXPECT_EQ(u.after.messages_sent[pl] - u.before.messages_sent[pl],
                v.after.messages_sent[pl] - v.before.messages_sent[pl])
          << "rank " << r << " plane " << pl;
    }
  }
  EXPECT_GT(solve_messages(shared, sim::CommPlane::Z), 0);
}

TEST(MultiRhsSolve, MatchesSingleRhsSolves) {
  // The production multi-RHS path (one nrhs-wide solve_3d sweep on the 3D
  // factors) against the sequential oracle solving each column on its own.
  const GridGeometry g{10, 9, 1};
  const CsrMatrix A = grid2d_convection_diffusion(g, 0.3);
  const SeparatorTree tree = nested_dissection(A, {.leaf_size = 8});
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  SupernodalMatrix ref(bs);
  ref.fill_from(Ap);
  factorize_sequential(ref);
  const ForestPartition part(bs, 2);

  const auto n = static_cast<std::size_t>(A.n_rows());
  const index_t nrhs = 5;
  Rng rng(101);
  std::vector<real_t> X(n * static_cast<std::size_t>(nrhs));
  for (auto& v : X) v = rng.uniform(-1, 1);
  const auto X0 = X;

  run_ranks(8, kModel, [&](sim::Comm& world) {
    auto grid = ProcessGrid3D::create(world, 2, 2, 2);
    Dist2dFactors F = make_3d_factors(bs, grid, part, Ap);
    factorize_3d(F, grid, part, {});
    std::vector<real_t> x(X0);
    Solve3dOptions opt;
    opt.nrhs = nrhs;
    solve_3d(F, world, grid, part, x, opt);
    if (world.rank() == 0) X = std::move(x);
  });

  ASSERT_EQ(X.size(), X0.size());
  for (index_t k = 0; k < nrhs; ++k) {
    std::vector<real_t> col(X0.begin() + static_cast<std::ptrdiff_t>(k) * static_cast<std::ptrdiff_t>(n),
                            X0.begin() + static_cast<std::ptrdiff_t>(k + 1) * static_cast<std::ptrdiff_t>(n));
    solve_factored(ref, col);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(X[static_cast<std::size_t>(k) * n + i], col[i], 1e-12)
          << "rhs " << k << " row " << i;
  }
}

}  // namespace
}  // namespace slu3d
