#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
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
using sim::ProcessGrid2D;
using sim::ProcessGrid3D;
using sim::RunResult;
using sim::run_ranks;

const MachineModel kModel{};

/// Factorizes `A` on a Px x Py grid and returns the gathered factors,
/// checked entry-wise against the sequential factorization. The ranks form
/// a Px x Py x 1 grid, so that gather_3d_to_root can collect the factors.
void check_2d_matches_sequential(const CsrMatrix& A, const SeparatorTree& tree,
                                 int Px, int Py, int lookahead) {
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  const ForestPartition part(bs, 1);

  SupernodalMatrix ref(bs);
  ref.fill_from(Ap);
  factorize_sequential(ref);

  SupernodalMatrix gathered(bs);  // filled on rank 0 below
  std::mutex mu;
  run_ranks(Px * Py, kModel, [&](sim::Comm& world) {
    auto grid = ProcessGrid3D::create(world, Px, Py, 1);
    Dist2dFactors F(bs, Px, Py, grid.plane().px(), grid.plane().py());
    F.fill_from(Ap);
    std::vector<int> all(static_cast<std::size_t>(bs.n_snodes()));
    std::iota(all.begin(), all.end(), 0);
    factorize_2d(F, grid.plane(), all, {.lookahead = lookahead});
    auto full = gather_3d_to_root(F, world, grid, part);
    if (full.has_value()) {
      const std::lock_guard<std::mutex> lock(mu);
      gathered = std::move(*full);
    }
  });

  for (index_t i = 0; i < bs.n(); ++i)
    for (index_t j = 0; j <= i; ++j) {
      ASSERT_NEAR(gathered.l_entry(i, j), ref.l_entry(i, j), 1e-11)
          << "L(" << i << "," << j << ") Px=" << Px << " Py=" << Py;
      ASSERT_NEAR(gathered.u_entry(j, i), ref.u_entry(j, i), 1e-11)
          << "U(" << j << "," << i << ")";
    }
}

struct GridCase {
  int Px, Py, lookahead;
};

class Lu2dGrids : public ::testing::TestWithParam<GridCase> {};

TEST_P(Lu2dGrids, MatchesSequentialOn2dGrid) {
  const auto [Px, Py, la] = GetParam();
  const GridGeometry g{10, 10, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = nested_dissection(A, {.leaf_size = 8});
  check_2d_matches_sequential(A, tree, Px, Py, la);
}

INSTANTIATE_TEST_SUITE_P(
    GridShapes, Lu2dGrids,
    ::testing::Values(GridCase{1, 1, 0}, GridCase{1, 2, 0}, GridCase{2, 1, 8},
                      GridCase{2, 2, 0}, GridCase{2, 2, 8}, GridCase{2, 3, 4},
                      GridCase{3, 2, 8}, GridCase{4, 2, 16}),
    [](const auto& pi) {
      return "Px" + std::to_string(pi.param.Px) + "Py" +
             std::to_string(pi.param.Py) + "La" + std::to_string(pi.param.lookahead);
    });

TEST(Lu2d, MatchesSequentialOn3dMatrix) {
  const GridGeometry g{4, 4, 4};
  const CsrMatrix A = grid3d_laplacian(g, Stencil3D::SevenPoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 8});
  check_2d_matches_sequential(A, tree, 2, 2, 8);
}

TEST(Lu2d, MatchesSequentialOnNonsymmetricValues) {
  const GridGeometry g{8, 6, 1};
  const CsrMatrix A = grid2d_convection_diffusion(g, 0.5);
  const SeparatorTree tree = nested_dissection(A, {.leaf_size = 6});
  check_2d_matches_sequential(A, tree, 2, 2, 4);
}

TEST(Lu2d, SolvesViaGatheredFactors) {
  const GridGeometry g{12, 12, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 16});
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  const ForestPartition part(bs, 1);
  const auto pinv = invert_permutation(tree.perm());

  Rng rng(3);
  const auto n = static_cast<std::size_t>(A.n_rows());
  std::vector<real_t> xref(n), b(n);
  for (auto& v : xref) v = rng.uniform(-1, 1);
  A.spmv(xref, b);

  std::vector<real_t> x(n);
  std::mutex mu;
  run_ranks(4, kModel, [&](sim::Comm& world) {
    auto grid = ProcessGrid3D::create(world, 2, 2, 1);
    Dist2dFactors F(bs, 2, 2, grid.plane().px(), grid.plane().py());
    F.fill_from(Ap);
    std::vector<int> all(static_cast<std::size_t>(bs.n_snodes()));
    std::iota(all.begin(), all.end(), 0);
    factorize_2d(F, grid.plane(), all, {});
    auto full = gather_3d_to_root(F, world, grid, part);
    if (full.has_value()) {
      std::vector<real_t> pb(n);
      for (std::size_t i = 0; i < n; ++i)
        pb[static_cast<std::size_t>(pinv[i])] = b[i];
      solve_factored(*full, pb);
      const std::lock_guard<std::mutex> lock(mu);
      for (std::size_t i = 0; i < n; ++i) x[i] = pb[static_cast<std::size_t>(pinv[i])];
    }
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-8);
}

TEST(Lu2d, CommunicationDropsWithBiggerGridForFixedWork) {
  // More processes => less per-process communication volume (Eq. 2 trend).
  const GridGeometry g{20, 20, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 16});
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());

  auto run = [&](int Px, int Py) {
    return run_ranks(Px * Py, kModel, [&](sim::Comm& world) {
      auto grid = ProcessGrid2D::create(world, Px, Py);
      Dist2dFactors F(bs, Px, Py, grid.px(), grid.py());
      F.fill_from(Ap);
      std::vector<int> all(static_cast<std::size_t>(bs.n_snodes()));
      std::iota(all.begin(), all.end(), 0);
      factorize_2d(F, grid, all, {});
    });
  };
  const RunResult r2 = run(2, 2);
  const RunResult r4 = run(4, 4);
  EXPECT_GT(r2.max_bytes_received(CommPlane::XY), 0);
  // Per-process volume shrinks roughly like 1/sqrt(P): allow slack.
  EXPECT_LT(r4.max_bytes_received(CommPlane::XY),
            r2.max_bytes_received(CommPlane::XY));
  // No Z-plane traffic in a pure 2D run.
  EXPECT_EQ(r2.total_bytes_sent(CommPlane::Z), 0);
}

TEST(Lu2d, LookaheadDoesNotChangeResultButHelpsClock) {
  const GridGeometry g{14, 14, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 8});
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());

  auto run = [&](int lookahead) {
    return run_ranks(4, kModel, [&](sim::Comm& world) {
      auto grid = ProcessGrid2D::create(world, 2, 2);
      Dist2dFactors F(bs, 2, 2, grid.px(), grid.py());
      F.fill_from(Ap);
      std::vector<int> all(static_cast<std::size_t>(bs.n_snodes()));
      std::iota(all.begin(), all.end(), 0);
      factorize_2d(F, grid, all, {.lookahead = lookahead});
    });
  };
  const double t0 = run(0).max_clock();
  const double t8 = run(8).max_clock();
  EXPECT_GT(t0, 0.0);
  // Pipelining must never hurt the modelled critical path.
  EXPECT_LE(t8, t0 * 1.0 + 1e-12);
}

// ---------------------------------------------------------------------------
// Grid-derived lookahead window. An unset LuOptions::lookahead resolves to
// panel_lookahead(Px, Py) of the plane factorize_2d runs on: 8 below 64
// ranks, open (kMaxPanelLookahead) from 64 on; an explicit value wins.
// ---------------------------------------------------------------------------

/// A factorization of one node list on a Px x Py plane: its counters and
/// every rank's whole factor storage (diagonal, L and U blocks).
struct PlaneRun {
  RunResult res;
  std::vector<std::vector<real_t>> storage;  ///< per rank
};

PlaneRun factor_on_plane(const BlockStructure& bs, const CsrMatrix& Ap,
                         int Px, int Py, const LuOptions& opt) {
  PlaneRun out;
  out.storage.resize(static_cast<std::size_t>(Px * Py));
  std::mutex mu;
  out.res = run_ranks(Px * Py, kModel, [&](sim::Comm& world) {
    auto grid = ProcessGrid2D::create(world, Px, Py);
    Dist2dFactors F(bs, Px, Py, grid.px(), grid.py());
    F.fill_from(Ap);
    std::vector<int> all(static_cast<std::size_t>(bs.n_snodes()));
    std::iota(all.begin(), all.end(), 0);
    factorize_2d(F, grid, all, opt);
    std::vector<real_t> flat;
    for (int s = 0; s < bs.n_snodes(); ++s) {
      flat.insert(flat.end(), F.diag(s).begin(), F.diag(s).end());
      for (const auto blocks : {F.lblocks(s), F.ublocks(s)})
        for (const OwnedBlock& b : blocks)
          flat.insert(flat.end(), b.data.begin(), b.data.end());
    }
    const std::lock_guard<std::mutex> lock(mu);
    out.storage[static_cast<std::size_t>(world.rank())] = std::move(flat);
  });
  return out;
}

/// A 64 x 64 five-point Laplacian ordered at leaf 64, the relaxed
/// supernode size of an 8 x 8 x 1 grid.
struct Laplacian64 {
  GridGeometry g{64, 64, 1};
  CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  SeparatorTree tree = geometric_nd(g, {.leaf_size = 64});
  BlockStructure bs{A, tree};
  CsrMatrix Ap = A.permuted_symmetric(tree.perm());
};

TEST(PanelWindow, RuleOnEveryFig9Plane) {
  // The planes of the Fig. 9 sweep (P in {16, 64, 128}, every Pz in
  // {1, ..., 16} dividing P, square-ish): 8 from 1x1 to 4x8, open at
  // 8x8 and 8x16.
  const int eight[][2] = {{1, 1}, {1, 2}, {2, 2}, {2, 4}, {4, 4}, {4, 8}};
  for (const auto& [px, py] : eight)
    EXPECT_EQ(panel_lookahead(px, py), 8) << px << 'x' << py;
  const int open[][2] = {{8, 8}, {8, 16}};
  for (const auto& [px, py] : open)
    EXPECT_EQ(panel_lookahead(px, py), kMaxPanelLookahead) << px << 'x' << py;
}

TEST(PanelWindow, ExplicitWindowOverridesTheRule) {
  // The clock tells the windows apart: an unset window runs exactly like
  // the rule's explicit value and unlike any other.
  const Laplacian64 m;
  const auto clock = [&](int Px, int Py, const LuOptions& opt) {
    return factor_on_plane(m.bs, m.Ap, Px, Py, opt).res.max_clock();
  };
  const double open88 = clock(8, 8, {});
  EXPECT_EQ(open88, clock(8, 8, {.lookahead = kMaxPanelLookahead}));
  EXPECT_NE(open88, clock(8, 8, {.lookahead = 8}));
  EXPECT_NE(open88, clock(8, 8, {.lookahead = 0}));
  const double eight44 = clock(4, 4, {});
  EXPECT_EQ(eight44, clock(4, 4, {.lookahead = 8}));
  EXPECT_NE(eight44, clock(4, 4, {.lookahead = 0}));
}

TEST(PanelWindow, OpenWindowShortensTargetedFactorizationOn8x8) {
  // On a 64-rank plane the rule opens the window, which keeps more
  // independent leaves' panel messages in flight than a window of 8. The
  // Schur pairs and their order do not change, so neither do the factors.
  const Laplacian64 m;
  const PlaneRun ruled =
      factor_on_plane(m.bs, m.Ap, 8, 8, {.wire = Wire::Targeted});
  const PlaneRun eight = factor_on_plane(
      m.bs, m.Ap, 8, 8, {.lookahead = 8, .wire = Wire::Targeted});
  EXPECT_LT(ruled.res.max_clock(), eight.res.max_clock());
  ASSERT_EQ(ruled.storage.size(), eight.storage.size());
  for (std::size_t r = 0; r < ruled.storage.size(); ++r) {
    const auto& a = ruled.storage[r];
    const auto& b = eight.storage[r];
    ASSERT_EQ(a.size(), b.size()) << "rank " << r;
    for (std::size_t i = 0; i < a.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
                std::bit_cast<std::uint64_t>(b[i]))
          << "rank " << r << ", value " << i;
  }
}

}  // namespace
}  // namespace slu3d
