// The distributed triangular solve walks supernodes in a critical-path
// schedule (forward by ascending ND-tree height, the factorization's order
// too, backward by ascending depth). Only the order of each rank's local
// solve work depends on it, so the solution panels are pinned bitwise, and
// a fuzz over unbalanced general-ND trees checks that every rank ends with
// the same panel and a small residual under every z-depth. The lu2d_* pins
// are the Pz = 1 (pure 2D) configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

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

/// FNV-1a over the IEEE bit patterns of a panel.
std::uint64_t fnv1a(std::span<const real_t> v) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const real_t x : v) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

/// Factors A (ordered by `tree`) on a Px x Py x Pz grid, then solves the
/// permuted n x nrhs panel `pb`. Returns every rank's solution panel
/// (permuted index space).
std::vector<std::vector<real_t>> solve_on_every_rank(
    const CsrMatrix& A, const SeparatorTree& tree, int Px, int Py, int Pz,
    index_t nrhs, const std::vector<real_t>& pb) {
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  const ForestPartition part(bs, Pz);
  const int P = Px * Py * Pz;
  std::vector<std::vector<real_t>> per_rank(static_cast<std::size_t>(P));
  run_ranks(P, kModel, [&](sim::Comm& world) {
    std::vector<real_t> x(pb);
    auto grid = ProcessGrid3D::create(world, Px, Py, Pz);
    Dist2dFactors F = make_3d_factors(bs, grid, part, Ap);
    factorize_3d(F, grid, part, {});
    Solve3dOptions opt;
    opt.nrhs = nrhs;
    solve_3d(F, world, grid, part, x, opt);
    per_rank[static_cast<std::size_t>(world.rank())] = std::move(x);
  });
  return per_rank;
}

/// Seeded right-hand-side panel in the permuted index space.
std::vector<real_t> rhs_panel(index_t n, index_t nrhs, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<real_t> pb(static_cast<std::size_t>(n) *
                         static_cast<std::size_t>(nrhs));
  for (auto& v : pb) v = rng.uniform(-1, 1);
  return pb;
}

struct PinCase {
  const char* name;
  int Px, Py, Pz;
  index_t nrhs;
  /// One hash per kernel build: with the fast flags (-march=native, where
  /// FMA contraction applies) and without them (SLU3D_NATIVE=OFF and the
  /// sanitizer legs).
  std::uint64_t native_hash, portable_hash;
};

/// gtest's default printer dumps the raw bytes of the case, `name` pointer
/// included, into the listed test names, so they would change from run to
/// run under address-space randomisation.
void PrintTo(const PinCase& c, std::ostream* os) {
  *os << c.Px << 'x' << c.Py << 'x' << c.Pz << ", nrhs " << c.nrhs;
}

struct Problem {
  CsrMatrix A;
  SeparatorTree tree;
};

Problem pin_problem(const PinCase& c) {
  const std::string name = c.name;
  if (name == "lu3d_planar_3x1x2") {
    const GridGeometry g{11, 12, 1};
    return {grid2d_laplacian(g, Stencil2D::FivePoint),
            geometric_nd(g, {.leaf_size = 8})};
  }
  if (name == "lu3d_cube_2x3x4") {
    const GridGeometry g{4, 5, 4};
    return {grid3d_laplacian(g, Stencil3D::SevenPoint),
            geometric_nd(g, {.leaf_size = 10})};
  }
  if (name == "lu3d_convdiff_2x2x2") {
    CsrMatrix A = grid2d_convection_diffusion({9, 7, 1}, 0.5);
    SeparatorTree tree = nested_dissection(A, {.leaf_size = 8});
    return {std::move(A), std::move(tree)};
  }
  if (name == "lu2d_ninepoint_2x3") {
    CsrMatrix A = grid2d_laplacian({11, 9, 1}, Stencil2D::NinePoint);
    SeparatorTree tree = nested_dissection(A, {.leaf_size = 8});
    return {std::move(A), std::move(tree)};
  }
  // lu2d_convdiff_3x1
  CsrMatrix A = grid2d_convection_diffusion({10, 8, 1}, 0.3);
  SeparatorTree tree = nested_dissection(A, {.leaf_size = 6});
  return {std::move(A), std::move(tree)};
}

class SolveSchedulePin : public ::testing::TestWithParam<PinCase> {};

TEST_P(SolveSchedulePin, SolutionPanelHashIsPinned) {
  // The hashes were recorded with the factorization and the forward solve
  // sharing the leaves-first (nd_height, id) schedule. The factorization's
  // order fixes the order of the Schur contributions into each block, so
  // a change to it moves these bits at rounding level; a change to the
  // solve's routing or local order alone must not move a single bit.
  const PinCase& c = GetParam();
  const Problem pr = pin_problem(c);
  const auto pb = rhs_panel(pr.A.n_rows(), c.nrhs, 4242);
  const auto per_rank =
      solve_on_every_rank(pr.A, pr.tree, c.Px, c.Py, c.Pz, c.nrhs, pb);
  for (std::size_t r = 1; r < per_rank.size(); ++r)
    ASSERT_EQ(per_rank[r], per_rank[0]) << "rank " << r << " disagrees";
  const std::uint64_t h = fnv1a(per_rank[0]);
  EXPECT_TRUE(h == c.native_hash || h == c.portable_hash)
      << c.name << ": 0x" << std::hex << h;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SolveSchedulePin,
    ::testing::Values(
        PinCase{"lu3d_planar_3x1x2", 3, 1, 2, 1,
                0xb0d8093daa324711ull, 0x0518e2dbd854a432ull},
        PinCase{"lu3d_cube_2x3x4", 2, 3, 4, 16,
                0x9e0f51193d67bd09ull, 0x68c9c9bdd0d33ad4ull},
        PinCase{"lu3d_convdiff_2x2x2", 2, 2, 2, 3,
                0x012fac87a4abcd12ull, 0x37de58a624fc557bull},
        PinCase{"lu2d_ninepoint_2x3", 2, 3, 1, 3,
                0x83ade8b4b143ba16ull, 0x317746a1b7d213f1ull},
        PinCase{"lu2d_convdiff_3x1", 3, 1, 1, 1,
                0x3be06aa1a23de272ull, 0x6cbaeb44f43f1220ull}),
    [](const auto& pi) { return std::string(pi.param.name); });

/// Random symmetric-pattern matrix made of `islands` disconnected pieces
/// (each a random spanning path plus random chords), strictly diagonally
/// dominant. Islands give the ND tree empty separators; uneven island
/// sizes and random chords make it unbalanced.
CsrMatrix random_islands(Rng& rng, index_t n, int islands, bool symmetric) {
  CooMatrix coo(n, n);
  std::vector<real_t> diag(static_cast<std::size_t>(n), 0.0);
  auto add_pair = [&](index_t u, index_t v) {
    if (u == v) return;
    const real_t a = rng.uniform(-1.0, 1.0);
    const real_t b = symmetric ? a : rng.uniform(-1.0, 1.0);
    coo.add(u, v, a);
    coo.add(v, u, b);
    diag[static_cast<std::size_t>(u)] += std::abs(a);
    diag[static_cast<std::size_t>(v)] += std::abs(b);
  };
  std::vector<index_t> cuts{0, n};
  for (int k = 1; k < islands; ++k) cuts.push_back(1 + rng.next_index(n - 1));
  std::sort(cuts.begin(), cuts.end());
  for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
    const index_t lo = cuts[k], hi = cuts[k + 1];
    if (hi - lo < 2) continue;
    for (index_t i = lo; i + 1 < hi; ++i) add_pair(i, i + 1);
    for (index_t e = 0; e < hi - lo; ++e)
      add_pair(lo + rng.next_index(hi - lo), lo + rng.next_index(hi - lo));
  }
  for (index_t i = 0; i < n; ++i)
    coo.add(i, i, diag[static_cast<std::size_t>(i)] * 1.1 + 0.5);
  return CsrMatrix::from_coo(coo);
}

/// Norm-wise relative residual of every panel column, maximised.
real_t relative_residual(const CsrMatrix& A, const SeparatorTree& tree,
                         std::span<const real_t> px, std::span<const real_t> pb,
                         index_t nrhs) {
  const auto n = static_cast<std::size_t>(A.n_rows());
  const auto pinv = invert_permutation(tree.perm());
  const real_t anorm = A.norm_inf();
  real_t worst = 0.0;
  std::vector<real_t> x(n), b(n), ax(n);
  for (index_t j = 0; j < nrhs; ++j) {
    const auto off = static_cast<std::size_t>(j) * n;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = px[off + static_cast<std::size_t>(pinv[i])];
      b[i] = pb[off + static_cast<std::size_t>(pinv[i])];
    }
    A.spmv(x, ax);
    real_t rn = 0.0, xn = 0.0, bn = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      rn = std::max(rn, std::abs(ax[i] - b[i]));
      xn = std::max(xn, std::abs(x[i]));
      bn = std::max(bn, std::abs(b[i]));
    }
    worst = std::max(worst, rn / (anorm * xn + bn));
  }
  return worst;
}

class SolveScheduleFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SolveScheduleFuzz, EveryRankAgreesAndResidualIsSmall) {
  // Random unbalanced trees with empty separators, under every z-depth,
  // drive the solve's contribution packs (one per source and target per
  // sweep) and its slice broadcast trees through shapes the grid
  // generators never produce.
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 4391 + 17);
  const index_t n = 40 + rng.next_index(80);
  const bool symmetric = seed % 2 == 0;
  const CsrMatrix A =
      random_islands(rng, n, 1 + static_cast<int>(rng.next_index(3)), symmetric);
  const SeparatorTree tree =
      nested_dissection(A, {.leaf_size = 3 + rng.next_index(8)});
  const int planes[][2] = {{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 1}, {2, 3}};
  const auto& pl = planes[rng.next_index(6)];
  const int Pz = 1 << (seed % 4);
  const index_t nrhs = rng.next_index(2) == 0 ? 1 : 3;
  const auto pb = rhs_panel(n, nrhs, static_cast<std::uint64_t>(seed) + 99);

  for (const int pz : {Pz, 1}) {
    const auto per_rank =
        solve_on_every_rank(A, tree, pl[0], pl[1], pz, nrhs, pb);
    for (std::size_t r = 1; r < per_rank.size(); ++r)
      ASSERT_EQ(per_rank[r], per_rank[0])
          << "seed " << seed << " on " << pl[0] << "x" << pl[1] << "x" << pz
          << ": rank " << r << " disagrees";
    EXPECT_LE(relative_residual(A, tree, per_rank[0], pb, nrhs), 1e-10)
        << "seed " << seed << " on " << pl[0] << "x" << pl[1] << "x" << pz;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolveScheduleFuzz, ::testing::Range(0, 12));

}  // namespace
}  // namespace slu3d
