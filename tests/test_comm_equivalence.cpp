// Communication-schedule equivalence harness. The pipeline engines have
// two settable values — the lookahead and the Wire of both planes (XY
// panel transfers and Z ancestor reduction) — and every combination must
// factor to the *same numbers* as the dense baseline while never moving
// more bytes on either plane. This file sweeps grid shape x lookahead x
// wire and asserts exactly that, subsuming the one-off pins that
// test_pipeline.cpp used to accumulate:
//  - factors compare equal entry-for-entry against the dense baseline of
//    the same shape (operator==, so the +-0.0 produced by skipping an
//    all-zero Schur contribution is equal to the -0.0 the dense GEMM would
//    have added): the wire and the lookahead never change the numbers,
//  - XY received volume and message count are monotonically
//    non-increasing vs. the baseline: exactly equal on the Dense wire (any
//    lookahead runs the same binomial trees), strictly smaller volume
//    under targeted panel delivery,
//  - Z message counts equal the baseline's on every point (both wires send
//    one message per non-empty ancestor), and Z volume equals it on the
//    Dense wire and differs under the targeted frames once there is a
//    reduction (Pz > 1): the bitmap overhead may make it slightly larger
//    on mostly-dense reduction levels.
// It also pins the fig10 acceptance bar: >= 15% of the dense XY volume
// eliminated on a K2D5pt-class matrix at Pz = 4.
#include <gtest/gtest.h>

#include <cstddef>
#include <mutex>
#include <string>

#include "lu3d/factor3d.hpp"
#include "order/nested_dissection.hpp"
#include "sparse/generators.hpp"

namespace slu3d {
namespace {

using sim::CommPlane;
using sim::MachineModel;
using sim::ProcessGrid3D;
using sim::RunResult;
using sim::run_ranks;

const MachineModel kModel{};

struct Problem {
  BlockStructure bs;
  CsrMatrix Ap;
};

Problem fig9_problem(bool planar) {
  if (planar) {
    const GridGeometry g{48, 48, 1};
    const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
    const SeparatorTree tree = geometric_nd(g, {.leaf_size = 16});
    return {BlockStructure(A, tree), A.permuted_symmetric(tree.perm())};
  }
  const GridGeometry g{12, 12, 12};
  const CsrMatrix A = grid3d_laplacian(g, Stencil3D::SevenPoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 24});
  return {BlockStructure(A, tree), A.permuted_symmetric(tree.perm())};
}

/// One point of the sweep: both settable values of Algorithm 1.
struct Knobs {
  const char* name;
  LuOptions opt;
};

/// The reference every sweep point is compared against: the default
/// options, the dense wire format on both planes.
constexpr Knobs kBaseline{"async_dense_la8", {}};

constexpr Knobs kSweep[] = {
    {"async_dense_la0", {.lookahead = 0}},
    {"async_targeted_la8", {.wire = Wire::Targeted}},
    {"async_targeted_la0", {.lookahead = 0, .wire = Wire::Targeted}},
};

struct LuRun {
  SupernodalMatrix F;
  RunResult res;
};

/// Pulls the factors back to rank 0 *inside* the simulated run, so the
/// gather traffic is part of the counters. It is identical across all
/// sweep points of one problem/shape (the factors are identical), so it
/// cancels out of every relative comparison.
LuRun run_lu(const Problem& p, int Px, int Py, int Pz, const Knobs& k) {
  const ForestPartition part(p.bs, Pz);
  LuRun out{SupernodalMatrix(p.bs), {}};
  std::mutex mu;
  out.res = run_ranks(Px * Py * Pz, kModel, [&](sim::Comm& world) {
    auto grid = ProcessGrid3D::create(world, Px, Py, Pz);
    Dist2dFactors F = make_3d_factors(p.bs, grid, part, p.Ap);
    factorize_3d(F, grid, part, k.opt);
    auto full = gather_3d_to_root(F, world, grid, part);
    if (full.has_value()) {
      const std::lock_guard<std::mutex> lock(mu);
      out.F = std::move(*full);
    }
  });
  return out;
}

/// Counts elementwise (operator==) mismatches between two factor storages,
/// remembering the first for the failure message. Whole-storage compare is
/// O(nnz), cheap enough to run the full sweep under the sanitizers.
struct Mismatch {
  std::size_t count = 0;
  std::string first;

  void compare(std::span<const real_t> a, std::span<const real_t> b,
               const char* what, int s) {
    if (a.size() != b.size()) {
      ++count;
      if (first.empty())
        first = std::string(what) + " snode " + std::to_string(s) +
                ": size mismatch";
      return;
    }
    for (std::size_t i = 0; i < a.size(); ++i)
      if (a[i] != b[i]) {
        ++count;
        if (first.empty())
          first = std::string(what) + " snode " + std::to_string(s) + " idx " +
                  std::to_string(i) + ": " + std::to_string(a[i]) +
                  " != " + std::to_string(b[i]);
      }
  }
};

void expect_factors_equal(const SupernodalMatrix& a, const SupernodalMatrix& b) {
  Mismatch mm;
  for (int s = 0; s < a.structure().n_snodes(); ++s) {
    mm.compare(a.diag(s), b.diag(s), "diag", s);
    mm.compare(a.lpanel(s), b.lpanel(s), "L", s);
    mm.compare(a.upanel(s), b.upanel(s), "U", s);
  }
  EXPECT_EQ(mm.count, 0u) << "first mismatch: " << mm.first;
}

struct PlaneTotals {
  offset_t bytes[2] = {0, 0};
  offset_t msgs[2] = {0, 0};
};

PlaneTotals plane_totals(const RunResult& res) {
  PlaneTotals t;
  for (const auto& r : res.ranks)
    for (std::size_t pl = 0; pl < 2; ++pl) {
      t.bytes[pl] += r.bytes_received[pl];
      t.msgs[pl] += r.messages_received[pl];
    }
  return t;
}

/// The per-sweep-point assertions.
void check_against_baseline(const Knobs& k, int Pz, const RunResult& base,
                            const RunResult& v) {
  const PlaneTotals bt = plane_totals(base);
  const PlaneTotals vt = plane_totals(v);
  // XY is monotone non-increasing: no combination may move more panel
  // bytes or messages than the baseline.
  EXPECT_LE(vt.bytes[0], bt.bytes[0]) << "XY volume regressed";
  EXPECT_LE(vt.msgs[0], bt.msgs[0]) << "XY messages regressed";
  // Both z wires send one message per non-empty ancestor, so only the
  // volume may differ, and only once the targeted frames ran.
  EXPECT_EQ(vt.msgs[1], bt.msgs[1]) << "Z message count changed";
  if (k.opt.wire == Wire::Dense || Pz == 1) {
    EXPECT_EQ(vt.bytes[1], bt.bytes[1]);
  } else {
    EXPECT_NE(vt.bytes[1], bt.bytes[1]);  // the frames engaged
  }
  if (k.opt.wire == Wire::Dense) {
    // Dense XY wire format is schedule-invariant: any lookahead shares the
    // same binomial trees, byte for byte.
    EXPECT_EQ(vt.bytes[0], bt.bytes[0]);
    EXPECT_EQ(vt.msgs[0], bt.msgs[0]);
  } else {
    EXPECT_LT(vt.bytes[0], bt.bytes[0]);
  }
}

// ---------------------------------------------------------------------------
// The sweep: both wires at both lookaheads on every fig9 grid shape.
// ---------------------------------------------------------------------------

struct ShapeCase {
  const char* cls;
  int Px, Py, Pz;
};

/// gtest's default printer dumps the raw bytes of the case, `cls` pointer
/// included, into the listed test names, so they would change from run to
/// run under address-space randomisation.
void PrintTo(const ShapeCase& c, std::ostream* os) {
  *os << c.cls << ' ' << c.Px << 'x' << c.Py << 'x' << c.Pz;
}

constexpr ShapeCase kShapes[] = {
    {"planar", 4, 4, 1},    {"planar", 2, 4, 2}, {"planar", 2, 2, 4},
    {"planar", 1, 2, 8},    {"nonplanar", 2, 2, 4},
};

class CommEquivalence : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(CommEquivalence, LuFactorsEqualAndVolumesMonotone) {
  const ShapeCase& c = GetParam();
  const Problem p = fig9_problem(std::string(c.cls) == "planar");
  const LuRun base = run_lu(p, c.Px, c.Py, c.Pz, kBaseline);
  for (const Knobs& k : kSweep) {
    SCOPED_TRACE(k.name);
    const LuRun v = run_lu(p, c.Px, c.Py, c.Pz, k);
    expect_factors_equal(base.F, v.F);
    check_against_baseline(k, c.Pz, base.res, v.res);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fig9Shapes, CommEquivalence, ::testing::ValuesIn(kShapes),
    [](const auto& pi) {
      return std::string(pi.param.cls) + "_" + std::to_string(pi.param.Px) +
             "x" + std::to_string(pi.param.Py) + "x" +
             std::to_string(pi.param.Pz);
    });

// ---------------------------------------------------------------------------
// The fig10 acceptance bar: on a K2D5pt-class matrix (fig10's planar
// family: five-point grid Laplacian, leaf 32, geometric ND) at Pz = 4,
// targeted panel delivery must eliminate at least 15% of the dense run's
// XY volume (diagonal sends included, which both wires send alike).
// ---------------------------------------------------------------------------

Problem fig10_class_problem() {
  const GridGeometry g{64, 64, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 32});
  return {BlockStructure(A, tree), A.permuted_symmetric(tree.perm())};
}

TEST(CommEquivalence, Fig10ClassPanelSavingsAtLeast15Percent) {
  const Problem p = fig10_class_problem();
  const Knobs targeted{"targeted", {.wire = Wire::Targeted}};

  const LuRun rd = run_lu(p, 2, 2, 4, kBaseline);
  const LuRun rt = run_lu(p, 2, 2, 4, targeted);
  expect_factors_equal(rd.F, rt.F);

  const offset_t dense_xy = plane_totals(rd.res).bytes[0];
  const offset_t targeted_xy = plane_totals(rt.res).bytes[0];
  ASSERT_GT(dense_xy, 0);
  const double ratio = static_cast<double>(dense_xy - targeted_xy) /
                       static_cast<double>(dense_xy);
  EXPECT_GE(ratio, 0.15) << "XY volume saving " << ratio * 100 << "%";
}

// ---------------------------------------------------------------------------
// All-empty-footprint receivers: a problem built so no non-root rank ever
// reads any panel entry. Leaf supernode 0 couples only to the root
// separator (block 2, whose Schur targets all live on supernode 0's own
// process row), and leaf supernode 1 is an isolated island with an empty
// panel. Under Targeted the data root therefore sends *zero* panel
// messages, and since every non-empty L or U block of both leaves sits on
// the diagonal owner itself, no rank receives a diagonal block either: the
// XY plane stays silent while the factors still match the dense run.
// ---------------------------------------------------------------------------

Problem empty_footprint_problem() {
  // Vertices {0,1} = leaf snode 0, {2,3} = island leaf snode 1,
  // {4,5} = root separator snode 2. Couplings: 0-4, 1-5, 2-3 only.
  const index_t n = 6;
  CooMatrix coo(n, n);
  auto pair = [&](index_t u, index_t v) {
    coo.add(u, v, -1.0);
    coo.add(v, u, -1.0);
  };
  pair(0, 4);
  pair(1, 5);
  pair(2, 3);
  for (index_t i = 0; i < n; ++i) coo.add(i, i, 4.0);
  const CsrMatrix A = CsrMatrix::from_coo(coo);

  std::vector<index_t> perm(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
  std::vector<SepTreeNode> nodes(3);
  nodes[0] = {.subtree_first = 0, .sep_first = 0, .sep_last = 2, .parent = 2};
  nodes[1] = {.subtree_first = 2, .sep_first = 2, .sep_last = 4, .parent = 2};
  nodes[2] = {.subtree_first = 0,
              .sep_first = 4,
              .sep_last = 6,
              .left = 0,
              .right = 1,
              .parent = -1};
  const SeparatorTree tree(std::move(perm), std::move(nodes), /*root=*/2);
  return {BlockStructure(A, tree), A.permuted_symmetric(tree.perm())};
}

TEST(CommEquivalence, TargetedAllEmptyFootprintsSendNoPanelData) {
  const Problem p = empty_footprint_problem();
  const Knobs targeted{"targeted", {.wire = Wire::Targeted}};

  // Px = 1, Py = 2: the lone non-root row peer never owns a Schur target
  // fed by any panel entry, so every footprint is empty.
  const LuRun rd = run_lu(p, 1, 2, 1, kBaseline);
  const LuRun rt = run_lu(p, 1, 2, 1, targeted);
  expect_factors_equal(rd.F, rt.F);

  // Every panel byte and message vanished from the wire, and no rank solves
  // against a diagonal it does not own, so nothing is left on it.
  const PlaneTotals dt = plane_totals(rd.res);
  const PlaneTotals tt = plane_totals(rt.res);
  EXPECT_EQ(tt.bytes[0], 0);
  EXPECT_EQ(tt.msgs[0], 0);
  EXPECT_GT(dt.bytes[0], tt.bytes[0]);  // the Dense run sends panel data
  EXPECT_GT(dt.msgs[0], tt.msgs[0]);
}

// ---------------------------------------------------------------------------
// Slot-pool validation: a lookahead beyond the stash pool bound is rejected
// up front, at engine entry; the bound itself is accepted.
// ---------------------------------------------------------------------------

TEST(PanelOptionsValidation, LookaheadBeyondSlotPoolBoundRejected) {
  const GridGeometry g{8, 8, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 8});
  const Problem p{BlockStructure(A, tree), A.permuted_symmetric(tree.perm())};
  Knobs k = kBaseline;
  k.opt.lookahead = kMaxPanelLookahead;
  EXPECT_NO_THROW(run_lu(p, 2, 2, 1, k));
  k.opt.lookahead = kMaxPanelLookahead + 1;
  EXPECT_THROW(run_lu(p, 2, 2, 1, k), Error);
}

}  // namespace
}  // namespace slu3d
