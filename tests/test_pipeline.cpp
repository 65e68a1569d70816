// Tests for the shared factorization pipeline engines (src/pipeline/):
//  - golden per-plane comm counters pinning the dense-mode wire format of
//    both variants to the pre-refactor byte counts on the fig9 configs,
//  - cross-variant schedule parity (LU vs Cholesky on the same SPD matrix),
//  - sparse z-reduction packing: bitwise-identical factors, reduced W_red,
//    savings counters,
//  - per-supernode vs whole-level reduction chunking,
//  - shared option validation.
#include <gtest/gtest.h>

#include <mutex>
#include <string>

#include "lu3d/factor3d.hpp"
#include "lu3d/factor3d_chol.hpp"
#include "numeric/dense_kernels.hpp"
#include "order/nested_dissection.hpp"
#include "pipeline/zreduce.hpp"
#include "sparse/generators.hpp"

namespace slu3d {
namespace {

using sim::CommPlane;
using sim::MachineModel;
using sim::ProcessGrid3D;
using sim::RunResult;
using sim::run_ranks;

const MachineModel kModel{};

struct PlaneTotals {
  offset_t bytes[2] = {0, 0};
  offset_t msgs[2] = {0, 0};
  offset_t max_recv[2] = {0, 0};
};

PlaneTotals plane_totals(const RunResult& res) {
  PlaneTotals t;
  for (const auto& r : res.ranks)
    for (std::size_t pl = 0; pl < 2; ++pl) {
      t.bytes[pl] += r.bytes_received[pl];
      t.msgs[pl] += r.messages_received[pl];
      t.max_recv[pl] = std::max(t.max_recv[pl], r.bytes_received[pl]);
    }
  return t;
}

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

RunResult run_lu3d(const Problem& p, int Px, int Py, int Pz,
                   const Lu3dOptions& opt = {}) {
  const ForestPartition part(p.bs, Pz);
  return run_ranks(Px * Py * Pz, kModel, [&](sim::Comm& world) {
    auto grid = ProcessGrid3D::create(world, Px, Py, Pz);
    Dist2dFactors F = make_3d_factors(p.bs, grid, part, p.Ap);
    factorize_3d(F, grid, part, opt);
  });
}

RunResult run_chol3d(const Problem& p, int Px, int Py, int Pz,
                     const Chol3dOptions& opt = {}) {
  const ForestPartition part(p.bs, Pz);
  return run_ranks(Px * Py * Pz, kModel, [&](sim::Comm& world) {
    auto grid = ProcessGrid3D::create(world, Px, Py, Pz);
    DistCholFactors F = make_3d_chol_factors(p.bs, grid, part, p.Ap);
    factorize_3d_cholesky(F, grid, part, opt);
  });
}

// ---------------------------------------------------------------------------
// Golden dense-mode communication counters. These pin the engines' default
// (Dense) wire format and schedule to the byte/message counts measured on
// the fig9 configs before the pipeline refactor: any change to panel
// broadcast payloads, stash scheduling, ancestor enumeration order, or
// packed block layout shows up here.
// ---------------------------------------------------------------------------

struct GoldenCase {
  const char* name;  // fig9 problem class
  int Px, Py, Pz;
  // {XY bytes, Z bytes, XY msgs, Z msgs, max XY recv, max Z recv}, summed /
  // maxed over all ranks.
  offset_t lu[6];
  offset_t chol[6];
};

constexpr GoldenCase kGolden[] = {
    {"planar", 4, 4, 1, {3369936, 0, 6840, 0, 295648, 0},
     {2753712, 0, 6069, 0, 296432, 0}},
    {"planar", 2, 4, 2, {2246624, 18432, 4560, 1, 202448, 18432},
     {1630400, 9408, 3789, 1, 191616, 9408}},
    {"planar", 2, 2, 4, {1123312, 100232, 2280, 7, 127824, 59904},
     {917904, 50880, 2023, 6, 134168, 30432}},
    {"planar", 1, 2, 8, {561656, 351088, 1140, 23, 74320, 124416},
     {356248, 177824, 883, 17, 37104, 63072}},
    {"nonplanar", 4, 4, 1, {7395072, 0, 2844, 0, 690736, 0},
     {6054384, 0, 2541, 0, 734160, 0}},
    {"nonplanar", 2, 4, 2, {4930048, 165888, 1896, 1, 613944, 165888},
     {3589360, 83520, 1593, 1, 492312, 83520}},
    {"nonplanar", 2, 2, 4, {2465024, 872064, 948, 7, 482968, 539136},
     {2018128, 438288, 847, 6, 518064, 271008}},
    {"nonplanar", 1, 2, 8, {1232512, 2571848, 474, 23, 427056, 1005696},
     {785616, 1292024, 373, 17, 187512, 505296}},
};

class GoldenCommCounters : public ::testing::TestWithParam<GoldenCase> {};

void expect_totals(const RunResult& res, const offset_t (&want)[6],
                   const char* variant) {
  const PlaneTotals t = plane_totals(res);
  EXPECT_EQ(t.bytes[0], want[0]) << variant << " XY bytes";
  EXPECT_EQ(t.bytes[1], want[1]) << variant << " Z bytes";
  EXPECT_EQ(t.msgs[0], want[2]) << variant << " XY messages";
  EXPECT_EQ(t.msgs[1], want[3]) << variant << " Z messages";
  EXPECT_EQ(t.max_recv[0], want[4]) << variant << " max XY recv";
  EXPECT_EQ(t.max_recv[1], want[5]) << variant << " max Z recv";
}

TEST_P(GoldenCommCounters, DenseModeMatchesPreRefactorBytes) {
  const GoldenCase& c = GetParam();
  const Problem p = fig9_problem(std::string(c.name) == "planar");
  expect_totals(run_lu3d(p, c.Px, c.Py, c.Pz), c.lu, "LU");
  expect_totals(run_chol3d(p, c.Px, c.Py, c.Pz), c.chol, "Chol");
}

INSTANTIATE_TEST_SUITE_P(
    Fig9Configs, GoldenCommCounters, ::testing::ValuesIn(kGolden),
    [](const auto& pi) {
      return std::string(pi.param.name) + "_" + std::to_string(pi.param.Px) +
             "x" + std::to_string(pi.param.Py) + "x" +
             std::to_string(pi.param.Pz);
    });

// ---------------------------------------------------------------------------
// Cross-variant schedule parity: factoring the same SPD matrix with the LU
// and Cholesky policies must produce the same communication *shape* — the
// symmetric variant moves roughly half the z-reduction volume (it packs one
// triangle instead of two rectangles) and strictly fewer panel messages (no
// U-panel broadcasts), but the level schedule is shared, so counts stay
// within a narrow ratio band rather than diverging structurally.
// ---------------------------------------------------------------------------

TEST(CrossVariantParity, CholMovesHalfTheReductionVolumeOfLu) {
  const GridGeometry g{8, 8, 8};
  const CsrMatrix A = grid3d_laplacian(g, Stencil3D::SevenPoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 16});
  const Problem p{BlockStructure(A, tree), A.permuted_symmetric(tree.perm())};

  const PlaneTotals lu = plane_totals(run_lu3d(p, 2, 2, 4));
  const PlaneTotals ch = plane_totals(run_chol3d(p, 2, 2, 4));

  ASSERT_GT(lu.bytes[1], 0);
  ASSERT_GT(ch.bytes[1], 0);
  // Z volume: triangle vs two rectangles + full diagonal → ratio ~0.5.
  const double z_ratio = static_cast<double>(ch.bytes[1]) /
                         static_cast<double>(lu.bytes[1]);
  EXPECT_GT(z_ratio, 0.40);
  EXPECT_LT(z_ratio, 0.62);
  // XY traffic: Cholesky broadcasts fewer, smaller panels.
  EXPECT_LT(ch.bytes[0], lu.bytes[0]);
  EXPECT_LT(ch.msgs[0], lu.msgs[0]);
  // Same level schedule: reduction message counts stay comparable (the
  // symmetric variant may skip more structurally-empty chunks, never more
  // than half of them here).
  EXPECT_LE(ch.msgs[1], lu.msgs[1]);
  EXPECT_GE(2 * ch.msgs[1], lu.msgs[1]);
}

// ---------------------------------------------------------------------------
// Sparse z-reduction packing. Must change no numeric value (the factors are
// compared bitwise against the dense run) while sending strictly fewer
// reduction bytes and reporting the savings in the zred_* counters.
// ---------------------------------------------------------------------------

Problem sparse_test_problem() {
  // Exactly fig10's K2D5pt at tiny scale (32x32 five-point Laplacian,
  // leaf_size 32): with Pz = 4 the shallow subtrees leave several ancestor
  // replica blocks untouched, so sparse packing has something to skip.
  const GridGeometry g{32, 32, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 32});
  return {BlockStructure(A, tree), A.permuted_symmetric(tree.perm())};
}

/// Factors with the given options and gathers the result on rank 0.
SupernodalMatrix gather_lu3d(const Problem& p, int Px, int Py, int Pz,
                             const Lu3dOptions& opt, RunResult* res_out = nullptr) {
  const ForestPartition part(p.bs, Pz);
  SupernodalMatrix gathered(p.bs);
  std::mutex mu;
  RunResult res = run_ranks(Px * Py * Pz, kModel, [&](sim::Comm& world) {
    auto grid = ProcessGrid3D::create(world, Px, Py, Pz);
    Dist2dFactors F = make_3d_factors(p.bs, grid, part, p.Ap);
    factorize_3d(F, grid, part, opt);
    auto full = gather_3d_to_root(F, world, grid, part);
    if (full.has_value()) {
      const std::lock_guard<std::mutex> lock(mu);
      gathered = std::move(*full);
    }
  });
  if (res_out) *res_out = std::move(res);
  return gathered;
}

void expect_bitwise_equal(const SupernodalMatrix& a, const SupernodalMatrix& b,
                          index_t n) {
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j <= i; ++j) {
      ASSERT_EQ(a.l_entry(i, j), b.l_entry(i, j)) << "L(" << i << "," << j << ")";
      ASSERT_EQ(a.u_entry(j, i), b.u_entry(j, i)) << "U(" << j << "," << i << ")";
    }
}

TEST(SparseZReduction, BitwiseIdenticalFactorsAndReducedWred) {
  const Problem p = sparse_test_problem();
  Lu3dOptions dense, sparse;
  sparse.packing = pipeline::ZRedPacking::Sparse;

  RunResult rd, rs;
  const SupernodalMatrix fd = gather_lu3d(p, 2, 2, 4, dense, &rd);
  const SupernodalMatrix fs = gather_lu3d(p, 2, 2, 4, sparse, &rs);
  expect_bitwise_equal(fd, fs, p.bs.n());

  // Dense mode reports no savings.
  EXPECT_EQ(rd.total_zred_bytes_saved(), 0);
  EXPECT_EQ(rd.total_zred_blocks_total(), 0);

  // Sparse mode skips blocks and shrinks the reduction plane everywhere
  // it is measured: total sent, per-rank max received (paper W_red).
  EXPECT_GT(rs.total_zred_blocks_total(), 0);
  EXPECT_GT(rs.total_zred_blocks_skipped(), 0);
  EXPECT_LT(rs.total_zred_blocks_skipped(), rs.total_zred_blocks_total());
  EXPECT_GT(rs.total_zred_bytes_saved(), 0);
  EXPECT_LT(rs.total_bytes_sent(CommPlane::Z), rd.total_bytes_sent(CommPlane::Z));
  EXPECT_LT(rs.max_bytes_received(CommPlane::Z),
            rd.max_bytes_received(CommPlane::Z));
  // The savings counter is exact: dense volume = sparse volume + saved.
  EXPECT_EQ(rs.total_bytes_sent(CommPlane::Z) + rs.total_zred_bytes_saved(),
            rd.total_bytes_sent(CommPlane::Z));
  // The XY (2D factorization) plane is untouched by the packing mode.
  EXPECT_EQ(rs.total_bytes_sent(CommPlane::XY),
            rd.total_bytes_sent(CommPlane::XY));
}

TEST(SparseZReduction, CholeskyVariantAlsoSavesWithIdenticalFactors) {
  const Problem p = sparse_test_problem();
  const ForestPartition part(p.bs, 4);

  auto gather = [&](const Chol3dOptions& opt, RunResult* res_out) {
    CholeskyFactors gathered(p.bs);
    std::mutex mu;
    RunResult res = run_ranks(16, kModel, [&](sim::Comm& world) {
      auto grid = ProcessGrid3D::create(world, 2, 2, 4);
      DistCholFactors F = make_3d_chol_factors(p.bs, grid, part, p.Ap);
      factorize_3d_cholesky(F, grid, part, opt);
      auto full = gather_3d_cholesky(F, world, grid, part);
      if (full.has_value()) {
        const std::lock_guard<std::mutex> lock(mu);
        gathered = std::move(*full);
      }
    });
    *res_out = std::move(res);
    return gathered;
  };

  Chol3dOptions dense, sparse;
  sparse.packing = pipeline::ZRedPacking::Sparse;
  RunResult rd, rs;
  const CholeskyFactors fd = gather(dense, &rd);
  const CholeskyFactors fs = gather(sparse, &rs);
  for (index_t i = 0; i < p.bs.n(); ++i)
    for (index_t j = 0; j <= i; ++j)
      ASSERT_EQ(fd.l_entry(i, j), fs.l_entry(i, j))
          << "L(" << i << "," << j << ")";

  EXPECT_GT(rs.total_zred_bytes_saved(), 0);
  EXPECT_LT(rs.total_bytes_sent(CommPlane::Z), rd.total_bytes_sent(CommPlane::Z));
  EXPECT_EQ(rs.total_bytes_sent(CommPlane::Z) + rs.total_zred_bytes_saved(),
            rd.total_bytes_sent(CommPlane::Z));
}

TEST(SparseZReduction, ChunkedAndBlockingPathsMatchBitwise) {
  const Problem p = sparse_test_problem();
  const SupernodalMatrix ref = gather_lu3d(p, 2, 2, 4, {});

  Lu3dOptions chunked;
  chunked.chunk_snodes = 3;
  chunked.packing = pipeline::ZRedPacking::Sparse;
  expect_bitwise_equal(ref, gather_lu3d(p, 2, 2, 4, chunked), p.bs.n());

  // One chunk per level: the message shape of a single whole-level
  // exchange, drained before the next level like any other chunk.
  Lu3dOptions whole_level;
  whole_level.chunk_snodes = p.bs.n_snodes();
  whole_level.packing = pipeline::ZRedPacking::Sparse;
  expect_bitwise_equal(ref, gather_lu3d(p, 2, 2, 4, whole_level), p.bs.n());
}

// ---------------------------------------------------------------------------
// Option validation happens once, in the shared engines, for both variants.
// ---------------------------------------------------------------------------

TEST(PipelineOptions, EngineRejectsInvalidOptionsForBothVariants) {
  const GridGeometry g{8, 8, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 8});
  const Problem p{BlockStructure(A, tree), A.permuted_symmetric(tree.perm())};

  Lu3dOptions bad_lookahead;
  bad_lookahead.lu2d.lookahead = -1;
  EXPECT_THROW(run_lu3d(p, 2, 2, 1, bad_lookahead), Error);

  Chol3dOptions bad_chol;
  bad_chol.chol2d.lookahead = -2;
  EXPECT_THROW(run_chol3d(p, 2, 2, 1, bad_chol), Error);

  Lu3dOptions bad_chunk;
  bad_chunk.chunk_snodes = 0;
  EXPECT_THROW(run_lu3d(p, 2, 2, 2, bad_chunk), Error);

  Chol3dOptions bad_chol_chunk;
  bad_chol_chunk.chunk_snodes = -4;
  EXPECT_THROW(run_chol3d(p, 2, 2, 2, bad_chol_chunk), Error);
}

TEST(PipelineOptions, ValidationMessagesAreActionable) {
  pipeline::PanelOptions po;
  po.lookahead = -3;
  try {
    pipeline::validate_panel_options(po);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("lookahead"), std::string::npos);
  }
  pipeline::ZRedOptions zo;
  zo.chunk_snodes = 0;
  try {
    pipeline::validate_zred_options(zo);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("chunk"), std::string::npos);
  }
}

TEST(PipelineOptions, AliasesShareTheEngineTypes) {
  // The per-variant option names are aliases of the shared pipeline
  // structs, so code written against either name interoperates.
  static_assert(std::is_same_v<Lu2dOptions, pipeline::PanelOptions>);
  static_assert(std::is_same_v<Chol2dOptions, pipeline::PanelOptions>);
  static_assert(std::is_base_of_v<pipeline::ZRedOptions, Lu3dOptions>);
  static_assert(std::is_base_of_v<pipeline::ZRedOptions, Chol3dOptions>);
  Lu3dOptions o;
  o.chunk_snodes = 2;
  const pipeline::ZRedOptions& shared = o;
  EXPECT_EQ(shared.chunk_snodes, 2);
}

TEST(PipelineOptions, ZeroLookaheadStillFactorsCorrectly) {
  const Problem p = sparse_test_problem();
  const SupernodalMatrix ref = gather_lu3d(p, 2, 2, 4, {});
  Lu3dOptions no_la;
  no_la.lu2d.lookahead = 0;
  expect_bitwise_equal(ref, gather_lu3d(p, 2, 2, 4, no_la), p.bs.n());
}

// ---------------------------------------------------------------------------
// Unit coverage for the sparse-packing primitives.
// ---------------------------------------------------------------------------

TEST(SparsePackPrimitives, AllZeroScan) {
  std::vector<real_t> x(37, 0.0);
  EXPECT_TRUE(dense::all_zero(x.data(), x.size()));
  EXPECT_TRUE(dense::all_zero(x.data(), 0));
  x[36] = 1e-300;
  EXPECT_FALSE(dense::all_zero(x.data(), x.size()));
  x[36] = 0.0;
  x[0] = -0.0;
  EXPECT_TRUE(dense::all_zero(x.data(), x.size()));  // signed zero is zero
  x[17] = -2.5;
  EXPECT_FALSE(dense::all_zero(x.data(), x.size()));
}

TEST(SparsePackPrimitives, TriangularBlockZeroScanIgnoresUpperPart) {
  // A 3x3 column-major "diagonal" block: only the lower triangle travels,
  // so garbage in the strict upper part must not make the block present.
  const index_t n = 3;
  std::vector<real_t> blk(static_cast<std::size_t>(n * n), 0.0);
  blk[3] = 99.0;  // (0,1): strictly upper
  blk[6] = -1.0;  // (0,2): strictly upper
  EXPECT_TRUE(pipeline::block_all_zero(blk, n));
  blk[4] = 0.5;  // (1,1): on the diagonal
  EXPECT_FALSE(pipeline::block_all_zero(blk, n));
}

}  // namespace
}  // namespace slu3d
