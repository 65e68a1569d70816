// Tier-1 tests for the resident SolverService: pattern-cache hits must
// skip the analysis pipeline entirely (verified by construction counts),
// refactorization must match a cold factorization bitwise, batched panel
// solves must match sequential single-RHS solves, queued solve streams
// must match one-at-a-time solves, and the LRU must bound resident memory.
#include <gtest/gtest.h>

#include <cmath>

#include "service/solver_service.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"

namespace slu3d {
namespace {

using service::FactorReport;
using service::ServiceOptions;
using service::SolveReport;
using service::SolveRequest;
using service::SolverService;

/// Same sparsity pattern, different values (diagonal perturbed, stays
/// diagonally dominant).
CsrMatrix perturbed_values(const CsrMatrix& A, real_t diag_factor) {
  std::vector<real_t> vals(A.values().begin(), A.values().end());
  for (index_t r = 0; r < A.n_rows(); ++r) {
    const auto cols = A.row_cols(r);
    const auto base =
        static_cast<std::size_t>(A.row_ptr()[static_cast<std::size_t>(r)]);
    for (std::size_t k = 0; k < cols.size(); ++k)
      if (cols[k] == r) vals[base + k] *= diag_factor;
  }
  return CsrMatrix::from_raw(
      A.n_rows(), A.n_cols(),
      std::vector<offset_t>(A.row_ptr().begin(), A.row_ptr().end()),
      std::vector<index_t>(A.col_idx().begin(), A.col_idx().end()),
      std::move(vals));
}

std::vector<real_t> random_panel(std::size_t n, index_t nrhs,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<real_t> b(n * static_cast<std::size_t>(nrhs));
  for (auto& v : b) v = rng.uniform(-1, 1);
  return b;
}

ServiceOptions small_grid_options() {
  ServiceOptions o;
  o.Px = 2;
  o.Py = 2;
  o.Pz = 2;
  o.nd.leaf_size = 8;
  return o;
}

TEST(SolverService, CacheHitSkipsAnalysisAndMatchesColdFactorization) {
  const CsrMatrix A1 =
      grid2d_laplacian(GridGeometry{10, 10, 1}, Stencil2D::FivePoint);
  const CsrMatrix A2 = perturbed_values(A1, 1.5);
  const auto n = static_cast<std::size_t>(A1.n_rows());
  const std::vector<real_t> b = random_panel(n, 1, 7);

  SolverService svc(small_grid_options());
  const FactorReport f1 = svc.factor(A1);
  EXPECT_FALSE(f1.cache_hit);
  EXPECT_EQ(svc.stats().analyses, 1);
  EXPECT_EQ(svc.stats().refactorizations, 1);
  EXPECT_GT(f1.factor_time, 0);
  EXPECT_GT(f1.flops, 0);
  EXPECT_GT(f1.mem_total, 0);

  // Same pattern, new values: the construction count proves no ordering
  // or symbolic analysis ran — this is a pure numeric refactorization.
  const FactorReport f2 = svc.factor(A2);
  EXPECT_TRUE(f2.cache_hit);
  EXPECT_EQ(svc.stats().analyses, 1);
  EXPECT_EQ(svc.stats().cache_hits, 1);
  EXPECT_EQ(svc.stats().refactorizations, 2);
  EXPECT_EQ(f2.flops, f1.flops);  // same symbolic structure

  std::vector<real_t> x_hot(n);
  const SolveReport s_hot = svc.solve({b, x_hot, 1});
  EXPECT_LT(s_hot.residual, 1e-12);

  // Cold reference: a fresh service analyzing A2 from scratch must land
  // on the same factors, so the solutions agree bitwise.
  SolverService cold(small_grid_options());
  cold.factor(A2);
  EXPECT_EQ(cold.stats().analyses, 1);
  std::vector<real_t> x_cold(n);
  const SolveReport s_cold = cold.solve({b, x_cold, 1});
  EXPECT_LT(s_cold.residual, 1e-12);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(x_hot[i], x_cold[i]) << "component " << i;
}

TEST(SolverService, BatchedSolveMatchesSequentialIncludingRefinement) {
  const CsrMatrix A =
      grid2d_laplacian(GridGeometry{10, 9, 1}, Stencil2D::FivePoint);
  const auto n = static_cast<std::size_t>(A.n_rows());
  const index_t nrhs = 4;
  const std::vector<real_t> B = random_panel(n, nrhs, 21);

  ServiceOptions o = small_grid_options();
  o.refinement_steps = 2;  // refinement sweeps are batched too
  SolverService svc(o);
  svc.factor(A);

  std::vector<real_t> Xb(B.size());
  const SolveReport batch = svc.solve({B, Xb, nrhs});
  EXPECT_LT(batch.residual, 1e-12);

  for (index_t j = 0; j < nrhs; ++j) {
    const auto off = static_cast<std::size_t>(j) * n;
    std::vector<real_t> xj(n);
    svc.solve({std::span<const real_t>(B).subspan(off, n), xj, 1});
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(Xb[off + i], xj[i]) << "column " << j << " component " << i;
  }
}

TEST(SolverService, Batch16UsesAtLeast4xFewerMessagesPerRhs) {
  // Acceptance criterion: an nrhs = 16 batched solve must use >= 4x fewer
  // solve-phase messages per RHS than 16 sequential single-RHS solves
  // (measured by the simulator's CommStats). The schedule actually gives
  // ~16x: message counts are independent of the panel width.
  const CsrMatrix A =
      grid2d_laplacian(GridGeometry{10, 10, 1}, Stencil2D::FivePoint);
  const auto n = static_cast<std::size_t>(A.n_rows());

  ServiceOptions o = small_grid_options();
  o.refinement_steps = 0;
  SolverService svc(o);
  svc.factor(A);

  const std::vector<real_t> B = random_panel(n, 16, 33);
  std::vector<real_t> Xseq(B.size());
  std::vector<SolveRequest> singles;
  for (index_t j = 0; j < 16; ++j) {
    const auto off = static_cast<std::size_t>(j) * n;
    singles.push_back({std::span<const real_t>(B).subspan(off, n),
                       std::span<real_t>(Xseq).subspan(off, n), 1});
  }
  offset_t msgs_seq = 0;
  for (const SolveReport& r : svc.solve_stream(singles))
    msgs_seq += r.msg_solve_xy + r.msg_solve_z;

  std::vector<real_t> Xb(B.size());
  const SolveReport batch = svc.solve({B, Xb, 16});
  const offset_t msgs_batch = batch.msg_solve_xy + batch.msg_solve_z;

  ASSERT_GT(msgs_batch, 0);
  EXPECT_GE(msgs_seq, 4 * msgs_batch)
      << "sequential " << msgs_seq << " vs batched " << msgs_batch;
  // Identical numerics either way.
  for (std::size_t i = 0; i < B.size(); ++i) EXPECT_EQ(Xb[i], Xseq[i]);
}

TEST(SolverService, QueuedSolveStreamMatchesOneAtATime) {
  // Back-to-back queued solves on the same resident grid share one
  // simulated run and one tag range, refinement sweeps included. Each
  // solve sends the same messages per (source, tag) in program order, so
  // FIFO matching pairs every receive with its own solve's send and the
  // results equal the one-at-a-time execution bitwise.
  const CsrMatrix A =
      grid2d_laplacian(GridGeometry{9, 10, 1}, Stencil2D::FivePoint);
  const auto n = static_cast<std::size_t>(A.n_rows());

  ServiceOptions o = small_grid_options();
  o.refinement_steps = 1;
  SolverService svc(o);
  svc.factor(A);

  const std::vector<real_t> b1 = random_panel(n, 1, 41);
  const std::vector<real_t> b2 = random_panel(n, 2, 43);
  const std::vector<real_t> b3 = random_panel(n, 3, 47);
  std::vector<real_t> x1(b1.size()), x2(b2.size()), x3(b3.size());
  const std::vector<SolveRequest> queue = {
      {b1, x1, 1}, {b2, x2, 2}, {b3, x3, 3}};
  const std::vector<SolveReport> reps = svc.solve_stream(queue);
  ASSERT_EQ(reps.size(), 3u);
  for (const SolveReport& r : reps) {
    EXPECT_LT(r.residual, 1e-12);
    EXPECT_GT(r.solve_time, 0);
    EXPECT_GT(r.msg_solve_xy + r.msg_solve_z, 0);
  }

  std::vector<real_t> y1(b1.size()), y2(b2.size()), y3(b3.size());
  svc.solve({b1, y1, 1});
  svc.solve({b2, y2, 2});
  svc.solve({b3, y3, 3});
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_EQ(x1[i], y1[i]);
  for (std::size_t i = 0; i < y2.size(); ++i) EXPECT_EQ(x2[i], y2[i]);
  for (std::size_t i = 0; i < y3.size(); ++i) EXPECT_EQ(x3[i], y3[i]);
}

TEST(SolverService, RejectsNegativeRefinementSteps) {
  // A negative number of refinement sweeps is invalid input, rejected at
  // construction rather than run as zero sweeps.
  ServiceOptions o = small_grid_options();
  o.refinement_steps = -1;
  EXPECT_THROW(SolverService{o}, Error);
  o.refinement_steps = -2;
  EXPECT_THROW(SolverService{o}, Error);
  o.refinement_steps = 0;
  EXPECT_NO_THROW(SolverService{o});
}

TEST(SolverService, RejectsUnusableGridAtConstruction) {
  // A grid the factorization cannot run must fail at construction, not
  // after every factor() has paid a full in-sim analysis.
  ServiceOptions o = small_grid_options();
  o.analysis = AnalysisMode::Distributed;
  const int bad[][3] = {{2, 2, 3}, {0, 2, 1}, {2, -1, 1}, {2, 2, -2},
                        {2, 2, 0}};
  for (const auto& [px, py, pz] : bad) {
    o.Px = px;
    o.Py = py;
    o.Pz = pz;
    EXPECT_THROW(SolverService{o}, Error) << px << 'x' << py << 'x' << pz;
  }
  o.Px = 2;
  o.Py = 2;
  o.Pz = 2;
  EXPECT_NO_THROW(SolverService{o});
}

TEST(SolverService, LruEvictionBoundsResidentPatterns) {
  const CsrMatrix A =
      grid2d_laplacian(GridGeometry{8, 8, 1}, Stencil2D::FivePoint);
  const CsrMatrix B =
      grid2d_laplacian(GridGeometry{9, 8, 1}, Stencil2D::FivePoint);
  const CsrMatrix C =
      grid2d_laplacian(GridGeometry{8, 9, 1}, Stencil2D::NinePoint);

  ServiceOptions o = small_grid_options();
  o.Pz = 1;
  o.max_patterns = 2;
  SolverService svc(o);
  svc.factor(A);
  svc.factor(B);
  EXPECT_EQ(svc.resident_patterns(), 2u);
  EXPECT_EQ(svc.stats().evictions, 0);

  svc.factor(C);  // evicts A (least recently used)
  EXPECT_EQ(svc.resident_patterns(), 2u);
  EXPECT_EQ(svc.stats().evictions, 1);
  EXPECT_EQ(svc.stats().analyses, 3);

  svc.factor(A);  // A was evicted: a fresh analysis
  EXPECT_EQ(svc.stats().analyses, 4);
  EXPECT_EQ(svc.stats().evictions, 2);  // B fell out in turn

  svc.factor(C);  // C is still resident: pure refactorization
  EXPECT_EQ(svc.stats().analyses, 4);
  EXPECT_EQ(svc.stats().cache_hits, 1);
}

/// Path graph plus a trailing 2x2 block whose determinant is controlled
/// by the last diagonal entry: 4.0 makes it exactly singular, anything
/// larger keeps it regular — the pattern never changes.
CsrMatrix path_plus_block(real_t last_diag) {
  const index_t nn = 34;
  CooMatrix coo(nn, nn);
  for (index_t i = 0; i + 1 < nn - 2; ++i) {
    coo.add(i, i + 1, -1.0);
    coo.add(i + 1, i, -1.0);
  }
  for (index_t i = 0; i < nn - 2; ++i) coo.add(i, i, 4.0);
  coo.add(nn - 2, nn - 2, 1.0);
  coo.add(nn - 2, nn - 1, 2.0);
  coo.add(nn - 1, nn - 2, 2.0);
  coo.add(nn - 1, nn - 1, last_diag);
  return CsrMatrix::from_coo(coo);
}

TEST(SolverService, FailedRefactorizationDropsResidentEntry) {
  ServiceOptions o;
  o.Px = 2;
  o.Py = 1;
  o.Pz = 2;
  o.nd.leaf_size = 4;
  SolverService svc(o);

  svc.factor(path_plus_block(5.0));
  EXPECT_TRUE(svc.has_current());

  // Same pattern with exactly singular values: the in-place numeric
  // refactorization fails, and the now-garbage resident entry must be
  // dropped rather than left answering solve requests.
  EXPECT_THROW(svc.factor(path_plus_block(4.0)), Error);
  EXPECT_FALSE(svc.has_current());
  EXPECT_EQ(svc.resident_patterns(), 0u);
  EXPECT_EQ(svc.stats().refactor_failures, 1);
  EXPECT_EQ(svc.stats().evictions, 0);  // a failure drop is not an eviction

  const auto n = static_cast<std::size_t>(34);
  std::vector<real_t> b(n, 1.0), x(n);
  EXPECT_THROW(svc.solve({b, x, 1}), Error);  // nothing resident

  svc.factor(path_plus_block(5.0));  // recovers with a fresh analysis
  EXPECT_EQ(svc.stats().analyses, 2);
  EXPECT_EQ(svc.stats().refactor_failures, 1);  // recovery didn't re-count
  const SolveReport s = svc.solve({b, x, 1});
  EXPECT_LT(s.residual, 1e-12);
}

TEST(SolverService, CapacityOneCacheThrashesAndReinsertMatchesCold) {
  // LRU edge case: a capacity-1 cache degenerates to "most recent pattern
  // only". Every pattern switch evicts, every re-insert re-analyzes, and a
  // re-inserted pattern solves bitwise identically to a never-evicted one.
  const CsrMatrix A =
      grid2d_laplacian(GridGeometry{10, 10, 1}, Stencil2D::FivePoint);
  const CsrMatrix B =
      grid2d_laplacian(GridGeometry{9, 10, 1}, Stencil2D::FivePoint);
  const auto n = static_cast<std::size_t>(A.n_rows());
  const std::vector<real_t> b = random_panel(n, 1, 51);

  ServiceOptions o = small_grid_options();
  o.max_patterns = 1;
  SolverService svc(o);

  svc.factor(A);
  EXPECT_EQ(svc.resident_patterns(), 1u);
  svc.factor(B);  // evicts A immediately
  EXPECT_EQ(svc.resident_patterns(), 1u);
  EXPECT_EQ(svc.stats().evictions, 1);
  EXPECT_EQ(svc.stats().analyses, 2);

  svc.factor(A);  // re-insert after eviction: a fresh analysis, B falls out
  EXPECT_EQ(svc.resident_patterns(), 1u);
  EXPECT_EQ(svc.stats().evictions, 2);
  EXPECT_EQ(svc.stats().analyses, 3);
  EXPECT_EQ(svc.stats().cache_hits, 0);

  std::vector<real_t> x_thrash(n);
  svc.solve({b, x_thrash, 1});

  SolverService fresh(small_grid_options());
  fresh.factor(A);
  std::vector<real_t> x_fresh(n);
  fresh.solve({b, x_fresh, 1});
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(x_thrash[i], x_fresh[i]) << "component " << i;
}

TEST(SolverService, FingerprintCollisionOnDistinctPatternsIsDisambiguated) {
  // Force a primary-fingerprint collision between two genuinely different
  // patterns via the test hook. The salted secondary fingerprint must keep
  // them apart: no false cache hit, both entries resident side by side.
  const CsrMatrix A =
      grid2d_laplacian(GridGeometry{10, 10, 1}, Stencil2D::FivePoint);
  const CsrMatrix B =
      grid2d_laplacian(GridGeometry{9, 9, 1}, Stencil2D::NinePoint);

  ServiceOptions o = small_grid_options();
  o.fingerprint_fn = [](const CsrMatrix&) { return 0xc0111deull; };
  SolverService svc(o);

  svc.factor(A);
  EXPECT_EQ(svc.stats().analyses, 1);
  EXPECT_TRUE(svc.has_pattern(0xc0111deull));

  svc.factor(B);  // same primary key, different structure: NOT a hit
  EXPECT_EQ(svc.stats().analyses, 2);
  EXPECT_EQ(svc.stats().cache_hits, 0);
  EXPECT_EQ(svc.resident_patterns(), 2u);  // colliding entries coexist

  // Each entry still refactorizes and solves as itself.
  const auto nb = static_cast<std::size_t>(B.n_rows());
  const std::vector<real_t> bb = random_panel(nb, 1, 53);
  std::vector<real_t> xb(nb);
  const SolveReport sb = svc.solve({bb, xb, 1});
  EXPECT_LT(sb.residual, 1e-12);

  svc.factor(perturbed_values(A, 1.25));  // genuine hit for A's entry
  EXPECT_EQ(svc.stats().analyses, 2);
  EXPECT_EQ(svc.stats().cache_hits, 1);
  const auto na = static_cast<std::size_t>(A.n_rows());
  const std::vector<real_t> ba = random_panel(na, 1, 57);
  std::vector<real_t> xa(na);
  const SolveReport sa = svc.solve({ba, xa, 1});
  EXPECT_LT(sa.residual, 1e-12);
}

TEST(SolverService, ExtractInsertMovesSymbolicStateBetweenServices) {
  // The fleet's migration primitive: extract_pattern removes the symbolic
  // entry from the source, insert_pattern makes it a first-class resident
  // on the target — whose next factor() is a cache hit (no analysis) and
  // solves bitwise identically to a cold service.
  const CsrMatrix A =
      grid2d_laplacian(GridGeometry{10, 9, 1}, Stencil2D::FivePoint);
  const auto n = static_cast<std::size_t>(A.n_rows());
  const std::vector<real_t> b = random_panel(n, 1, 61);

  SolverService src(small_grid_options());
  src.factor(A);
  const std::uint64_t fp = src.fingerprint(A);
  EXPECT_TRUE(src.has_pattern(fp));
  EXPECT_FALSE(src.has_pattern(fp + 1));
  EXPECT_FALSE(src.extract_pattern(fp + 1).has_value());

  auto sym = src.extract_pattern(fp);
  ASSERT_TRUE(sym.has_value());
  EXPECT_GT(sym->payload_bytes(), 0);
  EXPECT_EQ(src.resident_patterns(), 0u);
  EXPECT_FALSE(src.has_current());
  EXPECT_EQ(src.stats().evictions, 0);  // migration out is not an eviction

  SolverService dst(small_grid_options());
  dst.insert_pattern(std::move(*sym));
  EXPECT_TRUE(dst.has_pattern(fp));
  EXPECT_FALSE(dst.activate(fp));  // symbolic only: no numeric factors yet

  const FactorReport fr = dst.factor(A);
  EXPECT_TRUE(fr.cache_hit);
  EXPECT_EQ(dst.stats().analyses, 0);  // the whole point of the migration
  EXPECT_TRUE(dst.activate(fp));       // factored now: warm re-activation

  std::vector<real_t> x_dst(n);
  dst.solve({b, x_dst, 1});
  SolverService cold(small_grid_options());
  cold.factor(A);
  std::vector<real_t> x_cold(n);
  cold.solve({b, x_cold, 1});
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(x_dst[i], x_cold[i]) << "component " << i;
}

TEST(SolverService, InsertPatternRejectsAnotherGrid) {
  // A service factors on its one grid: a symbolic state analyzed for any
  // other (Px, Py, Pz) is refused, and the service stays usable.
  const CsrMatrix A =
      grid2d_laplacian(GridGeometry{10, 9, 1}, Stencil2D::FivePoint);
  SolverService src(small_grid_options());
  src.factor(A);
  auto sym = src.extract_pattern(src.fingerprint(A));
  ASSERT_TRUE(sym.has_value());

  ServiceOptions other = small_grid_options();
  other.Pz *= 2;
  SolverService dst(other);
  EXPECT_THROW(dst.insert_pattern(std::move(*sym)), Error);
  EXPECT_EQ(dst.resident_patterns(), 0u);
  EXPECT_FALSE(dst.factor(A).cache_hit);
}

TEST(SolverService, DefaultsToTargetedWires) {
  // The service factors on the Targeted footprint wire on both planes,
  // unlike the engines' Dense default: the same solution panel, bit for
  // bit, for fewer plane and z bytes and a shorter factorization. The grid
  // and the default ND leaves are large enough that the frames' bitmaps
  // cost less than the zeros they elide from the replicated ancestors; with
  // leaves of 8 the replicas are nearly dense and Targeted's w_red is larger.
  const CsrMatrix A =
      grid2d_laplacian(GridGeometry{32, 32, 1}, Stencil2D::FivePoint);
  const auto n = static_cast<std::size_t>(A.n_rows());
  const index_t nrhs = 4;
  const std::vector<real_t> b = random_panel(n, nrhs, 67);

  ServiceOptions opt;
  opt.Pz = 2;
  SolverService targeted(opt);
  opt.lu3d.wire = Wire::Dense;
  SolverService dense(opt);

  const FactorReport ft = targeted.factor(A);
  const FactorReport fd = dense.factor(A);
  EXPECT_LT(ft.w_fact, fd.w_fact);
  EXPECT_LT(ft.w_red, fd.w_red);
  EXPECT_LT(ft.factor_time, fd.factor_time);

  std::vector<real_t> xt(b.size()), xd(b.size());
  targeted.solve({b, xt, nrhs});
  dense.solve({b, xd, nrhs});
  for (std::size_t i = 0; i < b.size(); ++i)
    ASSERT_EQ(xt[i], xd[i]) << "entry " << i;
}

TEST(RelaxedLeaf, ServiceDerivesLeafFromGridUnlessSet) {
  // An unset ND leaf becomes relaxed_leaf_size(Px, Py, Pz) at
  // construction and is stored, so a replay of the analysis from
  // options().nd orders as the service did.
  const int wide[][3] = {{4, 4, 1}, {4, 4, 4}, {8, 16, 1}};
  const int narrow[][3] = {{1, 1, 1}, {2, 2, 1}, {2, 2, 2}, {2, 4, 16}};
  ServiceOptions o;
  for (const auto& [px, py, pz] : wide) {
    o.Px = px;
    o.Py = py;
    o.Pz = pz;
    EXPECT_EQ(SolverService(o).options().nd.leaf_size, index_t{64})
        << px << 'x' << py << 'x' << pz;
  }
  for (const auto& [px, py, pz] : narrow) {
    o.Px = px;
    o.Py = py;
    o.Pz = pz;
    EXPECT_EQ(SolverService(o).options().nd.leaf_size, index_t{32})
        << px << 'x' << py << 'x' << pz;
  }
  o.Px = 4;
  o.Py = 4;
  o.Pz = 4;
  o.nd.leaf_size = 8;
  EXPECT_EQ(SolverService(o).options().nd.leaf_size, index_t{8});
}

TEST(RelaxedLeaf, WideLeafShortensFactorizationOnA16RankPlane) {
  // On a 4x4 plane the rule's leaf of 64 walks fewer supernodes than an
  // explicit 32 and saves more message latency than its extra leaf flops
  // cost, and the solve keeps its fp64 residual.
  const CsrMatrix A =
      grid2d_laplacian(GridGeometry{40, 40, 1}, Stencil2D::FivePoint);
  const auto n = static_cast<std::size_t>(A.n_rows());
  const std::vector<real_t> b = random_panel(n, 1, 29);

  ServiceOptions opt;
  opt.Px = 4;
  opt.Py = 4;
  opt.Pz = 1;
  SolverService ruled(opt);
  opt.nd.leaf_size = 32;
  SolverService fixed(opt);
  ASSERT_EQ(ruled.options().nd.leaf_size, index_t{64});

  const FactorReport fr = ruled.factor(A);
  const FactorReport ff = fixed.factor(A);
  EXPECT_LT(fr.factor_time, ff.factor_time);
  std::vector<real_t> x(n);
  EXPECT_LE(ruled.solve({b, x, 1}).residual, 1e-13);

  const auto snodes = [&](SolverService& svc) {
    return svc.extract_pattern(svc.fingerprint(A))->bs->n_snodes();
  };
  EXPECT_LT(snodes(ruled), snodes(fixed));
}

TEST(SnodeWidthCap, SolvesThroughChains) {
  // The 12x12x12 grid's widest separator is split into a chain of
  // supernodes (test_dist_analysis.cpp pins the structure). Both wires
  // must solve through the chain to the fp64 residual, bit for bit alike.
  const CsrMatrix A =
      grid3d_laplacian(GridGeometry{12, 12, 12}, Stencil3D::SevenPoint);
  const auto n = static_cast<std::size_t>(A.n_rows());
  const std::vector<real_t> b = random_panel(n, 1, 91);

  ServiceOptions opt;
  opt.Pz = 4;
  SolverService targeted(opt);
  opt.lu3d.wire = Wire::Dense;
  SolverService dense(opt);
  targeted.factor(A);
  dense.factor(A);

  std::vector<real_t> xt(n), xd(n);
  EXPECT_LE(targeted.solve({b, xt, 1}).residual, 1e-10);
  EXPECT_LE(dense.solve({b, xd, 1}).residual, 1e-10);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(xt[i], xd[i]) << "entry " << i;
}

}  // namespace
}  // namespace slu3d
