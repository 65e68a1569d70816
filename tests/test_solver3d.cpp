// End-to-end tests of the distributed 3D solver as the service runs it:
// one cold factor request, then one solve request.
#include <gtest/gtest.h>

#include <cmath>

#include "service/solver_service.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"

namespace slu3d {
namespace {

using service::ServiceOptions;
using service::SolverService;

TEST(Solver3d, EndToEndPlanar) {
  const GridGeometry g{14, 14, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const auto n = static_cast<std::size_t>(A.n_rows());
  Rng rng(51);
  std::vector<real_t> xref(n), b(n), x(n);
  for (auto& v : xref) v = rng.uniform(-1, 1);
  A.spmv(xref, b);

  ServiceOptions opt;
  opt.Px = 2;
  opt.Py = 2;
  opt.Pz = 4;
  opt.geometry = g;
  SolverService svc(opt);
  const auto fr = svc.factor(A);
  const auto sr = svc.solve({b, x, 1});

  EXPECT_LT(sr.residual, 1e-12);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-7);
  EXPECT_GT(fr.factor_time, 0);
  EXPECT_GT(sr.solve_time, 0);
  EXPECT_GT(fr.flops, 0);
  EXPECT_GT(fr.w_fact, 0);
  EXPECT_GT(fr.w_red, 0);  // Pz > 1 implies z traffic
  // Solve-phase communication is reported separately from the factor
  // phase; Pz > 1 routes solve contributions across grids (Z plane).
  EXPECT_GT(sr.w_solve_xy, 0);
  EXPECT_GT(sr.w_solve_z, 0);
  EXPECT_GT(sr.msg_solve_xy, 0);
  EXPECT_GT(sr.msg_solve_z, 0);
  EXPECT_GE(fr.mem_total, fr.mem_max);
}

TEST(Solver3d, Pz1IsPure2d) {
  const GridGeometry g{10, 10, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const auto n = static_cast<std::size_t>(A.n_rows());
  std::vector<real_t> b(n, 1.0), x(n);
  ServiceOptions opt;
  opt.Px = 2;
  opt.Py = 3;
  opt.Pz = 1;
  SolverService svc(opt);
  const auto fr = svc.factor(A);
  const auto sr = svc.solve({b, x, 1});
  EXPECT_LT(sr.residual, 1e-13);
  EXPECT_EQ(fr.w_red, 0);
  // The solve split is reported independently of the factor phase: even
  // with w_red == 0 here, the solve's own counters are populated.
  EXPECT_GT(sr.msg_solve_xy, 0);
}

TEST(Solver3d, ReportsReplicationMemoryGrowth) {
  const GridGeometry g{12, 12, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);

  ServiceOptions o1;
  o1.Px = 4;
  o1.Py = 2;
  o1.Pz = 1;
  o1.geometry = g;
  ServiceOptions o4 = o1;
  o4.Px = 2;
  o4.Py = 1;
  o4.Pz = 4;
  const auto r1 = SolverService(o1).factor(A);
  const auto r4 = SolverService(o4).factor(A);
  EXPECT_GT(r4.mem_total, r1.mem_total);  // replication costs memory
  EXPECT_LT(r4.w_fact, r1.w_fact);        // ...and buys XY volume
}

TEST(Solver3d, RejectsBadConfigs) {
  const GridGeometry g{6, 6, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const auto n = static_cast<std::size_t>(A.n_rows());
  std::vector<real_t> b(n, 1.0), x(n);
  ServiceOptions opt;
  opt.Pz = 3;  // not a power of two
  EXPECT_THROW(
      {
        SolverService svc(opt);
        svc.factor(A);
        svc.solve({b, x, 1});
      },
      Error);
}

TEST(Solver3d, DistributedRefinementTightensResidual) {
  // Badly scaled system: without refinement the static-pivot solve leaves
  // a visible residual; distributed refinement must tighten it.
  const GridGeometry g{10, 10, 1};
  CooMatrix coo(100, 100);
  {
    const CsrMatrix L = grid2d_laplacian(g, Stencil2D::FivePoint, 1e-6);
    Rng rng(119);
    std::vector<real_t> scale(100);
    for (auto& s : scale) s = std::pow(10.0, rng.uniform(-3, 3));
    for (index_t r = 0; r < 100; ++r) {
      const auto cols = L.row_cols(r);
      const auto vals = L.row_vals(r);
      for (std::size_t k = 0; k < cols.size(); ++k)
        coo.add(r, cols[k],
                vals[k] * scale[static_cast<std::size_t>(r)] *
                    scale[static_cast<std::size_t>(cols[k])]);
    }
  }
  const CsrMatrix A = CsrMatrix::from_coo(coo);
  const auto n = static_cast<std::size_t>(A.n_rows());
  Rng rng(121);
  std::vector<real_t> xref(n), b(n), x0(n), x2(n);
  for (auto& v : xref) v = rng.uniform(-1, 1);
  A.spmv(xref, b);

  ServiceOptions opt;
  opt.Px = 2;
  opt.Py = 2;
  opt.Pz = 2;
  opt.refinement_steps = 0;
  SolverService unrefined(opt);
  unrefined.factor(A);
  const auto rep0 = unrefined.solve({b, x0, 1});
  opt.refinement_steps = 3;
  SolverService refined(opt);
  refined.factor(A);
  const auto rep2 = refined.solve({b, x2, 1});
  EXPECT_LE(rep2.residual, rep0.residual * 1.0000001);
  EXPECT_LT(rep2.residual, 1e-12);
}

TEST(Solver3d, InSimulationDistributedAnalysis) {
  const GridGeometry g{12, 11, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const auto n = static_cast<std::size_t>(A.n_rows());
  Rng rng(137);
  std::vector<real_t> xref(n), b(n), x(n);
  for (auto& v : xref) v = rng.uniform(-1, 1);
  A.spmv(xref, b);

  ServiceOptions opt;
  opt.Px = 2;
  opt.Py = 2;
  opt.Pz = 2;
  opt.analysis = AnalysisMode::Distributed;  // analysis runs inside the machine
  opt.nd.leaf_size = 8;
  SolverService svc(opt);
  const auto fr = svc.factor(A);
  const auto sr = svc.solve({b, x, 1});
  EXPECT_LT(sr.residual, 1e-12);
  EXPECT_GT(fr.flops, 0);
  EXPECT_GT(fr.t_analysis, 0);
  EXPECT_GT(fr.w_analysis, 0);
  EXPECT_GT(fr.msg_analysis, 0);
  EXPECT_GE(fr.factor_time, fr.t_analysis);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-7);
}

TEST(Solver3d, SingularMatrixAbortsCleanly) {
  // A numerically singular input must surface as an Error, not a hang:
  // the failing rank's exception aborts the whole simulated run. The
  // matrix is a healthy path graph plus an exactly rank-deficient 2x2
  // component [[1, 2], [2, 4]] — elimination hits an exact zero pivot.
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
  coo.add(nn - 1, nn - 1, 4.0);
  const CsrMatrix A = CsrMatrix::from_coo(coo);
  const auto n = static_cast<std::size_t>(A.n_rows());
  std::vector<real_t> b(n, 1.0), x(n);
  ServiceOptions opt;
  opt.Px = 2;
  opt.Py = 1;
  opt.Pz = 2;
  opt.nd.leaf_size = 4;
  // Depending on where elimination hits the zero pivot this throws from a
  // rank (propagated by run_ranks); it must never deadlock.
  SolverService svc(opt);
  EXPECT_THROW(
      {
        svc.factor(A);
        svc.solve({b, x, 1});
      },
      Error);
}

}  // namespace
}  // namespace slu3d
