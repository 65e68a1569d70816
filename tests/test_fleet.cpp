// Tier-1 tests for the sharded SolverFleet front end: affinity routing
// must match single-shard hit rates (round-robin measurably worse),
// coalesced same-pattern requests must run as ONE batched solve_stream
// with results bitwise identical to independent solves, bounded queues
// must redirect and shed under saturation, and cache-warm migration must
// move only the symbolic payload — never the matrix or numeric factors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "fleet/solver_fleet.hpp"
#include "order/nested_dissection.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"

namespace slu3d {
namespace {

using service::FleetOptions;
using service::FleetRequest;
using service::FleetResponse;
using service::FleetStats;
using service::RequestStatus;
using service::RoutingPolicy;
using service::ServiceOptions;
using service::ServiceStats;
using service::SolverFleet;
using service::SolverService;

ServiceOptions fleet_grid_options() {
  ServiceOptions o;
  o.Px = 2;
  o.Py = 2;
  o.Pz = 2;
  o.nd.leaf_size = 8;
  return o;
}

std::vector<real_t> random_panel(std::size_t n, index_t nrhs,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<real_t> b(n * static_cast<std::size_t>(nrhs));
  for (auto& v : b) v = rng.uniform(-1, 1);
  return b;
}

/// Owns the b/x storage a FleetRequest spans point into (the fleet's
/// contract: storage outlives the drain).
struct Job {
  std::shared_ptr<const CsrMatrix> A;
  std::vector<real_t> b;
  std::vector<real_t> x;
  index_t nrhs = 1;

  Job(std::shared_ptr<const CsrMatrix> mat, index_t cols, std::uint64_t seed)
      : A(std::move(mat)),
        b(random_panel(static_cast<std::size_t>(A->n_rows()), cols, seed)),
        x(b.size()),
        nrhs(cols) {}

  FleetRequest request(std::uint64_t tenant, std::uint64_t version = 0) {
    return FleetRequest{tenant, A, version, b, x, nrhs};
  }
};

double hit_rate(const SolverFleet& fleet) {
  const ServiceStats t = fleet.service_totals();
  const double hot = static_cast<double>(t.cache_hits) +
                     static_cast<double>(fleet.stats().activations);
  return hot / (hot + static_cast<double>(t.analyses));
}

/// Six distinct patterns cycling for `rounds` rounds; arrivals are spaced
/// wide so every batch dispatches before the next arrival (pure routing,
/// no queueing effects). Returns the fleet's end-state hit rate.
double run_pattern_cycle(int shards, RoutingPolicy routing, int rounds) {
  std::vector<std::shared_ptr<const CsrMatrix>> mats;
  mats.push_back(std::make_shared<CsrMatrix>(
      grid2d_laplacian(GridGeometry{10, 10, 1}, Stencil2D::FivePoint)));
  mats.push_back(std::make_shared<CsrMatrix>(
      grid2d_laplacian(GridGeometry{9, 10, 1}, Stencil2D::FivePoint)));
  mats.push_back(std::make_shared<CsrMatrix>(
      grid2d_laplacian(GridGeometry{10, 9, 1}, Stencil2D::FivePoint)));
  mats.push_back(std::make_shared<CsrMatrix>(
      grid2d_laplacian(GridGeometry{11, 10, 1}, Stencil2D::FivePoint)));
  mats.push_back(std::make_shared<CsrMatrix>(
      grid2d_laplacian(GridGeometry{10, 11, 1}, Stencil2D::FivePoint)));
  mats.push_back(std::make_shared<CsrMatrix>(
      grid2d_laplacian(GridGeometry{9, 9, 1}, Stencil2D::NinePoint)));

  FleetOptions fo;
  fo.shards = shards;
  fo.service = fleet_grid_options();
  fo.routing = routing;
  SolverFleet fleet(fo);

  std::vector<Job> jobs;
  jobs.reserve(mats.size() * static_cast<std::size_t>(rounds));
  double t = 0;
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t p = 0; p < mats.size(); ++p) {
      jobs.emplace_back(mats[p], 1, 100 * static_cast<std::uint64_t>(r) + p);
      fleet.submit(jobs.back().request(/*tenant=*/p), t);
      t += 1.0;  // far longer than any simulated factor+solve
    }
  }
  const std::vector<FleetResponse> rs = fleet.drain();
  EXPECT_EQ(rs.size(), mats.size() * static_cast<std::size_t>(rounds));
  for (const FleetResponse& r : rs) {
    EXPECT_EQ(r.status, RequestStatus::Done);
    EXPECT_LT(r.solve.residual, 1e-12);
  }
  EXPECT_EQ(fleet.stats().shed, 0);
  return hit_rate(fleet);
}

TEST(SolverFleet, AffinityMatchesSingleShardAndBeatsRoundRobin) {
  // Acceptance criterion: at 4 shards, affinity routing's hit rate stays
  // within 5% of a single shard's, while round-robin is measurably worse
  // (each pattern's requests alternate between two shards, so the fleet
  // analyzes every pattern twice).
  const int rounds = 6;
  const double single = run_pattern_cycle(1, RoutingPolicy::Affinity, rounds);
  const double affinity4 =
      run_pattern_cycle(4, RoutingPolicy::Affinity, rounds);
  const double rr4 = run_pattern_cycle(4, RoutingPolicy::RoundRobin, rounds);

  EXPECT_GT(single, 0.8);
  EXPECT_NEAR(affinity4, single, 0.05);
  EXPECT_GT(affinity4, rr4 + 0.05)
      << "affinity " << affinity4 << " vs round-robin " << rr4;
}

TEST(SolverFleet, CoalescedBatchMatchesIndependentSolvesBitwise) {
  // Acceptance criterion: K same-(pattern, values) requests inside one
  // coalescing window run as ONE batched solve_stream dispatch, and every
  // request's solution is bitwise identical to an independent solve.
  const auto A = std::make_shared<const CsrMatrix>(
      grid2d_laplacian(GridGeometry{10, 10, 1}, Stencil2D::FivePoint));

  FleetOptions fo;
  fo.shards = 1;
  fo.service = fleet_grid_options();
  fo.coalesce_window = 5.0;
  SolverFleet fleet(fo);

  std::vector<Job> jobs;
  jobs.emplace_back(A, 1, 11);
  jobs.emplace_back(A, 2, 12);  // mixed panel widths in one batch
  jobs.emplace_back(A, 1, 13);
  jobs.emplace_back(A, 3, 14);
  for (std::size_t k = 0; k < jobs.size(); ++k)
    fleet.submit(jobs[k].request(/*tenant=*/k), static_cast<double>(k));

  const std::vector<FleetResponse> rs = fleet.drain();
  ASSERT_EQ(rs.size(), 4u);
  EXPECT_EQ(fleet.stats().batches, 1);
  EXPECT_EQ(fleet.stats().coalesced, 3);
  EXPECT_EQ(fleet.service_totals().refactorizations, 1);
  for (std::size_t k = 0; k < rs.size(); ++k) {
    EXPECT_EQ(rs[k].id, k);
    EXPECT_EQ(rs[k].status, RequestStatus::Done);
    EXPECT_EQ(rs[k].shard, 0);
    EXPECT_EQ(rs[k].coalesced, k > 0);
    EXPECT_LT(rs[k].solve.residual, 1e-12);
    EXPECT_GE(rs[k].latency(), 0);
  }
  // Members of one batch complete in sequence on the shared shard.
  for (std::size_t k = 1; k < rs.size(); ++k)
    EXPECT_GT(rs[k].completion, rs[k - 1].completion);

  // Independent reference: a fresh standalone service with the shard's
  // configuration, solving each request separately.
  SolverService ref(fleet_grid_options());
  ref.factor(*A);
  for (Job& j : jobs) {
    std::vector<real_t> y(j.b.size());
    ref.solve({j.b, y, j.nrhs});
    for (std::size_t i = 0; i < y.size(); ++i)
      EXPECT_EQ(j.x[i], y[i]) << "component " << i;
  }
}

TEST(SolverFleet, DistinctValuesVersionsNeverCoalesce) {
  const auto A = std::make_shared<const CsrMatrix>(
      grid2d_laplacian(GridGeometry{9, 10, 1}, Stencil2D::FivePoint));
  FleetOptions fo;
  fo.shards = 1;
  fo.service = fleet_grid_options();
  fo.coalesce_window = 100.0;
  SolverFleet fleet(fo);

  std::vector<Job> jobs;
  for (std::uint64_t k = 0; k < 3; ++k) jobs.emplace_back(A, 1, 20 + k);
  for (std::size_t k = 0; k < jobs.size(); ++k)
    fleet.submit(jobs[k].request(/*tenant=*/0, /*version=*/k),
                 static_cast<double>(k));

  const std::vector<FleetResponse> rs = fleet.drain();
  ASSERT_EQ(rs.size(), 3u);
  EXPECT_EQ(fleet.stats().batches, 3);   // one per values version
  EXPECT_EQ(fleet.stats().coalesced, 0);
  for (const FleetResponse& r : rs) {
    EXPECT_EQ(r.status, RequestStatus::Done);
    EXPECT_FALSE(r.coalesced);
  }
}

TEST(SolverFleet, BoundedQueuesRedirectThenShedWithTenantAccounting) {
  // Admission control: open windows hold the queue, so four distinct
  // values-versions against queue_depth 2 on one shard give two admitted
  // requests and two explicit sheds (no silent drops, no unbounded queue).
  const auto A = std::make_shared<const CsrMatrix>(
      grid2d_laplacian(GridGeometry{10, 9, 1}, Stencil2D::FivePoint));
  FleetOptions fo;
  fo.shards = 1;
  fo.service = fleet_grid_options();
  fo.coalesce_window = 50.0;
  fo.queue_depth = 2;
  SolverFleet fleet(fo);

  std::vector<Job> jobs;
  for (std::uint64_t k = 0; k < 4; ++k) jobs.emplace_back(A, 1, 30 + k);
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const std::uint64_t tenant = k < 2 ? 7 : 8;
    const std::uint64_t id = fleet.submit(
        jobs[k].request(tenant, /*version=*/k), static_cast<double>(k) * 0.5);
    EXPECT_EQ(id, k);  // fleet ids are submission order
  }
  EXPECT_EQ(fleet.shard_queue_depth(0), 2u);

  const std::vector<FleetResponse> rs = fleet.drain();
  ASSERT_EQ(rs.size(), 4u);
  const FleetStats& fs = fleet.stats();
  EXPECT_EQ(fs.submitted, 4);
  EXPECT_EQ(fs.completed, 2);
  EXPECT_EQ(fs.shed, 2);
  EXPECT_EQ(rs[0].status, RequestStatus::Done);
  EXPECT_EQ(rs[1].status, RequestStatus::Done);
  EXPECT_EQ(rs[2].status, RequestStatus::Shed);
  EXPECT_EQ(rs[3].status, RequestStatus::Shed);
  EXPECT_EQ(rs[2].shard, -1);

  // Per-tenant accounting: tenant 7's work completed, tenant 8 was shed.
  const auto& tenants = fleet.tenant_stats();
  ASSERT_EQ(tenants.count(7), 1u);
  ASSERT_EQ(tenants.count(8), 1u);
  EXPECT_EQ(tenants.at(7).requests, 2);
  EXPECT_EQ(tenants.at(7).shed, 0);
  EXPECT_EQ(tenants.at(7).rhs_columns, 2);
  EXPECT_GT(tenants.at(7).sim_seconds, 0);
  EXPECT_EQ(tenants.at(8).requests, 2);
  EXPECT_EQ(tenants.at(8).shed, 2);
  EXPECT_EQ(tenants.at(8).rhs_columns, 0);
  EXPECT_EQ(tenants.at(8).sim_seconds, 0);
}

TEST(SolverFleet, FullHomeShardRedirectsToLeastLoadedPeer) {
  const auto A = std::make_shared<const CsrMatrix>(
      grid2d_laplacian(GridGeometry{10, 10, 1}, Stencil2D::FivePoint));
  FleetOptions fo;
  fo.shards = 2;
  fo.service = fleet_grid_options();
  fo.routing = RoutingPolicy::Hash;  // fixed home for the one pattern
  fo.coalesce_window = 50.0;
  fo.queue_depth = 1;
  SolverFleet fleet(fo);

  std::vector<Job> jobs;
  for (std::uint64_t k = 0; k < 3; ++k) jobs.emplace_back(A, 1, 40 + k);
  for (std::size_t k = 0; k < jobs.size(); ++k)
    fleet.submit(jobs[k].request(/*tenant=*/0, /*version=*/k),
                 static_cast<double>(k) * 0.25);

  const std::vector<FleetResponse> rs = fleet.drain();
  ASSERT_EQ(rs.size(), 3u);
  EXPECT_EQ(fleet.stats().redirected, 1);
  EXPECT_EQ(fleet.stats().shed, 1);
  EXPECT_EQ(rs[0].status, RequestStatus::Done);
  EXPECT_FALSE(rs[0].redirected);
  EXPECT_EQ(rs[1].status, RequestStatus::Done);
  EXPECT_TRUE(rs[1].redirected);
  EXPECT_NE(rs[1].shard, rs[0].shard);  // overflow landed on the peer
  EXPECT_EQ(rs[2].status, RequestStatus::Shed);
}

TEST(SolverFleet, MigrationShipsSymbolicPayloadNotMatrixOrFactors) {
  // Three patterns on two shards: two share a home shard (pigeonhole).
  // Flooding the shared home with one pattern's traffic must migrate the
  // OTHER resident pattern's symbolic state to the cold shard — and only
  // the symbolic state: the audited byte counters prove the matrix and
  // numeric factors stayed put, and the analysis count proves the target
  // shard never re-analyzed.
  std::vector<std::shared_ptr<const CsrMatrix>> mats;
  mats.push_back(std::make_shared<CsrMatrix>(
      grid2d_laplacian(GridGeometry{10, 10, 1}, Stencil2D::FivePoint)));
  mats.push_back(std::make_shared<CsrMatrix>(
      grid2d_laplacian(GridGeometry{9, 10, 1}, Stencil2D::FivePoint)));
  mats.push_back(std::make_shared<CsrMatrix>(
      grid2d_laplacian(GridGeometry{10, 9, 1}, Stencil2D::FivePoint)));

  FleetOptions fo;
  fo.shards = 2;
  fo.service = fleet_grid_options();
  fo.routing = RoutingPolicy::Affinity;
  fo.coalesce_window = 100.0;
  fo.migration_threshold = 2.0;
  SolverFleet fleet(fo);

  // Warm-up: place each pattern on its home shard.
  std::vector<Job> warm;
  for (std::size_t p = 0; p < mats.size(); ++p) {
    warm.emplace_back(mats[p], 1, 50 + p);
    fleet.submit(warm.back().request(/*tenant=*/p),
                 static_cast<double>(p) * 200.0);
  }
  std::vector<FleetResponse> rs = fleet.drain();
  ASSERT_EQ(rs.size(), 3u);
  EXPECT_EQ(fleet.service_totals().analyses, 3);

  // Two patterns share a shard; `hot` floods it, `victim` gets migrated.
  std::size_t hot = 0, victim = 0;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      if (i != j && rs[i].shard == rs[j].shard) {
        hot = i;
        victim = j;
      }
  ASSERT_NE(hot, victim) << "two of three patterns must share a shard";
  const int busy_shard = rs[hot].shard;
  const int cold_shard = 1 - busy_shard;
  const std::uint64_t victim_fp =
      fleet.shard(0).fingerprint(*mats[victim]);
  EXPECT_TRUE(fleet.shard(busy_shard).has_pattern(victim_fp));

  // Flood the busy shard: distinct values-versions of the hot pattern pile
  // up behind open windows.
  double t = 700.0;
  std::vector<Job> flood;
  for (std::uint64_t k = 0; k < 5; ++k) {
    flood.emplace_back(mats[hot], 1, 60 + k);
    fleet.submit(flood.back().request(/*tenant=*/9, /*version=*/k + 1), t);
    t += 1.0;
  }
  EXPECT_GE(fleet.shard_queue_depth(busy_shard), 4u);
  EXPECT_EQ(fleet.shard_queue_depth(cold_shard), 0u);

  // The victim pattern's next request finds its affinity shard drowning:
  // its cached symbolic entry moves to the cold shard and the request
  // follows it there — served as a cache hit, no re-analysis.
  Job follow(mats[victim], 1, 70);
  fleet.submit(follow.request(/*tenant=*/victim, /*version=*/1), t);
  rs = fleet.drain();

  // A naive migration would ship the CSR operator (pattern and values)
  // and the numeric factors of the host-analyzed pattern.
  const CsrMatrix& Av = *mats[victim];
  const BlockStructure bs(Av, nested_dissection(Av, fo.service.nd));
  const offset_t naive_bytes =
      static_cast<offset_t>(Av.n_rows() + 1) *
          static_cast<offset_t>(sizeof(offset_t)) +
      Av.nnz() * static_cast<offset_t>(sizeof(index_t) + sizeof(real_t)) +
      bs.total_nnz() * static_cast<offset_t>(sizeof(real_t));
  const FleetStats& fs = fleet.stats();
  EXPECT_EQ(fs.migrations, 1);
  EXPECT_GT(fs.migrated_bytes, 0);
  EXPECT_LT(fs.migrated_bytes, naive_bytes)
      << "symbolic payload must undercut shipping the matrix + factors";
  EXPECT_FALSE(fleet.shard(busy_shard).has_pattern(victim_fp));
  EXPECT_TRUE(fleet.shard(cold_shard).has_pattern(victim_fp));
  EXPECT_EQ(fleet.service_totals().analyses, 3) << "migration re-analyzed";

  const auto it = std::find_if(rs.begin(), rs.end(), [&](const auto& r) {
    return r.tenant == victim && r.arrival >= 700.0;
  });
  ASSERT_NE(it, rs.end());
  EXPECT_EQ(it->status, RequestStatus::Done);
  EXPECT_EQ(it->shard, cold_shard);
  EXPECT_TRUE(it->warm);  // served from the migrated entry
  EXPECT_LT(it->solve.residual, 1e-12);
}

TEST(SolverFleet, WarmRepeatTrafficActivatesWithoutRefactorization) {
  // Same (pattern, values_version) arriving after the previous batch
  // completed: the shard re-activates its resident factors instead of
  // refactorizing, and solutions stay bitwise stable across batches.
  const auto A = std::make_shared<const CsrMatrix>(
      grid2d_laplacian(GridGeometry{10, 10, 1}, Stencil2D::FivePoint));
  FleetOptions fo;
  fo.shards = 1;
  fo.service = fleet_grid_options();
  SolverFleet fleet(fo);

  std::vector<Job> jobs;
  for (int k = 0; k < 3; ++k) jobs.emplace_back(A, 1, 80);  // same rhs
  for (std::size_t k = 0; k < jobs.size(); ++k)
    fleet.submit(jobs[k].request(/*tenant=*/0),
                 static_cast<double>(k) * 100.0);

  const std::vector<FleetResponse> rs = fleet.drain();
  ASSERT_EQ(rs.size(), 3u);
  EXPECT_EQ(fleet.stats().batches, 3);
  EXPECT_EQ(fleet.stats().activations, 2);
  EXPECT_EQ(fleet.service_totals().refactorizations, 1);
  EXPECT_FALSE(rs[0].warm);
  EXPECT_TRUE(rs[1].warm);
  EXPECT_FALSE(rs[1].refactored);
  EXPECT_TRUE(rs[2].warm);
  for (std::size_t i = 0; i < jobs[0].x.size(); ++i) {
    EXPECT_EQ(jobs[0].x[i], jobs[1].x[i]);
    EXPECT_EQ(jobs[0].x[i], jobs[2].x[i]);
  }
}

/// Path graph plus a trailing 2x2 block whose last diagonal entry controls
/// singularity (4.0 is exactly singular); the pattern never changes.
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

TEST(SolverFleet, FailedBatchReportsFailureAndFleetRecovers) {
  FleetOptions fo;
  fo.shards = 1;
  fo.service.Px = 2;
  fo.service.Py = 1;
  fo.service.Pz = 2;
  fo.service.nd.leaf_size = 4;
  SolverFleet fleet(fo);

  std::vector<Job> jobs;
  jobs.emplace_back(std::make_shared<CsrMatrix>(path_plus_block(5.0)), 1, 90);
  jobs.emplace_back(std::make_shared<CsrMatrix>(path_plus_block(4.0)), 1, 91);
  jobs.emplace_back(std::make_shared<CsrMatrix>(path_plus_block(6.0)), 1, 92);
  fleet.submit(jobs[0].request(/*tenant=*/1, /*version=*/0), 0.0);
  fleet.submit(jobs[1].request(/*tenant=*/2, /*version=*/1), 100.0);
  fleet.submit(jobs[2].request(/*tenant=*/3, /*version=*/2), 200.0);

  const std::vector<FleetResponse> rs = fleet.drain();
  ASSERT_EQ(rs.size(), 3u);
  EXPECT_EQ(rs[0].status, RequestStatus::Done);
  EXPECT_EQ(rs[1].status, RequestStatus::Failed);
  EXPECT_EQ(rs[2].status, RequestStatus::Done);  // fresh analysis recovers
  EXPECT_LT(rs[2].solve.residual, 1e-12);
  EXPECT_EQ(fleet.stats().failed, 1);
  const ServiceStats t = fleet.service_totals();
  EXPECT_EQ(t.refactor_failures, 1);
  EXPECT_EQ(t.analyses, 2);  // the poisoned entry was dropped and re-analyzed
  EXPECT_EQ(fleet.tenant_stats().at(2).failed, 1);
}

TEST(SolverFleet, SixtyFiveShardsServeARequest) {
  // Shards never share a simulated run, so every shard solves on the
  // service's one tag range and the shard count has no cap.
  const auto A = std::make_shared<const CsrMatrix>(
      grid2d_laplacian(GridGeometry{9, 9, 1}, Stencil2D::FivePoint));
  FleetOptions fo;
  fo.shards = 65;
  fo.service = fleet_grid_options();
  SolverFleet fleet(fo);
  ASSERT_EQ(fleet.shard_count(), 65);
  for (int i = 0; i < 65; ++i)
    EXPECT_EQ(fleet.shard(i).options().solve_tag_base,
              fo.service.solve_tag_base);

  Job job(A, 2, 65);
  fleet.submit(job.request(/*tenant=*/0), 0.0);
  const std::vector<FleetResponse> rs = fleet.drain();
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs[0].status, RequestStatus::Done);
  EXPECT_LT(rs[0].solve.residual, 1e-12);
}

}  // namespace
}  // namespace slu3d
