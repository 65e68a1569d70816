// Open-loop fleet traffic harness shared by bench/service_throughput and
// perf_ledger: one seeded trace of Poisson-scheduled requests (on the
// simulated clock) replayed bit-identically across shard-count sweeps.
//
// The arrival rate is a fixed offered load: three times one shard's
// capacity at a frozen reference service time per SLU3D_SCALE, so no
// service option moves it. At that load a 1-shard fleet saturates and
// sheds visibly while 4 and 8 shards ride the same trace comfortably —
// exactly the backpressure contrast the bench exists to show.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "fleet/solver_fleet.hpp"
#include "support/rng.hpp"

namespace slu3d::bench {

struct FleetTraceItem {
  std::shared_ptr<const CsrMatrix> A;
  std::size_t pattern = 0;
  std::uint64_t version = 0;
  std::uint64_t tenant = 0;
  index_t nrhs = 1;
  double arrival = 0;
};

struct FleetTrace {
  std::vector<FleetTraceItem> items;
  std::size_t patterns = 0;
  std::uint64_t seed = 0;
  double probe_seconds = 0;  ///< one hot request's simulated service time
  double rate = 0;           ///< open-loop arrivals per simulated second
};

/// Same sparsity pattern, values scaled by `f` (the fleet must treat this
/// as a values-version bump: numeric refactorization, no analysis).
inline CsrMatrix fleet_rescaled(const CsrMatrix& A, real_t f) {
  std::vector<real_t> vals(A.values().begin(), A.values().end());
  for (auto& v : vals) v *= f;
  return CsrMatrix::from_raw(
      A.n_rows(), A.n_cols(),
      std::vector<offset_t>(A.row_ptr().begin(), A.row_ptr().end()),
      std::vector<index_t>(A.col_idx().begin(), A.col_idx().end()),
      std::move(vals));
}

inline double fleet_percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx =
      static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[idx];
}

/// One hot request's simulated service time at each SLU3D_SCALE: a
/// numeric refactorization plus a single-RHS solve of the first pattern
/// on a resident 2x2x2 service (on the Dense wires the service then ran,
/// `edison` platform, in-sim analysis, one refinement step), recorded bit
/// for bit and frozen so that neither solver changes nor service options,
/// the wire included, move the offered load.
inline double fleet_reference_seconds(int scale) {
  return scale == 0   ? 0x1.5ba8d963c5326p-14   // 8.29e-05
         : scale == 1 ? 0x1.7a7c0399db0d6p-13   // 1.80e-04
                      : 0x1.3f4ca02f737fep-12;  // 3.05e-04
}

/// Builds the seeded mixed-traffic trace: six sparsity patterns with a
/// skewed popularity mix, per-pattern values-version bumps (30% of
/// requests carry fresh values), panel widths in {1, 4, 16}, eight
/// tenants, and exponential inter-arrival times at three times a single
/// shard's capacity at the reference service time.
inline FleetTrace make_fleet_trace(int scale, std::uint64_t seed) {
  const index_t g = scale == 0 ? 10 : scale == 1 ? 16 : 24;
  std::vector<std::shared_ptr<const CsrMatrix>> base;
  base.push_back(std::make_shared<CsrMatrix>(
      grid2d_laplacian(GridGeometry{g, g, 1}, Stencil2D::FivePoint)));
  base.push_back(std::make_shared<CsrMatrix>(
      grid2d_laplacian(GridGeometry{g, g, 1}, Stencil2D::NinePoint)));
  base.push_back(std::make_shared<CsrMatrix>(
      grid2d_laplacian(GridGeometry{g + 1, g, 1}, Stencil2D::FivePoint)));
  base.push_back(std::make_shared<CsrMatrix>(
      grid2d_laplacian(GridGeometry{g, g + 1, 1}, Stencil2D::NinePoint)));
  base.push_back(std::make_shared<CsrMatrix>(
      grid2d_laplacian(GridGeometry{g + 1, g + 1, 1}, Stencil2D::FivePoint)));
  base.push_back(std::make_shared<CsrMatrix>(
      grid2d_laplacian(GridGeometry{g - 1, g, 1}, Stencil2D::NinePoint)));

  FleetTrace tr;
  tr.patterns = base.size();
  tr.seed = seed;
  tr.probe_seconds = fleet_reference_seconds(scale);
  tr.rate = 3.0 / tr.probe_seconds;

  const int requests = scale == 0 ? 80 : scale == 1 ? 240 : 480;
  std::vector<std::uint64_t> version(base.size(), 0);
  std::map<std::pair<std::size_t, std::uint64_t>,
           std::shared_ptr<const CsrMatrix>>
      snapshots;
  for (std::size_t p = 0; p < base.size(); ++p) snapshots[{p, 0}] = base[p];

  Rng rng(seed);
  double t = 0;
  for (int i = 0; i < requests; ++i) {
    t += -std::log(1.0 - rng.uniform(0, 1)) / tr.rate;
    // Skewed popularity: two hot patterns carry 60% of the traffic.
    const double u = rng.uniform(0, 1);
    const std::size_t p = u < 0.35   ? 0
                          : u < 0.60 ? 1
                                     : 2 + static_cast<std::size_t>(
                                               rng.next_index(4));
    if (rng.uniform(0, 1) < 0.30) ++version[p];  // fresh operator values
    const std::uint64_t v = version[p];
    auto& snap = snapshots[{p, v}];
    if (!snap)
      snap = std::make_shared<CsrMatrix>(fleet_rescaled(
          *base[p], static_cast<real_t>(1.0 + 0.01 * static_cast<double>(v))));
    const double w = rng.uniform(0, 1);
    FleetTraceItem it;
    it.A = snap;
    it.pattern = p;
    it.version = v;
    it.tenant = static_cast<std::uint64_t>(rng.next_index(8));
    it.nrhs = w < 0.5 ? 1 : w < 0.8 ? 4 : 16;
    it.arrival = t;
    tr.items.push_back(std::move(it));
  }
  return tr;
}

struct FleetRunResult {
  int shards = 0;
  long submitted = 0;
  long completed = 0;
  long shed = 0;
  long coalesced = 0;
  long batches = 0;
  long migrations = 0;
  double p50 = 0, p90 = 0, p99 = 0;  ///< simulated latency of Done requests
  double wall_s = 0;
  double wall_rps = 0;  ///< completed requests per wall-clock second
  double hit_rate = 0;
  double coalesce_rate = 0;
  double shed_rate = 0;
  // Fleet-wide cold-start analysis bill (see ServiceStats): how many
  // misses ran the analysis pipeline and, when it ran in-sim, the
  // simulated seconds / bytes / messages it charged.
  long analyses = 0;
  double analysis_s = 0;
  offset_t analysis_bytes = 0;
  offset_t analysis_msgs = 0;
};

/// Replays the trace against a fresh fleet and summarizes the outcome.
/// Right-hand sides are regenerated deterministically from the trace seed,
/// so every configuration in a sweep solves the identical systems.
inline FleetRunResult run_fleet_trace(const FleetTrace& tr,
                                      const service::FleetOptions& fo) {
  struct Buffers {
    std::vector<real_t> b, x;
  };
  std::vector<Buffers> bufs(tr.items.size());
  for (std::size_t i = 0; i < tr.items.size(); ++i) {
    const FleetTraceItem& it = tr.items[i];
    Rng rng(tr.seed ^ (0x9e3779b97f4a7c15ull * (i + 1)));
    bufs[i].b.resize(static_cast<std::size_t>(it.A->n_rows()) *
                     static_cast<std::size_t>(it.nrhs));
    for (auto& v : bufs[i].b) v = rng.uniform(-1, 1);
    bufs[i].x.resize(bufs[i].b.size());
  }

  const auto wall0 = std::chrono::steady_clock::now();
  service::SolverFleet fleet(fo);
  for (std::size_t i = 0; i < tr.items.size(); ++i) {
    const FleetTraceItem& it = tr.items[i];
    fleet.submit({it.tenant, it.A, it.version, bufs[i].b, bufs[i].x, it.nrhs},
                 it.arrival);
  }
  const std::vector<service::FleetResponse> rs = fleet.drain();
  const auto wall1 = std::chrono::steady_clock::now();

  FleetRunResult r;
  r.shards = fo.shards;
  r.wall_s = std::chrono::duration<double>(wall1 - wall0).count();
  const service::FleetStats& fs = fleet.stats();
  r.submitted = fs.submitted;
  r.completed = fs.completed;
  r.shed = fs.shed;
  r.coalesced = fs.coalesced;
  r.batches = fs.batches;
  r.migrations = fs.migrations;
  std::vector<double> lat;
  for (const service::FleetResponse& resp : rs)
    if (resp.status == service::RequestStatus::Done)
      lat.push_back(resp.latency());
  r.p50 = fleet_percentile(lat, 0.50);
  r.p90 = fleet_percentile(lat, 0.90);
  r.p99 = fleet_percentile(lat, 0.99);
  r.wall_rps = static_cast<double>(r.completed) / std::max(r.wall_s, 1e-12);
  const service::ServiceStats st = fleet.service_totals();
  const double hot = static_cast<double>(st.cache_hits) +
                     static_cast<double>(fs.activations);
  r.hit_rate = hot / std::max(hot + static_cast<double>(st.analyses), 1.0);
  r.coalesce_rate = static_cast<double>(fs.coalesced) /
                    std::max<double>(static_cast<double>(fs.submitted), 1.0);
  r.shed_rate = static_cast<double>(fs.shed) /
                std::max<double>(static_cast<double>(fs.submitted), 1.0);
  r.analyses = st.analyses;
  r.analysis_s = st.analysis_seconds;
  r.analysis_bytes = st.analysis_bytes;
  r.analysis_msgs = st.analysis_messages;
  return r;
}

/// The bench's fleet configuration for one shard count: affinity routing,
/// the flag-selected window (scaled by the reference service time) and
/// queue depth, and migration armed at a 4x imbalance.
inline service::FleetOptions fleet_bench_options(
    const service::ServiceOptions& so, const FleetTrace& tr,
    const FleetFlags& flags, int shards) {
  service::FleetOptions fo;
  fo.shards = shards;
  fo.service = so;
  fo.routing = service::RoutingPolicy::Affinity;
  fo.coalesce_window = flags.window_mult * tr.probe_seconds;
  fo.queue_depth = flags.queue_depth;
  fo.migration_threshold = 4.0;
  return fo;
}

}  // namespace slu3d::bench
