// Sharded multi-tenant solver fleet — the "millions of users" front end
// over N resident SolverService shards. The fleet makes the paper's
// memory-for-communication trade at service scale: cached symbolic state
// is replicated across shards only where traffic demands it, and requests
// are routed to the shard that already holds it.
//
//  * Fingerprint-affinity routing: a request whose pattern is resident on
//    some shard lands on that shard (cache hit: zero analysis work);
//    unknown patterns hash to a stable home shard. RoutingPolicy::{Hash,
//    RoundRobin} are the measurably-worse baselines the tests compare
//    against.
//  * Coalescing: same-(fingerprint, values-version) requests arriving
//    within `coalesce_window` simulated seconds of the first join one
//    batch and execute as ONE solve_stream run (n x nrhs panels per
//    request, one shared tag range), with per-request results bitwise
//    identical to independent solves.
//  * Admission control: per-shard queues are bounded at `queue_depth`
//    requests. On saturation the router redirects to the least-loaded
//    shard and sheds with an explicit Shed response once every queue is
//    full — open-loop load can never grow memory.
//  * Cache-warm migration: when the affinity shard's queue exceeds
//    `migration_threshold` times the least-loaded shard's, the pattern's
//    cached SymbolicState moves to the cold shard and the request follows.
//    Only the structure-keyed symbolic payload ships (SymbolicState::
//    payload_bytes) — never the matrix or the numeric factors.
//
// The fleet runs on a simulated clock: arrivals carry monotone simulated
// timestamps (the bench generates open-loop Poisson arrivals), shards
// advance lazily as arrivals are observed, and each batch's service time
// is the simulated critical-path seconds its factor/solve runs report.
// Everything is deterministic: one trace + one configuration = one
// bit-exact set of responses.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "service/solver_service.hpp"

namespace slu3d::service {

enum class RoutingPolicy {
  Affinity,    ///< resident-pattern shard, else hash home (the default)
  Hash,        ///< stable fingerprint hash only (no resident lookup)
  RoundRobin,  ///< naive rotation (the baseline affinity must beat)
};

struct FleetOptions {
  int shards = 4;
  /// Uniform per-shard service configuration.
  ServiceOptions service;
  RoutingPolicy routing = RoutingPolicy::Affinity;
  /// Simulated seconds a batch stays open for same-pattern joiners after
  /// its first request arrives. 0 coalesces only identical arrival times.
  double coalesce_window = 0;
  /// Max queued (not yet dispatched) requests per shard; beyond this the
  /// router redirects to the least-loaded shard, and sheds only when that
  /// one is full too.
  std::size_t queue_depth = 64;
  /// Cache-warm migration trigger (Affinity routing only): migrate the
  /// pattern when (affinity queue + 1) >= threshold * (min queue + 1).
  /// 0 disables migration.
  double migration_threshold = 0;
};

/// One request against the fleet: tenant, operator values, and an n x nrhs
/// right-hand-side panel. `A` is shared because coalesced requests and
/// repeated traffic reference the same operator snapshot; `values_version`
/// distinguishes same-pattern requests with different values (the caller's
/// contract: equal (fingerprint, values_version) implies equal values).
struct FleetRequest {
  std::uint64_t tenant = 0;
  std::shared_ptr<const CsrMatrix> A;
  std::uint64_t values_version = 0;
  std::span<const real_t> b;
  std::span<real_t> x;
  index_t nrhs = 1;
};

enum class RequestStatus {
  Done,    ///< solved; `x` holds the solution panel
  Shed,    ///< rejected by admission control (every queue full)
  Failed,  ///< the batch's numeric factorization threw (e.g. singular)
};

struct FleetResponse {
  std::uint64_t id = 0;  ///< fleet-assigned request id (submission order)
  std::uint64_t tenant = 0;
  RequestStatus status = RequestStatus::Done;
  int shard = -1;         ///< serving shard (-1 if shed)
  bool coalesced = false; ///< joined a batch another request opened
  bool redirected = false;
  bool warm = false;       ///< pattern was resident on the serving shard
  bool refactored = false; ///< a numeric factorization ran for the batch
  double arrival = 0;     ///< simulated timestamps
  double start = 0;       ///< when the batch began service
  double completion = 0;
  SolveReport solve;      ///< per-request solve-phase report

  double latency() const { return completion - arrival; }
};

/// Per-tenant accounting (keyed by FleetRequest::tenant).
struct TenantStats {
  long requests = 0;
  long shed = 0;
  long failed = 0;
  long rhs_columns = 0;
  double sim_seconds = 0;  ///< simulated service time consumed (factor time
                           ///< split evenly across a batch's members)
};

/// Fleet-level counters; per-shard ServiceStats (analyses, cache_hits,
/// evictions, refactor_failures) stay on the shards and are summed by
/// service_totals() so hit-rate math is auditable end to end.
struct FleetStats {
  long submitted = 0;
  long completed = 0;
  long shed = 0;
  long failed = 0;
  long redirected = 0;
  long coalesced = 0;    ///< requests that joined an already-open batch
  long batches = 0;      ///< dispatched batches (solve_stream runs)
  long activations = 0;  ///< warm batches served with zero factor work
  long migrations = 0;
  offset_t migrated_bytes = 0;  ///< symbolic payload actually shipped
};

class SolverFleet {
 public:
  explicit SolverFleet(const FleetOptions& options);
  ~SolverFleet();
  SolverFleet(const SolverFleet&) = delete;
  SolverFleet& operator=(const SolverFleet&) = delete;

  /// Submits one request at simulated time `arrival` (monotone across
  /// calls). Routing, admission, and any batch dispatches due before
  /// `arrival` happen now; the request's own batch runs once its window
  /// closes and its shard frees up. Returns the fleet request id. The
  /// caller keeps `b`/`x` storage alive until the response is drained.
  std::uint64_t submit(const FleetRequest& request, double arrival);

  /// Dispatches everything still queued (windows are clamped to the last
  /// arrival) and returns all responses accumulated since the previous
  /// drain, in request-id order.
  std::vector<FleetResponse> drain();

  const FleetStats& stats() const { return stats_; }
  /// Sum of the shards' ServiceStats: fleet hit rate is
  /// (cache_hits + activations) / (cache_hits + activations + analyses).
  ServiceStats service_totals() const;
  const std::map<std::uint64_t, TenantStats>& tenant_stats() const {
    return tenants_;
  }
  int shard_count() const { return static_cast<int>(shards_.size()); }
  const SolverService& shard(int i) const;
  /// Queued (not yet dispatched) requests on shard i right now.
  std::size_t shard_queue_depth(int i) const;
  double now() const { return clock_; }

 private:
  struct Member;
  struct Batch;
  struct Shard;

  int hash_home(std::uint64_t fp) const;
  void advance(Shard& shard, double until);
  void dispatch(Shard& shard, Batch&& batch, double start);
  void shed(const FleetRequest& rq, std::uint64_t id, double arrival);

  FleetOptions opt_;
  FleetStats stats_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::map<std::uint64_t, TenantStats> tenants_;
  std::vector<FleetResponse> done_;
  double clock_ = 0;
  std::uint64_t next_id_ = 0;
  std::uint64_t rr_next_ = 0;
};

}  // namespace slu3d::service
