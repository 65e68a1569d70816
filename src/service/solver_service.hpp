// Resident solver service — the "factorize once, solve many" front end the
// paper's 3D algorithm is built to amortize. A SolverService keeps the
// simulated 3D machine configuration and the distributed factors of every
// recently seen sparsity pattern alive across requests:
//
//  * Patterns are keyed by pattern_fingerprint (structure only, never
//    values). A repeated pattern skips ordering and symbolic analysis
//    entirely and goes straight to numeric *refactorization* on the cached
//    BlockStructure / ForestPartition / per-rank allocations
//    (refill_3d_factors + factorize_3d). ServiceStats::analyses counts
//    the expensive analysis constructions, so tests can verify by
//    construction count that a hit runs zero of them.
//  * Factorizations run on Wire::Targeted (ServiceOptions::lu3d, one
//    LuOptions for both of Algorithm 1's planes), not on the engines'
//    Dense default: the same factors, bit for bit, for fewer bytes.
//  * Solves are batched: a request carries an n x nrhs column-major panel
//    and one forward/backward sweep serves the whole batch, so
//    solve-phase message *counts* are independent of nrhs.
//  * solve_stream executes a queue of solve requests back-to-back inside
//    ONE simulated run, every solve and refinement sweep on the one tag
//    range at solve_tag_base: they share a SolvePlan, so each sends the
//    same messages per (source, tag) in program order, and simmpi's FIFO
//    matching pairs every receive with the send of its own solve.
//
// Entries are evicted least-recently-used when more than
// ServiceOptions::max_patterns are resident.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "analysis/dist_analysis.hpp"
#include "lu3d/factor3d.hpp"
#include "lu3d/solve3d.hpp"

namespace slu3d::service {

struct ServiceOptions {
  int Px = 2;  ///< >= 1
  int Py = 2;  ///< >= 1
  int Pz = 1;  ///< number of 2D grids, a positive power of two
  /// Ordering options. An unset `nd.leaf_size` is set at construction to
  /// relaxed_leaf_size(Px, Py, Pz), the relaxed-supernode size chosen for
  /// this grid, and options() reports it; an explicit value is kept.
  NdOptions nd;
  std::optional<GridGeometry> geometry;  ///< exact geometric ND when set
  PartitionStrategy partition = PartitionStrategy::Greedy;
  /// Algorithm 1's options. The engines default to the paper's Dense
  /// wire, which the figures and golden counters reproduce; the service
  /// departs from it and factors on Wire::Targeted, which yields
  /// bitwise-equal factors for fewer bytes, messages and simulated seconds
  /// (DESIGN.md, "Targeted footprint messages").
  LuOptions lu3d{.wire = Wire::Targeted};
  /// The network the simulated runs charge against (flat Edison-like by
  /// default; hierarchical platforms add shared-uplink contention).
  sim::Platform platform;
  /// Iterative-refinement sweeps appended to every solve request; must be
  /// non-negative.
  int refinement_steps = 1;
  /// Where cold-start analysis (ordering + symbolic factorization) runs
  /// on a cache miss: on the host outside the simulated clock (Host, the
  /// legacy default), or subtree-parallel across all simulated ranks and
  /// charged to their clocks (Distributed; see src/analysis/). A 1x1x1
  /// grid makes the Distributed run the serial baseline. Ignored when
  /// `geometry` is set. Cache hits never analyze, in-sim or not.
  AnalysisMode analysis = AnalysisMode::Host;
  /// Resident-pattern capacity; least-recently-used entries are evicted.
  std::size_t max_patterns = 8;
  /// First tag of the tag range every solve and refinement sweep uses.
  int solve_tag_base = 1 << 24;
  /// Primary cache-key function; null means pattern_fingerprint. Entries
  /// additionally keep an independent salted fingerprint, so even a
  /// colliding primary (distinct patterns, equal key — what this hook
  /// injects in tests) never produces a false cache hit.
  std::function<std::uint64_t(const CsrMatrix&)> fingerprint_fn;
};

/// Construction-count instrumentation across the service lifetime.
struct ServiceStats {
  long analyses = 0;          ///< ordering + symbolic constructions (cache misses)
  long refactorizations = 0;  ///< numeric factorization runs (hits and misses)
  long cache_hits = 0;
  long evictions = 0;          ///< LRU capacity evictions (not failure drops)
  long refactor_failures = 0;  ///< numeric factorizations that threw; the
                               ///< entry is dropped, so hits + analyses -
                               ///< failures audits the resident set exactly
  long solve_requests = 0;
  long rhs_columns = 0;  ///< total right-hand-side columns solved
  /// Cumulative in-sim analysis split across all cache misses (zero under
  /// AnalysisMode::Host, where analysis never touches the simulated
  /// clock): simulated seconds, max per-rank bytes received, and total
  /// messages sent of the analysis phases this service has run.
  double analysis_seconds = 0;
  offset_t analysis_bytes = 0;
  offset_t analysis_messages = 0;
};

/// Structure-keyed symbolic state of one resident pattern — everything a
/// fleet's cache-warm migration ships between shards. Deliberately carries
/// no values: no permuted matrix, no per-rank numeric blocks. The target
/// shard reconstructs those on its next factor() of the pattern (a cache
/// hit: zero analysis work), which is the SpComm3D lesson applied to
/// migration — move only the bytes the receiver is actually missing.
struct SymbolicState {
  std::uint64_t key = 0;    ///< primary pattern fingerprint
  std::uint64_t check = 0;  ///< salted secondary fingerprint (collision guard)
  int Px = 0, Py = 0, Pz = 0;
  std::unique_ptr<SeparatorTree> tree;
  std::unique_ptr<BlockStructure> bs;
  std::unique_ptr<ForestPartition> part;  ///< points into *bs (moved together)
  std::vector<index_t> pinv;
  offset_t flops = 0;

  /// Approximate wire size of this state (tree + block structure + forest
  /// partition + inverse permutation): the bytes a migration actually
  /// moves, as opposed to re-shipping the matrix and numeric factors.
  offset_t payload_bytes() const;
};

/// Per-factorization-request report (one simulated factorization run).
struct FactorReport {
  bool cache_hit = false;   ///< pattern was resident: no ordering/symbolic ran
  double factor_time = 0;   ///< simulated critical-path seconds
  double t_scu = 0;         ///< Schur compute on the critical-path rank
  double t_comm = 0;        ///< non-overlapped comm+sync on that rank
  offset_t w_fact = 0;      ///< max per-rank XY bytes received
  offset_t w_red = 0;       ///< max per-rank Z bytes received
  /// Analysis-phase split (nonzero only on a cache miss with an in-sim
  /// AnalysisMode): simulated critical-path seconds of the analysis
  /// stage (already included in factor_time), the paper-style max
  /// per-rank bytes received during it, and its total messages sent.
  double t_analysis = 0;
  offset_t w_analysis = 0;
  offset_t msg_analysis = 0;
  offset_t mem_total = 0;   ///< numeric block bytes across all ranks
  offset_t mem_max = 0;     ///< max per rank
  offset_t flops = 0;       ///< symbolic factorization flop count
};

/// One solve request against the current resident operator. `b` and `x`
/// are n x nrhs column-major panels in the *original* (unpermuted) index
/// space; `x` receives the solution.
struct SolveRequest {
  std::span<const real_t> b;
  std::span<real_t> x;
  index_t nrhs = 1;
};

/// Per-solve-request report. The communication split is solve-phase only
/// (deltas around this request), separate from the factor-phase
/// w_fact / w_red above.
struct SolveReport {
  double solve_time = 0;      ///< simulated latency of this request
  offset_t w_solve_xy = 0;    ///< max per-rank XY bytes received
  offset_t w_solve_z = 0;     ///< max per-rank Z bytes received
  offset_t msg_solve_xy = 0;  ///< total XY messages sent (all ranks)
  offset_t msg_solve_z = 0;   ///< total Z messages sent (all ranks)
  real_t residual = 0;        ///< worst relative residual over the panel
};

class SolverService {
 public:
  explicit SolverService(const ServiceOptions& options);
  ~SolverService();
  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Factors `A` on the resident machine. A resident pattern (same
  /// fingerprint) is numerically refactorized in place — no ordering, no
  /// symbolic analysis, no allocation; otherwise the full analysis
  /// pipeline runs once and the pattern becomes resident. The factored
  /// operator becomes the target of subsequent solve requests. Throws
  /// slu3d::Error (and drops the entry) if the factorization fails.
  FactorReport factor(const CsrMatrix& A);

  /// Executes one solve request on the current operator.
  SolveReport solve(const SolveRequest& request);

  /// Executes a queue of solve requests back-to-back in one simulated
  /// run, on one shared tag range. Reports are per request (stat deltas
  /// around each).
  std::vector<SolveReport> solve_stream(std::span<const SolveRequest> requests);

  const ServiceStats& stats() const { return stats_; }
  const ServiceOptions& options() const { return opt_; }
  std::size_t resident_patterns() const { return cache_.size(); }
  bool has_current() const { return current_ != nullptr; }

  /// Primary cache key of `A` under this service's configuration.
  std::uint64_t fingerprint(const CsrMatrix& A) const;

  /// True if a pattern with this primary fingerprint is resident.
  bool has_pattern(std::uint64_t fingerprint) const;

  /// Makes the resident, already numerically factored pattern the current
  /// solve target without any simulated work (its factors are still valid:
  /// solves never modify them). Returns false — and leaves the current
  /// operator unchanged — if the pattern is not resident or holds no valid
  /// numeric factors (e.g. it arrived via insert_pattern and was never
  /// factored here). The caller owns values-versioning: activate only when
  /// the resident values are the ones the request wants.
  bool activate(std::uint64_t fingerprint);

  /// Removes the pattern from the cache and returns its symbolic state
  /// (the migration payload). Numeric allocations and the permuted matrix
  /// are discarded — they are value-laden and never shipped. Returns
  /// nullopt if the pattern is not resident. Not counted as an eviction.
  std::optional<SymbolicState> extract_pattern(std::uint64_t fingerprint);

  /// Adopts a migrated symbolic state as a resident (but not yet
  /// factored) pattern: the next factor() of the pattern is a cache hit
  /// that runs numeric refactorization only. May LRU-evict to capacity.
  void insert_pattern(SymbolicState&& state);

 private:
  struct Resident;

  Resident* find(std::uint64_t key, std::uint64_t check);
  void evict_to_capacity();
  FactorReport run_numeric_factorization(Resident& op);
  std::vector<SolveReport> run_solves(Resident& op,
                                      std::span<const SolveRequest> requests);

  ServiceOptions opt_;
  ServiceStats stats_;
  std::vector<std::unique_ptr<Resident>> cache_;
  Resident* current_ = nullptr;
  std::uint64_t use_clock_ = 0;
};

}  // namespace slu3d::service
