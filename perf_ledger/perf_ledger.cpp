// perf_ledger — the repository's performance ledger in one command. Four
// workloads, each scored on two clocks: the *simulated* critical path (what
// the paper claims; bitwise deterministic on the flat platform) and the
// *host* wall clock (what running the simulator costs).
//
//   perf_ledger --workload cold|warm|fleet|paper [--seed N] [--seconds S]
//               [--trace 0|1] [--out DIR]
//
// The timed phase repeats one fixed *cycle* of requests until the next
// cycle would overrun --seconds (at least one cycle runs). What a cycle
// asks for — which patterns, in what mix, and for the fleet the arrival
// schedule — is fixed per workload, so every simulated metric is a pure
// function of the code under test and a tight regression bound holds.
// --seed (default 2026) draws the numeric values, the right-hand sides and
// the request order, none of which moves the simulated clock; every later
// cycle must reproduce the first cycle's simulated reports bitwise.
//
// Without --trace the last stdout line is one JSON object holding the
// end-to-end metrics. With --trace 1 it holds the per-layer metrics: the
// timed phase runs twice (untraced, then traced, half the budget each, so
// the difference is the tracing overhead), spans recorded around every
// public call go to DIR/trace_<workload>.json in Chrome trace format, every
// 10th closed-loop request is replayed through the lower public APIs and
// must match the service's report bitwise, and the simmpi and dense-kernel
// microbenchmarks run. The exit code is non-zero when a check fails.
//
// All load comes from this one single-threaded client; the simulated ranks
// are the process's own threads. Every run charges against the flat
// `edison` platform: hierarchical platforms grant contended links in
// host-thread order, so their clocks do not repeat from run to run.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "fleet_common.hpp"
#include "lu3d/solve3d.hpp"
#include "numeric/dense_kernels.hpp"

namespace {

using namespace slu3d;
using Clock = std::chrono::steady_clock;

constexpr double kMaxResidual = 1e-10;
// Set-up repeats at least this often and for at least this long; the
// median is reported, so that a sub-second set-up still reads steadily.
constexpr std::size_t kSetupRepeats = 5;
constexpr double kSetupSeconds = 1.0;
constexpr long kReplayEvery = 10;

// The fleet's offered load is frozen in absolute simulated units, never
// derived from a probe of the code under test: a faster service must show
// up as shorter queues, not as a higher offered load that hides the gain.
// At this rate four 2x2x2 shards run just below saturation (p99 about 4x
// p50, nothing shed).
constexpr double kFleetRate = 10900.0;       // arrivals per simulated second
constexpr double kFleetWindow = 2.75e-4;     // coalesce window, simulated s
constexpr int kFleetRequests = 4000;
constexpr std::uint64_t kFleetSchedule = 2026;  // arrival-schedule seed

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return Rng(a ^ (0x9e3779b97f4a7c15ull * (b + 1))).next_u64();
}

double pct(std::vector<double> v, double p) {
  return bench::fleet_percentile(std::move(v), p);
}

// ---- metrics --------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Both tables must match BENCHMARK.json. Simulated times carry the unit
// `sim_s`: they come from the model's clock, not from the host's.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},        {"sim_p50_s", "sim_s"},  {"sim_p90_s", "sim_s"},
    {"sim_p99_s", "sim_s"},  {"sim_rps", "1/sim_s"},  {"wall_p50_s", "s"},
    {"wall_rps", "1/s"},     {"ok_frac", "frac"},     {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"fleet.queue_wait_p50_s", "sim_s"},
    {"fleet.queue_wait_p99_s", "sim_s"},
    {"fleet.service_p50_s", "sim_s"},
    {"fleet.coalesce_frac", "frac"},
    {"fleet.activation_frac", "frac"},
    {"fleet.shed_frac", "frac"},
    {"fleet.redirect_frac", "frac"},
    {"fleet.migrations", "count"},
    {"fleet.migrated_bytes", "bytes"},
    {"fleet.submit_wall_s", "s"},
    {"fleet.drain_wall_s", "s"},
    {"service.hit_frac", "frac"},
    {"service.factor_sim_p50_s", "sim_s"},
    {"service.factor_wall_p50_s", "s"},
    {"service.solve_sim_p50_s", "sim_s"},
    {"service.solve_wall_p50_s", "s"},
    {"service.solve_msgs_per_rhs", "count"},
    {"service.evictions", "count"},
    {"service.refactor_failures", "count"},
    {"analysis.sim_p50_s", "sim_s"},
    {"analysis.share_p50", "frac"},
    {"analysis.wall_p50_s", "s"},
    {"analysis.bytes_p50", "bytes"},
    {"analysis.msgs_p50", "count"},
    {"factor.t_scu_s", "sim_s"},
    {"factor.t_comm_s", "sim_s"},
    {"factor.wait_s", "sim_s"},
    {"factor.w_fact_bytes", "bytes"},
    {"factor.w_red_bytes", "bytes"},
    {"factor.msgs_xy", "count"},
    {"factor.msgs_z", "count"},
    {"factor.mem_total_bytes", "bytes"},
    {"factor.wall_p50_s", "s"},
    {"lu3d.K2D5pt.pz1.t_fact_s", "sim_s"},
    {"lu3d.K2D5pt.pz16.t_fact_s", "sim_s"},
    {"lu3d.nlpkkt3d.pz1.t_fact_s", "sim_s"},
    {"lu3d.nlpkkt3d.pz16.t_fact_s", "sim_s"},
    {"lu3d.K2D5pt.pz16.w_red_bytes", "bytes"},
    {"lu3d.nlpkkt3d.pz16.w_red_bytes", "bytes"},
    {"solve.msgs_xy", "count"},
    {"solve.msgs_z", "count"},
    {"solve.w_xy_bytes", "bytes"},
    {"solve.w_z_bytes", "bytes"},
    {"solve.wall_p50_s", "s"},
    {"simmpi.run_ranks_p64_us", "us"},
    {"simmpi.run_ranks_p128_us", "us"},
    {"simmpi.sendrecv_us", "us"},
    {"simmpi.ibcast_p64_us", "us"},
    {"simmpi.put_p64_us", "us"},
    {"simmpi.host_per_sim", "s/sim_s"},
    {"numeric.gemm_minus_n64_gflops", "GFLOP/s"},
    {"numeric.gemm_minus_n64_gflops_iqr", "GFLOP/s"},
    {"numeric.gemm_minus_n256_gflops", "GFLOP/s"},
    {"numeric.gemm_minus_n256_gflops_iqr", "GFLOP/s"},
    {"numeric.getrf_nopiv_n64_gflops", "GFLOP/s"},
    {"numeric.getrf_nopiv_n64_gflops_iqr", "GFLOP/s"},
    {"numeric.trsm_left_lower_unit_n64_gflops", "GFLOP/s"},
    {"numeric.trsm_left_lower_unit_n64_gflops_iqr", "GFLOP/s"},
    {"numeric.trsm_right_upper_n64_gflops", "GFLOP/s"},
    {"numeric.trsm_right_upper_n64_gflops_iqr", "GFLOP/s"},
    {"numeric.host_cores", "count"},
    {"trace.untraced_wall_p50_s", "s"},
    {"trace.traced_wall_p50_s", "s"},
    {"trace.overhead_frac", "frac"},
};

/// A fixed table of named metrics; a workload sets what its layers
/// measure and the rest read 0 (a layer the workload never enters).
class Metrics {
 public:
  explicit Metrics(std::span<const MetricDef> defs)
      : defs_(defs), values_(defs.size(), 0.0) {}

  void set(std::string_view name, double value) {
    for (std::size_t i = 0; i < defs_.size(); ++i)
      if (name == defs_[i].name) {
        values_[i] = std::isfinite(value) ? value : 0.0;
        return;
      }
    throw std::logic_error("perf_ledger: unknown metric " + std::string(name));
  }

  void print_table() const {
    for (std::size_t i = 0; i < defs_.size(); ++i)
      std::printf("%-42s %.9g %s\n", defs_[i].name, values_[i], defs_[i].unit);
  }

  void print_json(bool correct, long attempted, long failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < defs_.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs_[i].name, values_[i],
                  defs_[i].unit);
    std::printf("}}\n");
  }

 private:
  std::span<const MetricDef> defs_;
  std::vector<double> values_;
};

// ---- spans ----------------------------------------------------------------

/// In-memory span log of the client thread: one span per public call the
/// benchmark makes (name, start, end, parent span, request id), written
/// out once at exit.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start;
    double end;
    long parent;   ///< index of the enclosing span, -1 at top level
    long request;  ///< request id, -1 outside any request
  };

  void open(const char* name, long request) {
    spans_.push_back({name, now(), 0.0,
                      stack_.empty() ? -1 : static_cast<long>(stack_.back()),
                      request});
    stack_.push_back(spans_.size() - 1);
  }
  void close() {
    spans_[stack_.back()].end = now();
    stack_.pop_back();
  }

  /// Host seconds of every span with this name.
  std::vector<double> durations(std::string_view name) const {
    std::vector<double> d;
    for (const Span& s : spans_)
      if (name == s.name) d.push_back(s.end - s.start);
    return d;
  }

  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, "
                   "\"tid\": 0, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %ld, \"request\": %ld}}",
                   i == 0 ? "" : ",", s.name, 1e6 * s.start,
                   1e6 * (s.end - s.start), i, s.parent, s.request);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  double now() const { return since(t0_); }

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Scoped span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* t, const char* name, long request = -1) : t_(t) {
    if (t_ != nullptr) t_->open(name, request);
  }
  ~Scope() {
    if (t_ != nullptr) t_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
};

// ---- correctness bookkeeping ----------------------------------------------

struct Outcome {
  long attempted = 0;
  long failed = 0;      ///< threw, shed, or residual above kMaxResidual
  long violations = 0;  ///< broken residual, accounting or bitwise checks

  void violate(const std::string& what) {
    if (++violations <= 10)
      std::fprintf(stderr, "perf_ledger: check failed: %s\n", what.c_str());
  }
};

// ---- inputs -----------------------------------------------------------------

/// Same pattern as `A`, fresh values: every off-diagonal entry scaled by a
/// seeded factor in [0.5, 1), the diagonal kept, so the generators'
/// diagonal dominance (what static pivoting relies on) survives.
CsrMatrix with_values(const CsrMatrix& A, std::uint64_t seed) {
  CsrMatrix B = A;
  Rng rng(seed);
  const auto rp = B.row_ptr();
  const auto ci = B.col_idx();
  const auto vals = B.values();
  for (index_t r = 0; r < B.n_rows(); ++r)
    for (auto k = static_cast<std::size_t>(rp[static_cast<std::size_t>(r)]);
         k < static_cast<std::size_t>(rp[static_cast<std::size_t>(r) + 1]); ++k)
      if (ci[k] != r) vals[k] *= rng.uniform(0.5, 1.0);
  return B;
}

std::vector<real_t> random_panel(std::size_t len, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<real_t> v(len);
  for (auto& e : v) e = rng.uniform(-1, 1);
  return v;
}

template <class T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[static_cast<std::size_t>(
                            rng.next_index(static_cast<index_t>(i)))]);
}

service::ServiceOptions service_options(int Px, int Py, int Pz) {
  service::ServiceOptions so;
  so.platform = bench::platform();
  so.Px = Px;
  so.Py = Py;
  so.Pz = Pz;
  so.refinement_steps = 1;
  so.analysis = AnalysisMode::Distributed;
  return so;
}

/// One factor() + 1-RHS solve() outside any measurement (set-up's
/// throw-away request).
void serve_once(service::SolverService& svc, const CsrMatrix& A) {
  svc.factor(A);
  const auto n = static_cast<std::size_t>(A.n_rows());
  const std::vector<real_t> b = random_panel(n, 1);
  std::vector<real_t> x(n);
  svc.solve({b, x, 1});
}

// ---- closed-loop workloads (cold, warm, paper) -------------------------------

struct ClosedLoop {
  struct Slot {
    std::size_t service = 0;
    std::size_t pattern = 0;
    index_t nrhs = 0;  ///< 0: the request is factor() only
  };
  std::vector<CsrMatrix> patterns;
  std::vector<std::unique_ptr<service::SolverService>> services;
  std::vector<std::string> labels;  ///< per service, for per-config rows
  std::vector<Slot> cycle;
  bool expect_hit = false;  ///< every timed factor() must hit the cache
};

/// cold: every request is a pattern the service has not seen within its
/// LRU capacity (37 patterns against 8 resident), so each one pays
/// in-sim distributed analysis, a first numeric factorization and a
/// 1-RHS solve at 4x4x4.
ClosedLoop setup_cold(std::uint64_t seed) {
  ClosedLoop w;
  for (index_t s = 24; s <= 48; s += 4)
    for (index_t d = 0; d <= 4 && s + d <= 48; d += 4) {
      w.patterns.push_back(
          grid2d_laplacian({s, s + d, 1}, Stencil2D::FivePoint));
      w.patterns.push_back(
          grid2d_laplacian({s + d, s, 1}, Stencil2D::NinePoint));
    }
  for (index_t s = 8; s <= 13; ++s) {
    w.patterns.push_back(grid3d_laplacian({s, s, s}, Stencil3D::SevenPoint));
    if (s < 13)
      w.patterns.push_back(
          grid3d_laplacian({s, s, s + 1}, Stencil3D::SevenPoint));
  }
  w.services.push_back(
      std::make_unique<service::SolverService>(service_options(4, 4, 4)));
  w.labels.emplace_back("cold");
  for (std::size_t p = 0; p < w.patterns.size(); ++p)
    w.cycle.push_back({0, p, 1});
  shuffle(w.cycle, seed);
  // A pattern outside the family, so no timed request can hit the cache.
  serve_once(*w.services[0],
             grid2d_laplacian({20, 20, 1}, Stencil2D::FivePoint));
  return w;
}

/// warm: six resident patterns analysed here; every timed request brings
/// new values (cache hit, numeric refactorization) and a solve with nrhs
/// in {1, 4, 16} at exactly 50/30/20 per cycle.
ClosedLoop setup_warm(std::uint64_t seed) {
  ClosedLoop w;
  w.patterns.push_back(grid2d_laplacian({32, 32, 1}, Stencil2D::FivePoint));
  w.patterns.push_back(grid2d_laplacian({40, 40, 1}, Stencil2D::NinePoint));
  w.patterns.push_back(grid2d_laplacian({44, 48, 1}, Stencil2D::FivePoint));
  w.patterns.push_back(grid2d_laplacian({28, 36, 1}, Stencil2D::NinePoint));
  w.patterns.push_back(grid3d_laplacian({10, 10, 10}, Stencil3D::SevenPoint));
  w.patterns.push_back(grid3d_laplacian({12, 12, 11}, Stencil3D::SevenPoint));
  w.services.push_back(
      std::make_unique<service::SolverService>(service_options(4, 4, 4)));
  w.labels.emplace_back("warm");
  w.expect_hit = true;
  for (const CsrMatrix& A : w.patterns) w.services[0]->factor(A);
  for (std::size_t p = 0; p < w.patterns.size(); ++p)
    for (const index_t nrhs : {1, 1, 1, 1, 1, 4, 4, 4, 16, 16})
      w.cycle.push_back({0, p, nrhs});
  shuffle(w.cycle, seed);
  serve_once(*w.services[0], with_values(w.patterns[0], mix(seed, ~0ull)));
  return w;
}

/// paper: Algorithm 1 alone on the suite's K2D5pt (planar, geometric ND)
/// and nlpkkt3d (non-planar) at P = 128 with Pz in {1, 16}; one resident
/// service per configuration, each timed request a factor() of new values.
ClosedLoop setup_paper(std::uint64_t seed) {
  ClosedLoop w;
  const GridGeometry k2d{128, 128, 1};
  w.patterns.push_back(grid2d_laplacian(k2d, Stencil2D::FivePoint));
  w.patterns.push_back(kkt3d({14, 14, 14}, /*seed=*/7u));
  const char* names[] = {"K2D5pt", "nlpkkt3d"};
  for (std::size_t p = 0; p < w.patterns.size(); ++p)
    for (const int pz : {1, 16}) {
      const auto [px, py] = bench::square_ish(128 / pz);
      service::ServiceOptions so = service_options(px, py, pz);
      so.analysis = AnalysisMode::Host;
      if (p == 0) so.geometry = k2d;
      w.services.push_back(std::make_unique<service::SolverService>(so));
      w.labels.push_back(std::string(names[p]) + ".pz" + std::to_string(pz));
      w.services.back()->factor(w.patterns[p]);
      w.cycle.push_back({w.services.size() - 1, p, 0});
    }
  w.expect_hit = true;
  shuffle(w.cycle, seed);
  w.services[0]->factor(with_values(w.patterns[0], mix(seed, ~0ull)));
  return w;
}

struct Request {
  bool ok = false;
  double sim = 0;   ///< factor_time + solve_time
  double wall = 0;  ///< host seconds of the service calls
  index_t nrhs = 0;
  std::size_t slot = 0;
  service::FactorReport fr;
  service::SolveReport sr;
};

bool same_sim(const Request& a, const Request& b) {
  return a.fr.factor_time == b.fr.factor_time &&
         a.fr.t_analysis == b.fr.t_analysis && a.fr.w_fact == b.fr.w_fact &&
         a.fr.w_red == b.fr.w_red && a.fr.w_analysis == b.fr.w_analysis &&
         a.fr.msg_analysis == b.fr.msg_analysis &&
         a.sr.solve_time == b.sr.solve_time &&
         a.sr.w_solve_xy == b.sr.w_solve_xy &&
         a.sr.w_solve_z == b.sr.w_solve_z &&
         a.sr.msg_solve_xy == b.sr.msg_solve_xy &&
         a.sr.msg_solve_z == b.sr.msg_solve_z;
}

/// Counters the service report does not carry, from the traced replay.
struct Replay {
  double wait_s = 0;  ///< critical-path rank's blocked time in the factor run
  double msgs_xy = 0;
  double msgs_z = 0;
};

/// Re-executes one request through the public layers under the service —
/// analysis (in-sim for a cold miss, host otherwise), make_3d_factors +
/// factorize_3d, then solve_3d with the service's refinement sweeps, each
/// under its own run_ranks — and checks that the simulated times and byte
/// counters equal the service's report bitwise.
Replay replay(const service::SolverService& svc, const CsrMatrix& A,
              const Request& rq, std::span<const real_t> b, Tracer& tr,
              long id, Outcome& out) {
  const service::ServiceOptions& o = svc.options();
  const int P = o.Px * o.Py * o.Pz;
  std::unique_ptr<SeparatorTree> tree;
  std::unique_ptr<BlockStructure> bs;
  sim::RunResult ares;
  double analysis_time = 0;
  if (!rq.fr.cache_hit && !o.geometry && o.analysis != AnalysisMode::Host) {
    std::mutex mu;
    Scope s(&tr, "sim::run_ranks analyze_in_sim", id);
    ares = sim::run_ranks(P, o.platform, [&](sim::Comm& world) {
      AnalysisResult r = analyze_in_sim(A, world, o.nd, o.analysis);
      if (world.rank() == 0) {
        const std::lock_guard<std::mutex> lock(mu);
        tree = std::move(r.tree);
        bs = std::move(r.bs);
      }
    });
    analysis_time = ares.max_clock();
  } else if (o.geometry) {
    tree = std::make_unique<SeparatorTree>(geometric_nd(*o.geometry, o.nd));
    bs = std::make_unique<BlockStructure>(A, *tree);
  } else {
    AnalysisResult r = analyze_host(A, o.nd);
    tree = std::move(r.tree);
    bs = std::move(r.bs);
  }
  const CsrMatrix Ap = A.permuted_symmetric(tree->perm());
  const ForestPartition part(*bs, o.Pz, o.partition);
  std::vector<std::unique_ptr<Dist2dFactors>> F(static_cast<std::size_t>(P));
  std::vector<offset_t> mem(static_cast<std::size_t>(P), 0);
  sim::RunResult fres;
  {
    Scope s(&tr, "sim::run_ranks factorize_3d", id);
    fres = sim::run_ranks(P, o.platform, [&](sim::Comm& world) {
      auto grid = sim::ProcessGrid3D::create(world, o.Px, o.Py, o.Pz);
      auto& f = F[static_cast<std::size_t>(world.rank())];
      f = std::make_unique<Dist2dFactors>(make_3d_factors(*bs, grid, part, Ap));
      mem[static_cast<std::size_t>(world.rank())] = f->allocated_bytes();
      factorize_3d(*f, grid, part, o.lu3d);
    });
  }

  Replay rep;
  constexpr auto xy = static_cast<std::size_t>(sim::CommPlane::XY);
  constexpr auto z = static_cast<std::size_t>(sim::CommPlane::Z);
  const sim::RankStats* crit = &fres.ranks.front();
  for (const sim::RankStats& r : fres.ranks) {
    if (r.clock > crit->clock) crit = &r;
    rep.msgs_xy += static_cast<double>(r.messages_sent[xy]);
    rep.msgs_z += static_cast<double>(r.messages_sent[z]);
  }
  rep.wait_s = crit->wait_seconds;
  offset_t mem_total = 0;
  for (const offset_t m : mem) mem_total += m;
  // The service folds the analysis run's traffic into w_fact / w_red; an
  // empty `ares` (no in-sim analysis) reads 0 everywhere.
  const bool factor_same =
      fres.max_clock() + analysis_time == rq.fr.factor_time &&
      crit->compute_seconds[static_cast<int>(
          sim::ComputeKind::SchurUpdate)] == rq.fr.t_scu &&
      crit->comm_seconds() == rq.fr.t_comm &&
      std::max(fres.max_bytes_received(sim::CommPlane::XY),
               ares.max_bytes_received(sim::CommPlane::XY)) == rq.fr.w_fact &&
      std::max(fres.max_bytes_received(sim::CommPlane::Z),
               ares.max_bytes_received(sim::CommPlane::Z)) == rq.fr.w_red &&
      ares.max_analysis_seconds() == rq.fr.t_analysis &&
      ares.max_analysis_bytes_received() == rq.fr.w_analysis &&
      ares.total_analysis_messages_sent() == rq.fr.msg_analysis &&
      mem_total == rq.fr.mem_total;
  if (!factor_same)
    out.violate("replayed factorization of request " + std::to_string(id) +
                " differs from the service report");
  if (rq.nrhs == 0) return rep;

  // The service's solve run for one request: permute the panel, solve,
  // refine, and diff the rank stats around the request.
  const auto n = static_cast<std::size_t>(A.n_rows());
  const std::vector<index_t> pinv = invert_permutation(tree->perm());
  std::vector<real_t> pb(b.size());
  for (index_t j = 0; j < rq.nrhs; ++j)
    for (std::size_t r = 0; r < n; ++r)
      pb[static_cast<std::size_t>(pinv[r]) + static_cast<std::size_t>(j) * n] =
          b[r + static_cast<std::size_t>(j) * n];
  std::vector<sim::RankStats> before(static_cast<std::size_t>(P));
  std::vector<sim::RankStats> after(static_cast<std::size_t>(P));
  {
    Scope s(&tr, "sim::run_ranks solve_3d", id);
    sim::run_ranks(P, o.platform, [&](sim::Comm& world) {
      auto grid = sim::ProcessGrid3D::create(world, o.Px, o.Py, o.Pz);
      const auto me = static_cast<std::size_t>(world.rank());
      before[me] = world.stats();
      std::vector<real_t> xr(pb);
      Solve3dOptions sopt;
      sopt.nrhs = rq.nrhs;
      sopt.tag_base = o.solve_tag_base;
      solve_3d(*F[me], world, grid, part, xr, sopt);
      for (int it = 0; it < o.refinement_steps; ++it) {
        std::vector<real_t> dx(xr.size());
        for (index_t j = 0; j < rq.nrhs; ++j) {
          const auto off = static_cast<std::size_t>(j) * n;
          Ap.spmv(std::span<const real_t>(xr).subspan(off, n),
                  std::span<real_t>(dx).subspan(off, n));
        }
        for (std::size_t q = 0; q < dx.size(); ++q) dx[q] = pb[q] - dx[q];
        sopt.tag_base += solve3d_tag_span(*bs);
        solve_3d(*F[me], world, grid, part, dx, sopt);
        for (std::size_t q = 0; q < xr.size(); ++q) xr[q] += dx[q];
      }
      after[me] = world.stats();
    });
  }
  service::SolveReport sr;
  for (std::size_t r = 0; r < static_cast<std::size_t>(P); ++r) {
    const sim::RankStats &a = after[r], &bf = before[r];
    sr.solve_time = std::max(sr.solve_time, a.clock - bf.clock);
    sr.w_solve_xy = std::max(sr.w_solve_xy,
                             a.bytes_received[xy] - bf.bytes_received[xy]);
    sr.w_solve_z =
        std::max(sr.w_solve_z, a.bytes_received[z] - bf.bytes_received[z]);
    sr.msg_solve_xy += a.messages_sent[xy] - bf.messages_sent[xy];
    sr.msg_solve_z += a.messages_sent[z] - bf.messages_sent[z];
  }
  if (sr.solve_time != rq.sr.solve_time || sr.w_solve_xy != rq.sr.w_solve_xy ||
      sr.w_solve_z != rq.sr.w_solve_z ||
      sr.msg_solve_xy != rq.sr.msg_solve_xy ||
      sr.msg_solve_z != rq.sr.msg_solve_z)
    out.violate("replayed solve of request " + std::to_string(id) +
                " differs from the service report");
  return rep;
}

struct LoopPass {
  std::size_t cycle_len = 0;
  std::vector<Request> requests;  ///< in order; the first cycle leads
  std::vector<Replay> replays;
  std::vector<double> cycle_rps;  ///< completed requests per host second
  service::ServiceStats stats;    ///< summed over services, pass deltas
};

void add_stats(service::ServiceStats& acc, const service::ServiceStats& s,
               long sign) {
  acc.analyses += sign * s.analyses;
  acc.cache_hits += sign * s.cache_hits;
  acc.evictions += sign * s.evictions;
  acc.refactor_failures += sign * s.refactor_failures;
}

/// Runs whole cycles of the closed loop until the next one would overrun
/// `budget` host seconds. With a tracer, spans wrap every service call and
/// every kReplayEvery-th request is replayed (outside its timing).
LoopPass run_loop(ClosedLoop& w, std::uint64_t seed, double budget,
                  Tracer* tr, Outcome& out) {
  LoopPass pass;
  pass.cycle_len = w.cycle.size();
  for (const auto& s : w.services) add_stats(pass.stats, s->stats(), -1);
  long id = 0;
  const auto t0 = Clock::now();
  for (long c = 0;; ++c) {
    const auto c0 = Clock::now();
    long completed = 0;
    for (std::size_t s = 0; s < w.cycle.size(); ++s, ++id) {
      const ClosedLoop::Slot& slot = w.cycle[s];
      service::SolverService& svc = *w.services[slot.service];
      const auto key = static_cast<std::uint64_t>(id);
      const CsrMatrix A = with_values(w.patterns[slot.pattern], mix(seed, key));
      const std::size_t len =
          static_cast<std::size_t>(A.n_rows()) *
          static_cast<std::size_t>(std::max<index_t>(slot.nrhs, 1));
      const std::vector<real_t> b = random_panel(len, mix(~seed, key));
      std::vector<real_t> x(len);
      Request rq;
      rq.nrhs = slot.nrhs;
      rq.slot = s;
      ++out.attempted;
      try {
        const auto r0 = Clock::now();
        {
          Scope sp(tr, "SolverService::factor", id);
          rq.fr = svc.factor(A);
        }
        if (slot.nrhs > 0) {
          Scope sp(tr, "SolverService::solve", id);
          rq.sr = svc.solve({b, x, slot.nrhs});
        }
        rq.wall = since(r0);
        rq.ok = true;
      } catch (const std::exception& e) {
        ++out.failed;
        std::fprintf(stderr, "perf_ledger: request %ld threw: %s\n", id,
                     e.what());
        pass.requests.push_back(rq);
        continue;
      }
      rq.sim = rq.fr.factor_time + rq.sr.solve_time;
      if (!(rq.sr.residual <= kMaxResidual)) {
        ++out.failed;
        out.violate("residual " + std::to_string(rq.sr.residual) +
                    " of request " + std::to_string(id));
      } else {
        ++completed;
      }
      if (rq.fr.cache_hit != w.expect_hit)
        out.violate("request " + std::to_string(id) +
                    (w.expect_hit ? " missed" : " hit") + " the cache");
      if (c > 0 && pass.requests[s].ok && !same_sim(rq, pass.requests[s]))
        out.violate("request " + std::to_string(id) +
                    " did not reproduce the first cycle's simulated report");
      if (tr != nullptr && id % kReplayEvery == 0)
        pass.replays.push_back(replay(svc, A, rq, b, *tr, id, out));
      pass.requests.push_back(std::move(rq));
    }
    pass.cycle_rps.push_back(static_cast<double>(completed) / since(c0));
    const double el = since(t0);
    if (el + el / static_cast<double>(c + 1) > budget) break;
  }
  for (const auto& s : w.services) add_stats(pass.stats, s->stats(), +1);

  // A factor()-only cycle never looks at its factors: solve once on every
  // configuration, outside the timing, to check the last ones.
  for (const ClosedLoop::Slot& slot : w.cycle) {
    if (slot.nrhs > 0) break;
    const auto n =
        static_cast<std::size_t>(w.patterns[slot.pattern].n_rows());
    const std::vector<real_t> b = random_panel(n, mix(seed, slot.service));
    std::vector<real_t> x(n);
    const service::SolveReport sr = w.services[slot.service]->solve({b, x, 1});
    if (!(sr.residual <= kMaxResidual))
      out.violate("residual " + std::to_string(sr.residual) + " of " +
                  w.labels[slot.service]);
  }
  return pass;
}

std::vector<double> first_cycle_sims(const LoopPass& p) {
  std::vector<double> v;
  for (std::size_t i = 0; i < p.cycle_len && i < p.requests.size(); ++i)
    if (p.requests[i].ok) v.push_back(p.requests[i].sim);
  return v;
}

/// Host seconds per request: the median over cycles for each slot of the
/// cycle, then the median over slots. The slot mix is the same in every
/// run, and a burst of host noise during one cycle cannot move a slot's
/// median, so this is steadier than a median over all requests.
double wall_p50(const LoopPass& p) {
  std::vector<std::vector<double>> per_slot(p.cycle_len);
  for (const Request& r : p.requests)
    if (r.ok) per_slot[r.slot].push_back(r.wall);
  std::vector<double> slot_medians;
  for (std::vector<double>& v : per_slot)
    if (!v.empty()) slot_medians.push_back(pct(std::move(v), 0.50));
  return pct(slot_medians, 0.50);
}

void closed_loop_end_to_end(const LoopPass& p, Metrics& m) {
  const std::vector<double> sim = first_cycle_sims(p);
  double total = 0;
  for (const double s : sim) total += s;
  m.set("sim_p50_s", pct(sim, 0.50));
  m.set("sim_p90_s", pct(sim, 0.90));
  m.set("sim_p99_s", pct(sim, 0.99));
  m.set("sim_rps", total > 0 ? static_cast<double>(sim.size()) / total : 0);
  m.set("wall_p50_s", wall_p50(p));
  m.set("wall_rps", pct(p.cycle_rps, 0.50));
}

template <class F>
std::vector<double> collect(const LoopPass& p, F&& f) {
  std::vector<double> v;
  for (const Request& r : p.requests)
    if (r.ok) {
      const double x = f(r);
      if (!std::isnan(x)) v.push_back(x);
    }
  return v;
}

void closed_loop_layers(const ClosedLoop& w, const LoopPass& p,
                        const Tracer& tr, Metrics& m) {
  const auto med = [](std::vector<double> v) { return pct(std::move(v), 0.5); };
  const double nan = std::nan("");
  const long lookups = p.stats.cache_hits + p.stats.analyses;
  m.set("service.hit_frac",
        lookups > 0 ? static_cast<double>(p.stats.cache_hits) /
                          static_cast<double>(lookups)
                    : 0);
  m.set("service.factor_sim_p50_s",
        med(collect(p, [](const Request& r) { return r.fr.factor_time; })));
  m.set("service.factor_wall_p50_s",
        med(tr.durations("SolverService::factor")));
  m.set("service.solve_sim_p50_s", med(collect(p, [&](const Request& r) {
          return r.nrhs > 0 ? r.sr.solve_time : nan;
        })));
  m.set("service.solve_wall_p50_s", med(tr.durations("SolverService::solve")));
  double msgs = 0, rhs = 0;
  for (const Request& r : p.requests)
    if (r.ok && r.nrhs > 0) {
      msgs += static_cast<double>(r.sr.msg_solve_xy + r.sr.msg_solve_z);
      rhs += r.nrhs;
    }
  m.set("service.solve_msgs_per_rhs", rhs > 0 ? msgs / rhs : 0);
  m.set("service.evictions", static_cast<double>(p.stats.evictions));
  m.set("service.refactor_failures",
        static_cast<double>(p.stats.refactor_failures));

  const auto miss = [&](auto f) {
    return collect(p, [&](const Request& r) {
      return r.fr.cache_hit ? nan : f(r);
    });
  };
  m.set("analysis.sim_p50_s",
        med(miss([](const Request& r) { return r.fr.t_analysis; })));
  m.set("analysis.share_p50", med(miss([](const Request& r) {
          return r.sim > 0 ? r.fr.t_analysis / r.sim : 0.0;
        })));
  m.set("analysis.wall_p50_s",
        med(tr.durations("sim::run_ranks analyze_in_sim")));
  m.set("analysis.bytes_p50", med(miss([](const Request& r) {
          return static_cast<double>(r.fr.w_analysis);
        })));
  m.set("analysis.msgs_p50", med(miss([](const Request& r) {
          return static_cast<double>(r.fr.msg_analysis);
        })));

  m.set("factor.t_scu_s",
        med(collect(p, [](const Request& r) { return r.fr.t_scu; })));
  m.set("factor.t_comm_s",
        med(collect(p, [](const Request& r) { return r.fr.t_comm; })));
  std::vector<double> wait, mxy, mz;
  for (const Replay& r : p.replays) {
    wait.push_back(r.wait_s);
    mxy.push_back(r.msgs_xy);
    mz.push_back(r.msgs_z);
  }
  m.set("factor.wait_s", med(wait));
  m.set("factor.w_fact_bytes", med(collect(p, [](const Request& r) {
          return static_cast<double>(r.fr.w_fact);
        })));
  m.set("factor.w_red_bytes", med(collect(p, [](const Request& r) {
          return static_cast<double>(r.fr.w_red);
        })));
  m.set("factor.msgs_xy", med(mxy));
  m.set("factor.msgs_z", med(mz));
  m.set("factor.mem_total_bytes", med(collect(p, [](const Request& r) {
          return static_cast<double>(r.fr.mem_total);
        })));
  m.set("factor.wall_p50_s", med(tr.durations("sim::run_ranks factorize_3d")));

  const auto solved = [&](auto f) {
    return med(collect(p, [&](const Request& r) {
      return r.nrhs > 0 ? f(r) : nan;
    }));
  };
  m.set("solve.msgs_xy", solved([](const Request& r) {
          return static_cast<double>(r.sr.msg_solve_xy);
        }));
  m.set("solve.msgs_z", solved([](const Request& r) {
          return static_cast<double>(r.sr.msg_solve_z);
        }));
  m.set("solve.w_xy_bytes", solved([](const Request& r) {
          return static_cast<double>(r.sr.w_solve_xy);
        }));
  m.set("solve.w_z_bytes", solved([](const Request& r) {
          return static_cast<double>(r.sr.w_solve_z);
        }));
  m.set("solve.wall_p50_s", med(tr.durations("sim::run_ranks solve_3d")));

  // Per-configuration rows of the paper workload (Algorithm 1's T_fact and,
  // at Pz = 16, its z-reduction volume W_red).
  for (std::size_t i = 0; i < p.cycle_len && i < p.requests.size(); ++i) {
    const Request& r = p.requests[i];
    const std::string& label = w.labels[w.cycle[r.slot].service];
    if (label.find(".pz") == std::string::npos) continue;
    m.set("lu3d." + label + ".t_fact_s", r.fr.factor_time);
    if (label.ends_with(".pz16"))
      m.set("lu3d." + label + ".w_red_bytes", static_cast<double>(r.fr.w_red));
  }

  double host = 0, sim = 0;
  for (const Request& r : p.requests)
    if (r.ok) {
      host += r.wall;
      sim += r.sim;
    }
  m.set("simmpi.host_per_sim", sim > 0 ? host / sim : 0);
}

// ---- open-loop workload (fleet) ----------------------------------------------

struct FleetLoad {
  bench::FleetTrace trace;
  service::FleetOptions options;
  std::vector<std::vector<real_t>> rhs;  ///< per trace item, n x nrhs
};

/// The bench/fleet_common.hpp traffic mix — six 16x16-class patterns, two
/// hot ones carrying 60% of requests, 30% values-version bumps, nrhs
/// 1/4/16 at 50/30/20, eight tenants — as kFleetRequests Poisson arrivals
/// at the frozen kFleetRate, sent to four 2x2x2 shards with affinity
/// routing, queue depth 16 and migration at a 4x imbalance. The schedule
/// comes from kFleetSchedule; `seed` draws every values snapshot and every
/// right-hand side.
FleetLoad setup_fleet(std::uint64_t seed) {
  constexpr index_t g = 16;
  std::vector<std::shared_ptr<const CsrMatrix>> base;
  const auto add = [&](index_t nx, index_t ny, Stencil2D st) {
    base.push_back(
        std::make_shared<CsrMatrix>(grid2d_laplacian({nx, ny, 1}, st)));
  };
  add(g, g, Stencil2D::FivePoint);
  add(g, g, Stencil2D::NinePoint);
  add(g + 1, g, Stencil2D::FivePoint);
  add(g, g + 1, Stencil2D::NinePoint);
  add(g + 1, g + 1, Stencil2D::FivePoint);
  add(g - 1, g, Stencil2D::NinePoint);

  FleetLoad f;
  bench::FleetTrace& tr = f.trace;
  tr.patterns = base.size();
  tr.seed = seed;
  tr.rate = kFleetRate;
  std::vector<std::uint64_t> version(base.size(), 0);
  std::map<std::pair<std::size_t, std::uint64_t>,
           std::shared_ptr<const CsrMatrix>>
      snapshots;
  Rng rng(kFleetSchedule);
  double t = 0;
  for (int i = 0; i < kFleetRequests; ++i) {
    t += -std::log(1.0 - rng.uniform(0, 1)) / tr.rate;
    const double u = rng.uniform(0, 1);
    const std::size_t p =
        u < 0.35   ? 0
        : u < 0.60 ? 1
                   : 2 + static_cast<std::size_t>(rng.next_index(4));
    if (rng.uniform(0, 1) < 0.30) ++version[p];
    const std::uint64_t v = version[p];
    auto& snap = snapshots[{p, v}];
    if (!snap)
      snap = std::make_shared<CsrMatrix>(
          with_values(*base[p], mix(seed, (std::uint64_t{p} << 32) | v)));
    const double w = rng.uniform(0, 1);
    bench::FleetTraceItem it;
    it.A = snap;
    it.pattern = p;
    it.version = v;
    it.tenant = static_cast<std::uint64_t>(rng.next_index(8));
    it.nrhs = w < 0.5 ? 1 : w < 0.8 ? 4 : 16;
    it.arrival = t;
    f.rhs.push_back(random_panel(static_cast<std::size_t>(snap->n_rows()) *
                                     static_cast<std::size_t>(it.nrhs),
                                 mix(~seed, static_cast<std::uint64_t>(i))));
    tr.items.push_back(std::move(it));
  }

  service::FleetOptions& fo = f.options;
  fo.shards = 4;
  fo.service = service_options(2, 2, 2);
  fo.routing = service::RoutingPolicy::Affinity;
  fo.coalesce_window = kFleetWindow;
  fo.queue_depth = 16;
  fo.migration_threshold = 4.0;

  // The throw-away request runs on a fleet of its own: every timed cycle
  // starts from cold shards, as the workload is defined.
  service::SolverFleet warmup(fo);
  const bench::FleetTraceItem& it = tr.items.front();
  std::vector<real_t> x(f.rhs.front().size());
  warmup.submit({it.tenant, it.A, it.version, f.rhs.front(), x, it.nrhs}, 0.0);
  warmup.drain();
  return f;
}

struct FleetCycle {
  std::vector<service::FleetResponse> responses;
  service::FleetStats stats;
  service::ServiceStats totals;
};

struct FleetPass {
  FleetCycle first;               ///< the first cycle in full
  std::vector<double> wall;       ///< host seconds of each cycle
  std::vector<double> cycle_rps;  ///< completed requests per host second
};

bool same_response(const service::FleetResponse& a,
                   const service::FleetResponse& b) {
  return a.status == b.status && a.shard == b.shard &&
         a.coalesced == b.coalesced && a.start == b.start &&
         a.completion == b.completion &&
         a.solve.solve_time == b.solve.solve_time &&
         a.solve.w_solve_xy == b.solve.w_solve_xy &&
         a.solve.w_solve_z == b.solve.w_solve_z &&
         a.solve.msg_solve_xy == b.solve.msg_solve_xy &&
         a.solve.msg_solve_z == b.solve.msg_solve_z;
}

/// Replays the whole trace on a fresh fleet per cycle until the next cycle
/// would overrun `budget`. Latency runs from each request's due time (its
/// simulated arrival), so a stalled shard delays everything queued behind.
FleetPass run_fleet(const FleetLoad& f, double budget, Tracer* tr,
                    Outcome& out) {
  const std::vector<bench::FleetTraceItem>& items = f.trace.items;
  FleetPass pass;
  const auto t0 = Clock::now();
  for (long c = 0;; ++c) {
    std::vector<std::vector<real_t>> x(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) x[i].resize(f.rhs[i].size());
    FleetCycle cy;
    {
      const auto c0 = Clock::now();
      service::SolverFleet fleet(f.options);
      for (std::size_t i = 0; i < items.size(); ++i) {
        const bench::FleetTraceItem& it = items[i];
        Scope s(tr, "SolverFleet::submit", static_cast<long>(i));
        fleet.submit({it.tenant, it.A, it.version, f.rhs[i], x[i], it.nrhs},
                     it.arrival);
      }
      {
        Scope s(tr, "SolverFleet::drain");
        cy.responses = fleet.drain();
      }
      pass.wall.push_back(since(c0));
      cy.stats = fleet.stats();
      cy.totals = fleet.service_totals();
    }

    out.attempted += static_cast<long>(items.size());
    const service::FleetStats& st = cy.stats;
    long completed = 0;
    if (cy.responses.size() != items.size() ||
        st.submitted != static_cast<long>(items.size()) ||
        st.completed + st.shed + st.failed != st.submitted)
      out.violate("fleet accounting: done + shed + failed != submitted");
    for (std::size_t k = 0; k < cy.responses.size(); ++k) {
      const service::FleetResponse& r = cy.responses[k];
      if (r.status != service::RequestStatus::Done) {
        ++out.failed;
      } else if (!(r.solve.residual <= kMaxResidual)) {
        ++out.failed;
        out.violate("residual " + std::to_string(r.solve.residual) +
                    " of fleet request " + std::to_string(r.id));
      } else {
        ++completed;
      }
      if (c > 0 && (k >= pass.first.responses.size() ||
                    !same_response(r, pass.first.responses[k])))
        out.violate("fleet request " + std::to_string(r.id) +
                    " did not reproduce the first cycle's simulated outcome");
    }
    pass.cycle_rps.push_back(static_cast<double>(completed) / pass.wall.back());
    if (c == 0) pass.first = std::move(cy);
    const double el = since(t0);
    if (el + el / static_cast<double>(c + 1) > budget) break;
  }
  return pass;
}

double makespan(const FleetCycle& cy) {
  double lo = 0, hi = 0;
  for (const service::FleetResponse& r : cy.responses) {
    lo = std::min(lo, r.arrival);
    hi = std::max(hi, r.completion);
  }
  return hi - lo;
}

std::vector<double> done_values(
    const FleetCycle& cy,
    const std::function<double(const service::FleetResponse&)>& f) {
  std::vector<double> v;
  for (const service::FleetResponse& r : cy.responses)
    if (r.status == service::RequestStatus::Done) v.push_back(f(r));
  return v;
}

void fleet_end_to_end(const FleetPass& p, const FleetLoad& f, Metrics& m) {
  const std::vector<double> lat = done_values(
      p.first, [](const service::FleetResponse& r) { return r.latency(); });
  m.set("sim_p50_s", pct(lat, 0.50));
  m.set("sim_p90_s", pct(lat, 0.90));
  m.set("sim_p99_s", pct(lat, 0.99));
  const double span = makespan(p.first);
  m.set("sim_rps", span > 0 ? static_cast<double>(lat.size()) / span : 0);
  std::vector<double> per_request;
  for (const double w : p.wall)
    per_request.push_back(w / static_cast<double>(f.trace.items.size()));
  m.set("wall_p50_s", pct(per_request, 0.50));
  m.set("wall_rps", pct(p.cycle_rps, 0.50));
}

void fleet_layers(const FleetPass& p, const FleetLoad& f, const Tracer& tr,
                  Metrics& m) {
  const FleetCycle& cy = p.first;
  const service::FleetStats& st = cy.stats;
  const auto frac = [&](long k) {
    return st.submitted > 0 ? static_cast<double>(k) /
                                  static_cast<double>(st.submitted)
                            : 0.0;
  };
  using R = service::FleetResponse;
  const auto done_p50 = [&](auto get) {
    return pct(done_values(cy, get), 0.50);
  };
  const std::vector<double> wait =
      done_values(cy, [](const R& r) { return r.start - r.arrival; });
  m.set("fleet.queue_wait_p50_s", pct(wait, 0.50));
  m.set("fleet.queue_wait_p99_s", pct(wait, 0.99));
  m.set("fleet.service_p50_s",
        done_p50([](const R& r) { return r.completion - r.start; }));
  m.set("fleet.coalesce_frac", frac(st.coalesced));
  m.set("fleet.activation_frac",
        st.batches > 0 ? static_cast<double>(st.activations) /
                             static_cast<double>(st.batches)
                       : 0.0);
  m.set("fleet.shed_frac", frac(st.shed));
  m.set("fleet.redirect_frac", frac(st.redirected));
  m.set("fleet.migrations", static_cast<double>(st.migrations));
  m.set("fleet.migrated_bytes", static_cast<double>(st.migrated_bytes));
  const auto per_cycle = [&](const char* name) {
    double s = 0;
    for (const double d : tr.durations(name)) s += d;
    return s / static_cast<double>(p.wall.size());
  };
  m.set("fleet.submit_wall_s", per_cycle("SolverFleet::submit"));
  m.set("fleet.drain_wall_s", per_cycle("SolverFleet::drain"));

  const service::ServiceStats& tot = cy.totals;
  const double hot = static_cast<double>(tot.cache_hits + st.activations);
  m.set("service.hit_frac",
        hot / std::max(hot + static_cast<double>(tot.analyses), 1.0));
  m.set("service.solve_sim_p50_s",
        done_p50([](const R& r) { return r.solve.solve_time; }));
  double msgs = 0, rhs = 0;
  for (const R& r : cy.responses)
    if (r.status == service::RequestStatus::Done) {
      msgs += static_cast<double>(r.solve.msg_solve_xy + r.solve.msg_solve_z);
      rhs += f.trace.items[r.id].nrhs;
    }
  m.set("service.solve_msgs_per_rhs", rhs > 0 ? msgs / rhs : 0);
  m.set("service.evictions", static_cast<double>(tot.evictions));
  m.set("service.refactor_failures",
        static_cast<double>(tot.refactor_failures));
  m.set("solve.msgs_xy", done_p50([](const R& r) {
          return static_cast<double>(r.solve.msg_solve_xy);
        }));
  m.set("solve.msgs_z", done_p50([](const R& r) {
          return static_cast<double>(r.solve.msg_solve_z);
        }));
  m.set("solve.w_xy_bytes", done_p50([](const R& r) {
          return static_cast<double>(r.solve.w_solve_xy);
        }));
  m.set("solve.w_z_bytes", done_p50([](const R& r) {
          return static_cast<double>(r.solve.w_solve_z);
        }));
  double wall = 0;
  for (const double w : p.wall) wall += w;
  const double span = makespan(cy) * static_cast<double>(p.wall.size());
  m.set("simmpi.host_per_sim", span > 0 ? wall / span : 0);
}

// ---- simmpi and dense-kernel microbenchmarks (traced runs) ------------------

double median_us(int reps, const std::function<double()>& sample_seconds) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(1e6 * sample_seconds());
  return pct(v, 0.50);
}

/// Host seconds per operation on the slowest rank: `body` times its own
/// loop of `ops` operations (after a barrier) and returns that time.
double slowest_rank_us(int P, int ops,
                       const std::function<double(sim::Comm&)>& body) {
  return median_us(7, [&] {
    std::vector<double> t(static_cast<std::size_t>(P), 0.0);
    sim::run_ranks(P, bench::platform(), [&](sim::Comm& c) {
      t[static_cast<std::size_t>(c.rank())] = body(c);
    });
    return *std::max_element(t.begin(), t.end()) / ops;
  });
}

/// Host cost of the simmpi primitives, driven only through the public Comm
/// API: empty run_ranks (thread spawn + join), blocking ping-pong, ibcast
/// over the binomial tree, and Window::put with expect/wait.
void simmpi_layers(Tracer& tr, Metrics& m) {
  constexpr auto xy = sim::CommPlane::XY;
  for (const int P : {64, 128}) {
    Scope s(&tr, P == 64 ? "simmpi run_ranks p64" : "simmpi run_ranks p128");
    m.set(P == 64 ? "simmpi.run_ranks_p64_us" : "simmpi.run_ranks_p128_us",
          median_us(15, [&] {
            const auto t0 = Clock::now();
            sim::run_ranks(P, bench::platform(), [](sim::Comm&) {});
            return since(t0);
          }));
  }
  {
    Scope s(&tr, "simmpi send/recv");
    constexpr int kRounds = 1000;
    m.set("simmpi.sendrecv_us",
          slowest_rank_us(2, 2 * kRounds, [](sim::Comm& c) {
            std::vector<real_t> buf(8, 1.0);
            c.barrier(1, xy);
            const auto t0 = Clock::now();
            for (int k = 0; k < kRounds; ++k) {
              if (c.rank() == 0) {
                c.send(1, 2, buf, xy);
                buf = c.recv(1, 2, xy);
              } else {
                buf = c.recv(0, 2, xy);
                c.send(0, 2, buf, xy);
              }
            }
            return since(t0);
          }));
  }
  constexpr int kOps = 100;
  {
    Scope s(&tr, "simmpi ibcast p64");
    m.set("simmpi.ibcast_p64_us", slowest_rank_us(64, kOps, [](sim::Comm& c) {
            std::vector<real_t> buf(128, 1.0);
            c.barrier(1, xy);
            const auto t0 = Clock::now();
            for (int k = 0; k < kOps; ++k) c.ibcast(0, 2, buf, xy).wait();
            return since(t0);
          }));
  }
  {
    Scope s(&tr, "simmpi Window::put p64");
    m.set("simmpi.put_p64_us", slowest_rank_us(64, kOps, [](sim::Comm& c) {
            std::vector<real_t> local(128, 0.0);
            const std::vector<real_t> data(128, 1.0);
            sim::Window win = c.win_create(3, local, xy);
            const int next = (c.rank() + 1) % c.size();
            const int prev = (c.rank() + c.size() - 1) % c.size();
            c.barrier(1, xy);
            const auto t0 = Clock::now();
            for (int k = 0; k < kOps; ++k) {
              win.put(next, 0, data);
              win.expect(prev).wait();
            }
            return since(t0);
          }));
  }
}

std::vector<real_t> dominant_matrix(index_t n, std::uint64_t seed) {
  std::vector<real_t> a = random_panel(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n), seed);
  for (index_t i = 0; i < n; ++i)
    a[static_cast<std::size_t>(i) * static_cast<std::size_t>(n + 1)] +=
        static_cast<real_t>(n);
  return a;
}

/// GFLOP/s of `body` (which performs `flops` model flops) as the median
/// and interquartile range of 11 samples of >= 2 ms each, so that a kernel
/// defect can be told from host noise.
void kernel_row(Tracer& tr, Metrics& m, const std::string& name,
                offset_t flops, const std::function<void()>& body) {
  Scope s(&tr, "dense kernel samples");
  body();
  int inner = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (int r = 0; r < inner; ++r) body();
    if (since(t0) > 2e-3 || inner >= 1 << 14) break;
    inner *= 2;
  }
  std::vector<double> g;
  for (int sample = 0; sample < 11; ++sample) {
    const auto t0 = Clock::now();
    for (int r = 0; r < inner; ++r) body();
    g.push_back(static_cast<double>(flops) * inner / since(t0) / 1e9);
  }
  m.set("numeric." + name + "_gflops", pct(g, 0.50));
  m.set("numeric." + name + "_gflops_iqr", pct(g, 0.75) - pct(g, 0.25));
}

/// The factor path's kernels (GEMM, GETRF, the two panel TRSMs) and the
/// solve path's (left unit-lower TRSM). Operands are reset before every
/// call so repeated in-place solves neither overflow nor sink to denormals.
void numeric_layers(Tracer& tr, Metrics& m) {
  for (const index_t n : {64, 256}) {
    const std::vector<real_t> a = dominant_matrix(n, 4);
    const std::vector<real_t> b = dominant_matrix(n, 5);
    std::vector<real_t> c(a.size(), 0.0);
    kernel_row(tr, m, "gemm_minus_n" + std::to_string(n),
               dense::gemm_flops(n, n, n), [&] {
                 dense::gemm_minus(n, n, n, a.data(), n, b.data(), n,
                                   c.data(), n);
               });
  }
  constexpr index_t n = 64;
  constexpr index_t cols = 2 * n;
  const std::vector<real_t> a0 = dominant_matrix(n, 1);
  std::vector<real_t> lu(a0.size());
  kernel_row(tr, m, "getrf_nopiv_n64", dense::getrf_flops(n), [&] {
    lu = a0;
    dense::getrf_nopiv(n, lu.data(), n);
  });
  const std::vector<real_t> b0 = random_panel(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(cols), 6);
  std::vector<real_t> b(b0.size());
  kernel_row(tr, m, "trsm_left_lower_unit_n64", dense::trsm_flops(n, cols), [&] {
    b = b0;
    dense::trsm_left_lower_unit(n, cols, lu.data(), n, b.data(), n);
  });
  kernel_row(tr, m, "trsm_right_upper_n64", dense::trsm_flops(n, cols), [&] {
    b = b0;
    dense::trsm_right_upper(n, cols, lu.data(), n, b.data(), cols);
  });
  m.set("numeric.host_cores", std::thread::hardware_concurrency());
}

// ---- command line -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 2026;
  double seconds = 20;
  bool trace = false;
  std::string out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perf_ledger: %s\nusage: perf_ledger --workload "
               "cold|warm|fleet|paper [--seed N] [--seconds S] "
               "[--trace 0|1] [--out DIR]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (k == "--trace") {
      // Both the bare flag and an explicit 0/1 value.
      if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 ||
                           std::strcmp(argv[i + 1], "1") == 0))
        a.trace = argv[++i][0] == '1';
      else
        a.trace = true;
    } else if (k == "--out") {
      a.out = value();
    } else {
      usage(("unknown argument " + std::string(k)).c_str());
    }
  }
  if (a.workload != "cold" && a.workload != "warm" && a.workload != "fleet" &&
      a.workload != "paper")
    usage("--workload must be cold, warm, fleet or paper");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

template <class T, class Setup>
std::unique_ptr<T> timed_setups(std::vector<double>& seconds, Setup&& setup) {
  std::unique_ptr<T> w;
  double total = 0;
  while (seconds.size() < kSetupRepeats || total < kSetupSeconds) {
    w.reset();
    const auto t0 = Clock::now();
    w = std::make_unique<T>(setup());
    seconds.push_back(since(t0));
    total += seconds.back();
  }
  return w;
}

void set_trace_rows(Metrics& m, double untraced, double traced) {
  m.set("trace.untraced_wall_p50_s", untraced);
  m.set("trace.traced_wall_p50_s", traced);
  m.set("trace.overhead_frac", untraced > 0 ? traced / untraced - 1 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Outcome out;
  Metrics e2e(kEndToEnd);
  Metrics layers(kPerLayer);
  Tracer tracer;
  std::vector<double> setup;
  try {
    if (args.workload == "fleet") {
      const auto f = timed_setups<FleetLoad>(
          setup, [&] { return setup_fleet(args.seed); });
      if (!args.trace) {
        fleet_end_to_end(run_fleet(*f, args.seconds, nullptr, out), *f, e2e);
      } else {
        const FleetPass u = run_fleet(*f, args.seconds / 2, nullptr, out);
        const FleetPass t = run_fleet(*f, args.seconds / 2, &tracer, out);
        for (std::size_t k = 0; k < t.first.responses.size(); ++k)
          if (k >= u.first.responses.size() ||
              !same_response(u.first.responses[k], t.first.responses[k]))
            out.violate("tracing moved the simulated outcome of fleet request " +
                        std::to_string(k));
        fleet_layers(t, *f, tracer, layers);
        const auto n = static_cast<double>(f->trace.items.size());
        set_trace_rows(layers, pct(u.wall, 0.5) / n, pct(t.wall, 0.5) / n);
      }
    } else {
      const auto w = timed_setups<ClosedLoop>(setup, [&] {
        return args.workload == "cold"   ? setup_cold(args.seed)
               : args.workload == "warm" ? setup_warm(args.seed)
                                         : setup_paper(args.seed);
      });
      if (!args.trace) {
        closed_loop_end_to_end(
            run_loop(*w, args.seed, args.seconds, nullptr, out), e2e);
      } else {
        const double half = args.seconds / 2;
        const LoopPass u = run_loop(*w, args.seed, half, nullptr, out);
        const LoopPass t = run_loop(*w, args.seed, half, &tracer, out);
        for (std::size_t k = 0; k < t.cycle_len; ++k)
          if (k >= u.requests.size() || k >= t.requests.size() ||
              !same_sim(u.requests[k], t.requests[k]))
            out.violate("tracing moved the simulated report of request " +
                        std::to_string(k));
        closed_loop_layers(*w, t, tracer, layers);
        set_trace_rows(layers, wall_p50(u), wall_p50(t));
      }
    }
    if (args.trace) {
      simmpi_layers(tracer, layers);
      numeric_layers(tracer, layers);
      if (!args.out.empty() &&
          !tracer.write_chrome(args.out + "/trace_" + args.workload + ".json"))
        throw std::runtime_error("cannot write the trace under " + args.out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_ledger: %s\n", e.what());
    return 1;
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  e2e.set("setup_s", pct(setup, 0.50));
  e2e.set("ok_frac", out.attempted > 0
                         ? 1.0 - static_cast<double>(out.failed) /
                                     static_cast<double>(out.attempted)
                         : 0.0);
  e2e.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);

  const Metrics& shown = args.trace ? layers : e2e;
  std::printf("perf_ledger %s seed %llu: %ld requests, %ld failed, %ld "
              "check violations\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              out.attempted, out.failed, out.violations);
  shown.print_table();
  shown.print_json(out.violations == 0, out.attempted, out.failed);
  std::fflush(stdout);
  return out.violations == 0 ? 0 : 1;
}
