#include "service/solver_service.hpp"

#include <algorithm>
#include <bit>
#include <mutex>

#include "sparse/fingerprint.hpp"
#include "support/check.hpp"

namespace slu3d::service {

namespace {

/// Salt of the secondary (collision-guard) fingerprint kept per entry.
constexpr std::uint64_t kCheckSalt = 0xc011150ull * 0x9e3779b97f4a7c15ull;

}  // namespace

offset_t SymbolicState::payload_bytes() const {
  auto b = static_cast<offset_t>(2 * sizeof(std::uint64_t) + 3 * sizeof(int) +
                                 sizeof(offset_t));
  b += static_cast<offset_t>(pinv.size() * sizeof(index_t));
  if (tree)
    b += static_cast<offset_t>(tree->perm().size() * sizeof(index_t) +
                               tree->nodes().size() * sizeof(SepTreeNode));
  if (bs) {
    const int ns = bs->n_snodes();
    b += static_cast<offset_t>(bs->n()) * static_cast<offset_t>(sizeof(int));
    b += static_cast<offset_t>(ns + 1) * static_cast<offset_t>(sizeof(index_t));
    // Per supernode: parent id, flop/nnz stats, and the L-panel block row
    // lists (the fill structure — the bulk of the payload).
    b += static_cast<offset_t>(ns) *
         static_cast<offset_t>(sizeof(int) + 2 * sizeof(offset_t));
    for (int s = 0; s < ns; ++s)
      for (const PanelBlock& blk : bs->lpanel(s))
        b += static_cast<offset_t>(sizeof(int) +
                                   blk.rows.size() * sizeof(index_t));
  }
  if (part && bs)
    b += static_cast<offset_t>(bs->n_snodes()) *
         static_cast<offset_t>(2 * sizeof(int));
  return b;
}

/// One resident pattern: the migratable symbolic state plus the per-rank
/// numeric allocations and the permuted matrix with current values. Every
/// rank's Dist2dFactors points at the entry's own BlockStructure, so the
/// entry must outlive any simulated run using it.
struct SolverService::Resident {
  SymbolicState sym;
  std::unique_ptr<CsrMatrix> Ap;  ///< permuted matrix, current values
  std::vector<std::unique_ptr<Dist2dFactors>> per_rank;
  /// The routing of every solve, built host-side on the first solve and
  /// shared read-only by the rank threads of every later one.
  std::unique_ptr<SolvePlan> plan;
  bool factored = false;  ///< per_rank holds valid factors of Ap's values
  std::uint64_t last_used = 0;
};

SolverService::SolverService(const ServiceOptions& options) : opt_(options) {
  // Reject an unrunnable grid here, before any factor() pays a full
  // analysis only for ForestPartition to refuse the shape.
  SLU3D_CHECK(opt_.Px >= 1 && opt_.Py >= 1, "Px and Py must be positive");
  SLU3D_CHECK(opt_.Pz > 0 &&
                  std::has_single_bit(static_cast<unsigned>(opt_.Pz)),
              "Pz must be a positive power of two");
  SLU3D_CHECK(opt_.max_patterns >= 1, "need capacity for at least one pattern");
  // A negative sweep count is a caller's mistake; reject it rather than
  // quietly run no refinement.
  SLU3D_CHECK(opt_.refinement_steps >= 0,
              "refinement_steps must be non-negative");
  // Stored, not derived per call, so that an analysis re-run from
  // options().nd orders the matrix as this service does.
  if (!opt_.nd.leaf_size)
    opt_.nd.leaf_size = relaxed_leaf_size(opt_.Px, opt_.Py, opt_.Pz);
}

SolverService::~SolverService() = default;

std::uint64_t SolverService::fingerprint(const CsrMatrix& A) const {
  return opt_.fingerprint_fn ? opt_.fingerprint_fn(A) : pattern_fingerprint(A);
}

bool SolverService::has_pattern(std::uint64_t fingerprint) const {
  for (const auto& e : cache_)
    if (e->sym.key == fingerprint) return true;
  return false;
}

bool SolverService::activate(std::uint64_t fingerprint) {
  for (auto& e : cache_) {
    if (e->sym.key == fingerprint && e->factored) {
      e->last_used = ++use_clock_;
      current_ = e.get();
      return true;
    }
  }
  return false;
}

std::optional<SymbolicState> SolverService::extract_pattern(
    std::uint64_t fingerprint) {
  for (auto it = cache_.begin(); it != cache_.end(); ++it) {
    if ((*it)->sym.key == fingerprint) {
      if (it->get() == current_) current_ = nullptr;
      SymbolicState out = std::move((*it)->sym);
      cache_.erase(it);
      return out;
    }
  }
  return std::nullopt;
}

void SolverService::insert_pattern(SymbolicState&& state) {
  SLU3D_CHECK(state.tree && state.bs && state.part,
              "incomplete symbolic state");
  SLU3D_CHECK(state.Px == opt_.Px && state.Py == opt_.Py &&
                  state.Pz == opt_.Pz,
              "symbolic state was built for another process grid");
  auto op = std::make_unique<Resident>();
  op->sym = std::move(state);
  op->per_rank.resize(
      static_cast<std::size_t>(op->sym.Px * op->sym.Py * op->sym.Pz));
  op->last_used = ++use_clock_;
  cache_.push_back(std::move(op));
  evict_to_capacity();
}

SolverService::Resident* SolverService::find(std::uint64_t key,
                                             std::uint64_t check) {
  // Both fingerprints must match: a primary collision between distinct
  // patterns (find by key, mismatched salted check) is a miss, and the
  // colliding patterns coexist in the cache as separate entries.
  for (auto& e : cache_)
    if (e->sym.key == key && e->sym.check == check) return e.get();
  return nullptr;
}

void SolverService::evict_to_capacity() {
  while (cache_.size() > opt_.max_patterns) {
    std::size_t victim = 0;
    for (std::size_t i = 1; i < cache_.size(); ++i)
      if (cache_[i]->last_used < cache_[victim]->last_used) victim = i;
    if (cache_[victim].get() == current_) current_ = nullptr;
    cache_.erase(cache_.begin() + static_cast<std::ptrdiff_t>(victim));
    ++stats_.evictions;
  }
}

FactorReport SolverService::run_numeric_factorization(Resident& op) {
  const int P = op.sym.Px * op.sym.Py * op.sym.Pz;
  op.factored = false;  // invalid from here until the run completes
  std::vector<offset_t> mem(static_cast<std::size_t>(P), 0);
  const sim::RunResult res =
      sim::run_ranks(P, opt_.platform, [&](sim::Comm& world) {
        auto grid =
            sim::ProcessGrid3D::create(world, op.sym.Px, op.sym.Py, op.sym.Pz);
        auto& slot = op.per_rank[static_cast<std::size_t>(world.rank())];
        if (!slot) {
          slot = std::make_unique<Dist2dFactors>(
              make_3d_factors(*op.sym.bs, grid, *op.sym.part, *op.Ap));
        } else {
          refill_3d_factors(*slot, grid, *op.sym.part, *op.Ap);
        }
        mem[static_cast<std::size_t>(world.rank())] = slot->allocated_bytes();
        factorize_3d(*slot, grid, *op.sym.part, opt_.lu3d);
      });
  ++stats_.refactorizations;
  op.factored = true;

  FactorReport rep;
  rep.factor_time = res.max_clock();
  rep.w_fact = res.max_bytes_received(sim::CommPlane::XY);
  rep.w_red = res.max_bytes_received(sim::CommPlane::Z);
  const sim::RankStats& crit = res.critical();
  rep.t_scu =
      crit.compute_seconds[static_cast<int>(sim::ComputeKind::SchurUpdate)];
  rep.t_comm = crit.comm_seconds();
  for (offset_t m : mem) {
    rep.mem_total += m;
    rep.mem_max = std::max(rep.mem_max, m);
  }
  rep.flops = op.sym.flops;
  return rep;
}

FactorReport SolverService::factor(const CsrMatrix& A) {
  SLU3D_CHECK(A.n_rows() == A.n_cols(), "needs a square matrix");
  const std::uint64_t key = fingerprint(A);
  const std::uint64_t check = pattern_fingerprint(A, kCheckSalt);

  if (Resident* hit = find(key, check)) {
    // Resident pattern: no ordering, no symbolic analysis, no allocation —
    // re-scatter the new values and refactorize numerically in place.
    ++stats_.cache_hits;
    hit->Ap = std::make_unique<CsrMatrix>(
        A.permuted_symmetric(hit->sym.tree->perm()));
    hit->last_used = ++use_clock_;
    current_ = hit;
    FactorReport rep;
    try {
      rep = run_numeric_factorization(*hit);
    } catch (...) {
      // The resident numerics are now garbage; drop the entry so a retry
      // re-analyzes from scratch instead of solving on a broken factor.
      ++stats_.refactor_failures;
      cache_.erase(std::find_if(cache_.begin(), cache_.end(),
                                [&](const auto& e) { return e.get() == hit; }));
      current_ = nullptr;
      throw;
    }
    rep.cache_hit = true;
    return rep;
  }

  // Cache miss: full analysis (the expensive, pattern-only pipeline).
  ++stats_.analyses;
  auto op = std::make_unique<Resident>();
  op->sym.key = key;
  op->sym.check = check;
  op->sym.Px = opt_.Px;
  op->sym.Py = opt_.Py;
  op->sym.Pz = opt_.Pz;
  const int P = op->sym.Px * op->sym.Py * op->sym.Pz;

  double analysis_time = 0;
  double t_analysis = 0;
  offset_t w_analysis = 0, msg_analysis = 0;
  std::vector<sim::RankStats> analysis_stats;
  if (opt_.geometry.has_value()) {
    SLU3D_CHECK(opt_.geometry->n() == A.n_rows(), "geometry mismatch");
    op->sym.tree =
        std::make_unique<SeparatorTree>(geometric_nd(*opt_.geometry, opt_.nd));
  } else if (opt_.analysis != AnalysisMode::Host) {
    // The whole analysis (ordering + symbolic) runs inside the simulated
    // machine; its time and traffic count toward this factorization, and
    // the per-phase split is reported via t_analysis / w_analysis.
    std::mutex mu;
    const sim::RunResult ores =
        sim::run_ranks(P, opt_.platform, [&](sim::Comm& world) {
          AnalysisResult r = analyze_in_sim(A, world, opt_.nd, opt_.analysis);
          if (world.rank() == 0) {
            const std::lock_guard<std::mutex> lock(mu);
            op->sym.tree = std::move(r.tree);
            op->sym.bs = std::move(r.bs);
          }
        });
    analysis_time = ores.max_clock();
    t_analysis = ores.max_analysis_seconds();
    w_analysis = ores.max_analysis_bytes_received();
    msg_analysis = ores.total_analysis_messages_sent();
    analysis_stats = ores.ranks;
  } else {
    op->sym.tree =
        std::make_unique<SeparatorTree>(nested_dissection(A, opt_.nd));
  }
  if (!op->sym.bs)
    op->sym.bs = std::make_unique<BlockStructure>(A, *op->sym.tree);
  op->Ap =
      std::make_unique<CsrMatrix>(A.permuted_symmetric(op->sym.tree->perm()));
  op->sym.part =
      std::make_unique<ForestPartition>(*op->sym.bs, op->sym.Pz,
                                        opt_.partition);
  op->sym.flops = op->sym.bs->total_flops();
  op->sym.pinv = invert_permutation(op->sym.tree->perm());
  op->per_rank.resize(static_cast<std::size_t>(P));

  FactorReport rep;
  try {
    rep = run_numeric_factorization(*op);  // throws -> op dropped
  } catch (...) {
    ++stats_.refactor_failures;
    throw;
  }
  rep.factor_time += analysis_time;
  rep.t_analysis = t_analysis;
  rep.w_analysis = w_analysis;
  rep.msg_analysis = msg_analysis;
  stats_.analysis_seconds += t_analysis;
  stats_.analysis_bytes += w_analysis;
  stats_.analysis_messages += msg_analysis;
  for (const auto& r : analysis_stats) {
    rep.w_fact = std::max(
        rep.w_fact,
        r.bytes_received[static_cast<std::size_t>(sim::CommPlane::XY)]);
    rep.w_red = std::max(
        rep.w_red,
        r.bytes_received[static_cast<std::size_t>(sim::CommPlane::Z)]);
  }
  op->last_used = ++use_clock_;
  current_ = op.get();
  cache_.push_back(std::move(op));
  evict_to_capacity();
  return rep;
}

SolveReport SolverService::solve(const SolveRequest& request) {
  SLU3D_CHECK(current_ != nullptr, "no factored operator resident");
  return run_solves(*current_, std::span<const SolveRequest>(&request, 1))
      .front();
}

std::vector<SolveReport> SolverService::solve_stream(
    std::span<const SolveRequest> requests) {
  SLU3D_CHECK(current_ != nullptr, "no factored operator resident");
  return run_solves(*current_, requests);
}

std::vector<SolveReport> SolverService::run_solves(
    Resident& op, std::span<const SolveRequest> requests) {
  const auto k = requests.size();
  if (k == 0) return {};
  const auto n = static_cast<std::size_t>(op.sym.bs->n());
  const int P = op.sym.Px * op.sym.Py * op.sym.Pz;
  op.last_used = ++use_clock_;

  if (!op.plan)
    op.plan = std::make_unique<SolvePlan>(*op.sym.bs, *op.sym.part, op.sym.Px,
                                          op.sym.Py);
  const SolvePlan& plan = *op.plan;

  // Permute each request's rhs panel once on the host (replicated input).
  std::vector<std::vector<real_t>> pb(k);
  for (std::size_t i = 0; i < k; ++i) {
    const SolveRequest& rq = requests[i];
    SLU3D_CHECK(rq.nrhs >= 1, "nrhs must be positive");
    const auto len = n * static_cast<std::size_t>(rq.nrhs);
    SLU3D_CHECK(rq.b.size() == len && rq.x.size() == len,
                "rhs panel size mismatch");
    pb[i].resize(len);
    for (index_t j = 0; j < rq.nrhs; ++j)
      for (std::size_t r = 0; r < n; ++r)
        pb[i][static_cast<std::size_t>(op.sym.pinv[r]) +
              static_cast<std::size_t>(j) * n] =
            rq.b[r + static_cast<std::size_t>(j) * n];
  }

  // Per-request, per-rank stat snapshots (deltas give the solve-phase
  // communication split of each request).
  std::vector<std::vector<sim::RankStats>> before(
      k, std::vector<sim::RankStats>(static_cast<std::size_t>(P)));
  auto after = before;
  std::vector<std::vector<real_t>> xperm(k);  // solved panels, permuted space

  sim::run_ranks(P, opt_.platform, [&](sim::Comm& world) {
    Dist2dFactors& F = *op.per_rank[static_cast<std::size_t>(world.rank())];
    for (std::size_t i = 0; i < k; ++i) {
      const index_t nrhs = requests[i].nrhs;
      before[i][static_cast<std::size_t>(world.rank())] = world.stats();
      std::vector<real_t> xr(pb[i]);
      // One tag range for every solve and sweep (see solve_stream).
      Solve3dOptions sopt;
      sopt.nrhs = nrhs;
      sopt.tag_base = opt_.solve_tag_base;
      solve_3d(F, world, plan, xr, sopt);
      for (int it = 0; it < opt_.refinement_steps; ++it) {
        // Residual of the permuted system, column by column; the
        // correction panel re-solves in one batched sweep.
        std::vector<real_t> dx(xr.size());
        for (index_t j = 0; j < nrhs; ++j) {
          const auto off = static_cast<std::size_t>(j) * n;
          op.Ap->spmv(std::span<const real_t>(xr).subspan(off, n),
                      std::span<real_t>(dx).subspan(off, n));
        }
        for (std::size_t q = 0; q < dx.size(); ++q) dx[q] = pb[i][q] - dx[q];
        solve_3d(F, world, plan, dx, sopt);
        for (std::size_t q = 0; q < xr.size(); ++q) xr[q] += dx[q];
      }
      after[i][static_cast<std::size_t>(world.rank())] = world.stats();
      if (world.rank() == 0) xperm[i] = std::move(xr);
    }
  });

  std::vector<SolveReport> reports(k);
  for (std::size_t i = 0; i < k; ++i) {
    const SolveRequest& rq = requests[i];
    SolveReport& rep = reports[i];
    for (int r = 0; r < P; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      const sim::RankStats &a = after[i][ri], &b = before[i][ri];
      constexpr auto xy = static_cast<std::size_t>(sim::CommPlane::XY);
      constexpr auto z = static_cast<std::size_t>(sim::CommPlane::Z);
      rep.solve_time = std::max(rep.solve_time, a.clock - b.clock);
      rep.w_solve_xy = std::max(rep.w_solve_xy,
                                a.bytes_received[xy] - b.bytes_received[xy]);
      rep.w_solve_z =
          std::max(rep.w_solve_z, a.bytes_received[z] - b.bytes_received[z]);
      rep.msg_solve_xy += a.messages_sent[xy] - b.messages_sent[xy];
      rep.msg_solve_z += a.messages_sent[z] - b.messages_sent[z];
    }
    // Unpermute the solution panel and report the worst per-column
    // relative residual (inf-norm based, so invariant under the symmetric
    // permutation: measuring against Ap equals measuring against A).
    for (index_t j = 0; j < rq.nrhs; ++j) {
      const auto off = static_cast<std::size_t>(j) * n;
      for (std::size_t r = 0; r < n; ++r)
        rq.x[r + off] = xperm[i][static_cast<std::size_t>(op.sym.pinv[r]) + off];
      rep.residual = std::max(
          rep.residual,
          relative_residual(
              *op.Ap, std::span<const real_t>(xperm[i]).subspan(off, n),
              std::span<const real_t>(pb[i]).subspan(off, n)));
    }
    ++stats_.solve_requests;
    stats_.rhs_columns += rq.nrhs;
  }
  return reports;
}

}  // namespace slu3d::service
