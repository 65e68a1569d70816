#include "numeric/solver.hpp"

#include "numeric/condition.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace slu3d {

SparseLuSolver::SparseLuSolver(const CsrMatrix& A, const SolverOptions& options)
    : A_(&A), options_(options) {
  SLU3D_CHECK(A.n_rows() == A.n_cols(), "solver needs a square matrix");

  // Preprocessing pipeline (SuperLU_DIST order): equilibrate, then ensure
  // a structurally nonzero diagonal for static pivoting.
  const CsrMatrix* work = &A;
  if (options.equilibrate) {
    eq_ = compute_equilibration(A);
    preprocessed_ = std::make_unique<CsrMatrix>(apply_equilibration(A, *eq_));
    work = preprocessed_.get();
  }
  if (options.fix_zero_diagonal && !has_zero_free_diagonal(*work)) {
    rowperm_ = zero_free_diagonal_permutation(*work);
    SLU3D_CHECK(rowperm_.has_value(), "matrix is structurally singular");
    preprocessed_ = std::make_unique<CsrMatrix>(permute_rows(*work, *rowperm_));
    work = preprocessed_.get();
  }

  if (options.geometry.has_value()) {
    SLU3D_CHECK(options.geometry->n() == A.n_rows(),
                "geometry does not match matrix dimension");
    SLU3D_CHECK(!rowperm_.has_value(),
                "geometric ordering is incompatible with a diagonal-fixing "
                "row permutation");
    tree_ = std::make_unique<SeparatorTree>(
        geometric_nd(*options.geometry, options.nd));
  } else {
    tree_ = std::make_unique<SeparatorTree>(nested_dissection(*work, options.nd));
  }
  perm_.assign(tree_->perm().begin(), tree_->perm().end());
  pinv_ = invert_permutation(perm_);
  bs_ = std::make_unique<BlockStructure>(*work, *tree_);
  factors_ = std::make_unique<SupernodalMatrix>(*bs_);
  factors_->fill_from(work->permuted_symmetric(perm_));
  factorize_sequential(*factors_);
}

void SparseLuSolver::apply_inverse(std::span<const real_t> rhs,
                                   std::span<real_t> out) const {
  // b' = P_row (R b), then the fill-reducing permutation, the factored
  // solve, and the inverse transforms: x = C y.
  const auto n = static_cast<std::size_t>(A_->n_rows());
  std::vector<real_t> pb(n), px(n), tmp(rhs.begin(), rhs.end());
  if (eq_.has_value()) scale_rhs(*eq_, tmp);
  if (rowperm_.has_value()) {
    for (std::size_t i = 0; i < n; ++i)
      px[i] = tmp[static_cast<std::size_t>((*rowperm_)[i])];
    tmp = px;
  }
  for (std::size_t i = 0; i < n; ++i)
    pb[static_cast<std::size_t>(pinv_[i])] = tmp[i];
  solve_factored(*factors_, pb);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = pb[static_cast<std::size_t>(pinv_[i])];
  if (eq_.has_value()) unscale_solution(*eq_, out);
}

SolveReport SparseLuSolver::solve(std::span<const real_t> b,
                                  std::span<real_t> x) const {
  const auto n = static_cast<std::size_t>(A_->n_rows());
  SLU3D_CHECK(b.size() == n && x.size() == n, "rhs size mismatch");

  auto apply = [&](std::span<const real_t> rhs, std::span<real_t> out) {
    apply_inverse(rhs, out);
  };

  apply(b, x);
  SolveReport report;
  report.final_residual_norm = relative_residual(*A_, x, b);

  // Iterative refinement: r = b - A x; x += A^{-1} r.
  std::vector<real_t> r(n), dx(n);
  for (int it = 0; it < options_.refinement_steps; ++it) {
    A_->spmv(x, r);
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
    apply(r, dx);
    for (std::size_t i = 0; i < n; ++i) x[i] += dx[i];
    const real_t res = relative_residual(*A_, x, b);
    ++report.refinement_steps_used;
    // Report the residual of the x returned, even when this step did not
    // lower it (SuperLU_DIST's pdgsrfs reports its final iterate's berr).
    const bool stagnated = res >= report.final_residual_norm;
    report.final_residual_norm = res;
    if (stagnated) break;
  }
  return report;
}

void SparseLuSolver::solve_transpose(std::span<const real_t> b,
                                     std::span<real_t> x) const {
  const auto n = static_cast<std::size_t>(A_->n_rows());
  SLU3D_CHECK(b.size() == n && x.size() == n, "rhs size mismatch");
  // A = R^{-1} Pᵀ B C^{-1}  =>  Aᵀ x = b  <=>  Bᵀ (P R^{-1} x) = C b:
  // scale by C, transpose-solve with the factors of B (through the
  // fill-reducing permutation), then x = R Pᵀ y.
  std::vector<real_t> tmp(b.begin(), b.end());
  if (eq_.has_value())
    for (std::size_t i = 0; i < n; ++i) tmp[i] *= eq_->col_scale[i];
  std::vector<real_t> pb(n);
  for (std::size_t i = 0; i < n; ++i)
    pb[static_cast<std::size_t>(pinv_[i])] = tmp[i];
  solve_factored_transpose(*factors_, pb);
  for (std::size_t i = 0; i < n; ++i)
    tmp[i] = pb[static_cast<std::size_t>(pinv_[i])];
  if (rowperm_.has_value()) {
    for (std::size_t i = 0; i < n; ++i)
      x[static_cast<std::size_t>((*rowperm_)[i])] = tmp[i];
  } else {
    std::copy(tmp.begin(), tmp.end(), x.begin());
  }
  if (eq_.has_value())
    for (std::size_t i = 0; i < n; ++i) x[i] *= eq_->row_scale[i];
}

real_t SparseLuSolver::estimate_condition_number() const {
  const index_t n = A_->n_rows();
  std::vector<real_t> work(static_cast<std::size_t>(n));
  auto fwd = [&](std::span<real_t> v) {
    std::copy(v.begin(), v.end(), work.begin());
    apply_inverse(work, v);
  };
  auto bwd = [&](std::span<real_t> v) {
    std::copy(v.begin(), v.end(), work.begin());
    solve_transpose(work, v);
  };
  const real_t inv_norm = estimate_inverse_norm1(n, fwd, bwd);
  return inv_norm * norm1(*A_);
}

}  // namespace slu3d
