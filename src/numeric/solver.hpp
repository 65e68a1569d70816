// High-level sequential solver: ordering -> symbolic -> numeric -> solve,
// with optional iterative refinement. This is the public entry point the
// quickstart example uses; the distributed drivers in lu2d/lu3d mirror its
// pipeline.
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "numeric/seq_lu.hpp"
#include "numeric/supernodal_matrix.hpp"
#include "order/diagonal_matching.hpp"
#include "order/nested_dissection.hpp"
#include "sparse/equilibrate.hpp"
#include "sparse/generators.hpp"

namespace slu3d {

struct SolverOptions {
  NdOptions nd;
  /// When set, use exact geometric nested dissection for this grid instead
  /// of the general-graph dissection.
  std::optional<GridGeometry> geometry;
  /// Iterative-refinement sweeps after each solve (SuperLU_DIST pairs
  /// static pivoting with refinement; 0 disables).
  int refinement_steps = 1;
  /// Row/column equilibration before factorization (SuperLU_DIST's
  /// pdgsequ step) — essential for badly scaled inputs under static
  /// pivoting.
  bool equilibrate = false;
  /// When the diagonal has structural zeros, apply a zero-free-diagonal
  /// row permutation (the MC64 role). Matrices that already have a full
  /// diagonal are left untouched.
  bool fix_zero_diagonal = true;
};

struct SolveReport {
  int refinement_steps_used = 0;
  real_t final_residual_norm = 0.0;  ///< ||b - A x||_inf / (||A||_inf ||x||_inf + ||b||_inf)
};

class SparseLuSolver {
 public:
  /// Orders, analyzes, and factorizes A (square). Throws slu3d::Error on
  /// structurally/numerically unusable inputs.
  explicit SparseLuSolver(const CsrMatrix& A, const SolverOptions& options = {});

  /// Solves A x = b.
  SolveReport solve(std::span<const real_t> b, std::span<real_t> x) const;

  /// Solves Aᵀ x = b (no refinement).
  void solve_transpose(std::span<const real_t> b, std::span<real_t> x) const;

  /// Hager's 1-norm condition estimate kappa_1(A) ~ ||A||_1 ||A^{-1}||_1
  /// — the same figure SuperLU_DIST reports so users can judge how much
  /// to trust static pivoting on this input.
  real_t estimate_condition_number() const;

  const SeparatorTree& tree() const { return *tree_; }
  const BlockStructure& block_structure() const { return *bs_; }
  const SupernodalMatrix& factors() const { return *factors_; }

  /// Factor statistics: stored nonzeros (dense-block entries) and flops.
  offset_t factor_nnz() const { return bs_->total_nnz(); }
  offset_t factor_flops() const { return bs_->total_flops(); }

 private:
  /// One raw application of A^{-1} through all transforms (no refinement).
  void apply_inverse(std::span<const real_t> rhs, std::span<real_t> out) const;

  const CsrMatrix* A_;  // not owned; must outlive the solver for refinement
  std::optional<Equilibration> eq_;
  std::optional<std::vector<index_t>> rowperm_;  // new -> old (pre-ordering)
  std::unique_ptr<CsrMatrix> preprocessed_;      // set iff eq_ or rowperm_
  std::unique_ptr<SeparatorTree> tree_;
  std::unique_ptr<BlockStructure> bs_;
  std::unique_ptr<SupernodalMatrix> factors_;
  std::vector<index_t> perm_;   // new -> old
  std::vector<index_t> pinv_;   // old -> new
  SolverOptions options_;
};

}  // namespace slu3d
