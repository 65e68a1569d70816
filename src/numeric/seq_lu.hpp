// Sequential right-looking supernodal LU factorization — the single-process
// reference implementation every distributed variant is validated against,
// and the per-supernode kernel sequence (§II-C/E):
//   1. diagonal factorization   A_ss -> L_ss U_ss
//   2. panel solves             L_:s = A_:s U_ss^{-1},  U_s: = L_ss^{-1} A_s:
//   3. Schur-complement update  A_ij -= L_is U_sj
#pragma once

#include <span>

#include "numeric/supernodal_matrix.hpp"

namespace slu3d {

/// Factorizes F in place (F must hold the permuted matrix values, fully
/// allocated). After the call, diag blocks hold L_ss \ U_ss, panels hold
/// the L and U factors.
void factorize_sequential(SupernodalMatrix& F);

/// Factorizes only the supernodes listed in `snodes` (ascending), applying
/// their Schur updates to every allocated target. This is the "dSparseLU2D
/// restricted to a node list" primitive of Algorithm 1, in sequential form;
/// used by tests that replay the 3D schedule without a process grid.
void factorize_snodes_sequential(SupernodalMatrix& F, std::span<const int> snodes);

/// Solves L U x = b in the permuted index space, overwriting x (b on
/// entry). F must contain a completed factorization.
void solve_factored(const SupernodalMatrix& F, std::span<real_t> x);

/// Solves (L U)ᵀ x = b, i.e. Uᵀ y = b then Lᵀ x = y — the transpose
/// solve needed by the 1-norm condition estimator and Aᵀ x = b users.
void solve_factored_transpose(const SupernodalMatrix& F, std::span<real_t> x);

}  // namespace slu3d
