// Dense BLAS-3-style kernels (the MKL substitute). All matrices are
// column-major with an explicit leading dimension, matching the interfaces
// SuperLU_DIST calls (GETRF without pivoting, two TRSM variants, GEMM).
//
// The default entry points run on a BLIS-style blocked substrate: an
// MR x NR register-tiled micro-kernel under KC/MC/NC cache blocking with
// explicit packing of A and B into contiguous aligned buffers (see
// DESIGN.md, "Dense kernel substrate"). The historical triple-loop
// kernels are preserved under dense::ref as the oracle for the tests.
#pragma once

#include "support/types.hpp"

namespace slu3d {
namespace dense {

// ---- blocking parameters (see DESIGN.md for the retuning recipe) -------
inline constexpr index_t kMR = 8;    ///< micro-tile rows (register tiling)
inline constexpr index_t kNR = 6;    ///< micro-tile columns
inline constexpr index_t kKC = 256;  ///< k-dimension cache block (packed panel depth)
inline constexpr index_t kMC = 128;  ///< m-dimension cache block (A block, ~L2)
inline constexpr index_t kNC = 512;  ///< n-dimension cache block (B panel)
inline constexpr index_t kTB = 64;   ///< triangular/diagonal block for TRSM/GETRF

/// In-place LU factorization without pivoting: A = L U with L unit lower
/// triangular, both overwriting A. Throws if a diagonal entry collapses
/// below `tiny` (static pivoting failure).
void getrf_nopiv(index_t n, real_t* a, index_t lda, real_t tiny = 1e-300);

/// B <- L^{-1} B where L is the unit-lower part of `a` (n x n), B is n x m.
/// (SuperLU's "panel solve" for the U panel.)
void trsm_left_lower_unit(index_t n, index_t m, const real_t* a, index_t lda,
                          real_t* b, index_t ldb);

/// B <- B U^{-1} where U is the upper part of `a` (n x n), B is m x n.
/// (Panel solve for the L panel.)
void trsm_right_upper(index_t n, index_t m, const real_t* a, index_t lda,
                      real_t* b, index_t ldb);

// ---- multi-RHS solve panels ---------------------------------------------
// A left-side solve on an n x m right-hand-side panel — the batched
// counterpart of trsv_upper below, used by the distributed triangular
// solves when nrhs > 1 folds a whole batch into one sweep (their forward
// sweeps use trsm_left_lower_unit above).

/// B <- U^{-1} B where U is the upper part of `a` (n x n), B is n x m.
/// (Batched backward substitution at a diagonal block.)
void trsm_left_upper(index_t n, index_t m, const real_t* a, index_t lda,
                     real_t* b, index_t ldb);

/// C <- C - A B with A (m x k), B (k x n), C (m x n).
/// (The Schur-complement GEMM.)
void gemm_minus(index_t m, index_t n, index_t k, const real_t* a, index_t lda,
                const real_t* b, index_t ldb, real_t* c, index_t ldc);

/// y <- L^{-1} y for one vector (unit lower part of a).
void trsv_lower_unit(index_t n, const real_t* a, index_t lda, real_t* y);

/// y <- U^{-1} y for one vector (upper part of a).
void trsv_upper(index_t n, const real_t* a, index_t lda, real_t* y);

/// y <- U^{-T} y (transpose solve with the upper part of a).
void trsv_upper_trans(index_t n, const real_t* a, index_t lda, real_t* y);

/// y <- L^{-T} y with *unit* lower triangular L.
void trsv_lower_unit_trans(index_t n, const real_t* a, index_t lda, real_t* y);

/// Flop counts used by the performance model and the simulator's logical
/// clocks; they match the paper's accounting (Table III counts Schur +
/// panel + diagonal work).
inline offset_t getrf_flops(offset_t n) { return 2 * n * n * n / 3; }
inline offset_t trsm_flops(offset_t n, offset_t m) { return static_cast<offset_t>(n) * n * m; }
inline offset_t gemm_flops(offset_t m, offset_t n, offset_t k) {
  return 2 * m * n * k;
}

// ---- flop accounting audit ---------------------------------------------
// Every public BLAS-3 entry point above adds its canonical model count
// (the *_flops formula of its arguments; packing traffic is never
// counted, and internal calls inside a blocked kernel are not re-counted)
// to a thread-local counter. A call site that charges the same formula to
// the simulator therefore satisfies charged == performed exactly;
// test_model asserts this.

/// Model flops performed by this thread's dense kernels since the last
/// reset_flops_performed().
offset_t flops_performed();
void reset_flops_performed();

// ---- reference kernels --------------------------------------------------
// The original unblocked triple-loop implementations, kept verbatim as the
// oracle for the blocked substrate's tests. No production path calls
// them. They do not touch the flop counter.
namespace ref {

void getrf_nopiv(index_t n, real_t* a, index_t lda, real_t tiny = 1e-300);
void trsm_left_lower_unit(index_t n, index_t m, const real_t* a, index_t lda,
                          real_t* b, index_t ldb);
void trsm_right_upper(index_t n, index_t m, const real_t* a, index_t lda,
                      real_t* b, index_t ldb);
void gemm_minus(index_t m, index_t n, index_t k, const real_t* a, index_t lda,
                const real_t* b, index_t ldb, real_t* c, index_t ldc);

}  // namespace ref

}  // namespace dense
}  // namespace slu3d
