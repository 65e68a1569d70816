// Compressed sparse row matrix — the workhorse format of the library.
// Column indices are sorted within each row; duplicates are summed at build
// time.
#pragma once

#include <span>
#include <vector>

#include "sparse/coo.hpp"
#include "support/types.hpp"

namespace slu3d {

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Build from COO, summing duplicates and sorting columns within rows.
  static CsrMatrix from_coo(const CooMatrix& coo);

  /// Build directly from raw arrays (must already be sorted, no duplicates).
  static CsrMatrix from_raw(index_t n_rows, index_t n_cols,
                            std::vector<offset_t> row_ptr,
                            std::vector<index_t> col_idx,
                            std::vector<real_t> values);

  index_t n_rows() const { return n_rows_; }
  index_t n_cols() const { return n_cols_; }
  offset_t nnz() const { return static_cast<offset_t>(col_idx_.size()); }

  std::span<const offset_t> row_ptr() const { return row_ptr_; }
  std::span<const index_t> col_idx() const { return col_idx_; }
  std::span<const real_t> values() const { return values_; }
  std::span<real_t> values() { return values_; }

  /// Column indices of row `r`.
  std::span<const index_t> row_cols(index_t r) const {
    return std::span<const index_t>(col_idx_)
        .subspan(static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(r)]),
                 static_cast<std::size_t>(row_nnz(r)));
  }
  /// Values of row `r`.
  std::span<const real_t> row_vals(index_t r) const {
    return std::span<const real_t>(values_)
        .subspan(static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(r)]),
                 static_cast<std::size_t>(row_nnz(r)));
  }
  offset_t row_nnz(index_t r) const {
    return row_ptr_[static_cast<std::size_t>(r) + 1] -
           row_ptr_[static_cast<std::size_t>(r)];
  }

  /// Value at (r, c), or 0 if not stored. O(log row_nnz).
  real_t at(index_t r, index_t c) const;

  /// y = A x.
  void spmv(std::span<const real_t> x, std::span<real_t> y) const;

  CsrMatrix transposed() const;

  /// Symmetric permutation B = P A Pᵀ, i.e. B(pinv[i], pinv[j]) = A(i, j)
  /// where `perm[k]` is the original index of the k-th new row, and pinv is
  /// its inverse.
  CsrMatrix permuted_symmetric(std::span<const index_t> perm) const;

  /// Pattern of A + Aᵀ with the values of A (transpose positions that are
  /// absent in A get explicit zeros). Used for symmetrized symbolic
  /// factorization.
  CsrMatrix symmetrized_pattern() const;

  bool pattern_is_symmetric() const;

  /// Infinity norm ||A||_inf (max absolute row sum).
  real_t norm_inf() const;

 private:
  index_t n_rows_ = 0;
  index_t n_cols_ = 0;
  std::vector<offset_t> row_ptr_;
  std::vector<index_t> col_idx_;
  std::vector<real_t> values_;
};

/// Relative residual ||b - A x||_inf / (||A||_inf ||x||_inf + ||b||_inf).
real_t relative_residual(const CsrMatrix& A, std::span<const real_t> x,
                         std::span<const real_t> b);

/// Inverse of a permutation: result[perm[i]] = i.
std::vector<index_t> invert_permutation(std::span<const index_t> perm);

/// True if `perm` is a permutation of 0..n-1.
bool is_permutation(std::span<const index_t> perm);

}  // namespace slu3d
