#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/check.hpp"

namespace slu3d {

CsrMatrix CsrMatrix::from_coo(const CooMatrix& coo) {
  const index_t nr = coo.n_rows();
  const index_t nc = coo.n_cols();
  SLU3D_CHECK(nr >= 0 && nc >= 0, "negative dimensions");

  // Count entries per row.
  std::vector<offset_t> count(static_cast<std::size_t>(nr) + 1, 0);
  for (const auto& e : coo.entries()) {
    SLU3D_CHECK(e.row >= 0 && e.row < nr && e.col >= 0 && e.col < nc,
                "COO entry out of range");
    ++count[static_cast<std::size_t>(e.row) + 1];
  }
  std::partial_sum(count.begin(), count.end(), count.begin());

  // Bucket by row.
  std::vector<index_t> cols(coo.entries().size());
  std::vector<real_t> vals(coo.entries().size());
  std::vector<offset_t> fill(count.begin(), count.end() - 1);
  for (const auto& e : coo.entries()) {
    const auto pos = static_cast<std::size_t>(fill[static_cast<std::size_t>(e.row)]++);
    cols[pos] = e.col;
    vals[pos] = e.value;
  }

  // Sort each row by column and sum duplicates, writing to fresh arrays
  // (in-place compaction would clobber entries not yet read through the
  // sorted index permutation).
  std::vector<offset_t> row_ptr(static_cast<std::size_t>(nr) + 1, 0);
  std::vector<index_t> out_cols;
  std::vector<real_t> out_vals;
  out_cols.reserve(cols.size());
  out_vals.reserve(vals.size());
  std::vector<std::size_t> order;
  for (index_t r = 0; r < nr; ++r) {
    const auto lo = static_cast<std::size_t>(count[static_cast<std::size_t>(r)]);
    const auto hi = static_cast<std::size_t>(count[static_cast<std::size_t>(r) + 1]);
    order.resize(hi - lo);
    std::iota(order.begin(), order.end(), lo);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return cols[a] < cols[b]; });
    for (std::size_t k = 0; k < order.size(); ++k) {
      const std::size_t src = order[k];
      if (k > 0 && cols[src] == out_cols.back()) {
        out_vals.back() += vals[src];  // duplicate: accumulate
      } else {
        out_cols.push_back(cols[src]);
        out_vals.push_back(vals[src]);
      }
    }
    row_ptr[static_cast<std::size_t>(r) + 1] = static_cast<offset_t>(out_cols.size());
  }

  return from_raw(nr, nc, std::move(row_ptr), std::move(out_cols),
                  std::move(out_vals));
}

CsrMatrix CsrMatrix::from_raw(index_t n_rows, index_t n_cols,
                              std::vector<offset_t> row_ptr,
                              std::vector<index_t> col_idx,
                              std::vector<real_t> values) {
  SLU3D_CHECK(row_ptr.size() == static_cast<std::size_t>(n_rows) + 1,
              "row_ptr size mismatch");
  SLU3D_CHECK(col_idx.size() == values.size(), "col/val size mismatch");
  SLU3D_CHECK(row_ptr.front() == 0 &&
                  row_ptr.back() == static_cast<offset_t>(col_idx.size()),
              "row_ptr bounds malformed");
  CsrMatrix m;
  m.n_rows_ = n_rows;
  m.n_cols_ = n_cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  return m;
}

real_t CsrMatrix::at(index_t r, index_t c) const {
  const auto cols = row_cols(r);
  const auto it = std::lower_bound(cols.begin(), cols.end(), c);
  if (it == cols.end() || *it != c) return 0.0;
  const auto off = static_cast<std::size_t>(it - cols.begin());
  return row_vals(r)[off];
}

void CsrMatrix::spmv(std::span<const real_t> x, std::span<real_t> y) const {
  SLU3D_CHECK(x.size() == static_cast<std::size_t>(n_cols_), "x size");
  SLU3D_CHECK(y.size() == static_cast<std::size_t>(n_rows_), "y size");
  for (index_t r = 0; r < n_rows_; ++r) {
    real_t acc = 0.0;
    const auto cols = row_cols(r);
    const auto vals = row_vals(r);
    for (std::size_t k = 0; k < cols.size(); ++k)
      acc += vals[k] * x[static_cast<std::size_t>(cols[k])];
    y[static_cast<std::size_t>(r)] = acc;
  }
}

CsrMatrix CsrMatrix::transposed() const {
  std::vector<offset_t> rp(static_cast<std::size_t>(n_cols_) + 1, 0);
  for (index_t c : col_idx_) ++rp[static_cast<std::size_t>(c) + 1];
  std::partial_sum(rp.begin(), rp.end(), rp.begin());
  std::vector<index_t> ci(col_idx_.size());
  std::vector<real_t> va(values_.size());
  std::vector<offset_t> fill(rp.begin(), rp.end() - 1);
  for (index_t r = 0; r < n_rows_; ++r) {
    const auto cols = row_cols(r);
    const auto vals = row_vals(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const auto pos = static_cast<std::size_t>(fill[static_cast<std::size_t>(cols[k])]++);
      ci[pos] = r;
      va[pos] = vals[k];
    }
  }
  // Rows of the transpose come out sorted because we scanned rows in order.
  return from_raw(n_cols_, n_rows_, std::move(rp), std::move(ci), std::move(va));
}

CsrMatrix CsrMatrix::permuted_symmetric(std::span<const index_t> perm) const {
  SLU3D_CHECK(n_rows_ == n_cols_, "symmetric permutation needs square matrix");
  SLU3D_CHECK(perm.size() == static_cast<std::size_t>(n_rows_), "perm size");
  const auto pinv = invert_permutation(perm);
  CooMatrix coo(n_rows_, n_cols_);
  coo.reserve(static_cast<std::size_t>(nnz()));
  for (index_t r = 0; r < n_rows_; ++r) {
    const auto cols = row_cols(r);
    const auto vals = row_vals(r);
    for (std::size_t k = 0; k < cols.size(); ++k)
      coo.add(pinv[static_cast<std::size_t>(r)],
              pinv[static_cast<std::size_t>(cols[k])], vals[k]);
  }
  return from_coo(coo);
}

CsrMatrix CsrMatrix::symmetrized_pattern() const {
  SLU3D_CHECK(n_rows_ == n_cols_, "symmetrize needs square matrix");
  CooMatrix coo(n_rows_, n_cols_);
  coo.reserve(2 * static_cast<std::size_t>(nnz()));
  for (index_t r = 0; r < n_rows_; ++r) {
    const auto cols = row_cols(r);
    const auto vals = row_vals(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      coo.add(r, cols[k], vals[k]);
      coo.add(cols[k], r, 0.0);  // transpose position: pattern only
    }
  }
  return from_coo(coo);
}

bool CsrMatrix::pattern_is_symmetric() const {
  if (n_rows_ != n_cols_) return false;
  const CsrMatrix t = transposed();
  if (t.nnz() != nnz()) return false;
  return std::equal(col_idx_.begin(), col_idx_.end(), t.col_idx_.begin()) &&
         std::equal(row_ptr_.begin(), row_ptr_.end(), t.row_ptr_.begin());
}

real_t CsrMatrix::norm_inf() const {
  real_t best = 0.0;
  for (index_t r = 0; r < n_rows_; ++r) {
    real_t s = 0.0;
    for (real_t v : row_vals(r)) s += std::abs(v);
    best = std::max(best, s);
  }
  return best;
}

real_t relative_residual(const CsrMatrix& A, std::span<const real_t> x,
                         std::span<const real_t> b) {
  const auto n = static_cast<std::size_t>(A.n_rows());
  std::vector<real_t> ax(n);
  A.spmv(x, ax);
  real_t rnorm = 0.0, xnorm = 0.0, bnorm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    rnorm = std::max(rnorm, std::abs(b[i] - ax[i]));
    xnorm = std::max(xnorm, std::abs(x[i]));
    bnorm = std::max(bnorm, std::abs(b[i]));
  }
  const real_t denom = A.norm_inf() * xnorm + bnorm;
  return denom > 0 ? rnorm / denom : rnorm;
}

std::vector<index_t> invert_permutation(std::span<const index_t> perm) {
  std::vector<index_t> pinv(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i)
    pinv[static_cast<std::size_t>(perm[i])] = static_cast<index_t>(i);
  return pinv;
}

bool is_permutation(std::span<const index_t> perm) {
  std::vector<bool> seen(perm.size(), false);
  for (index_t p : perm) {
    if (p < 0 || static_cast<std::size_t>(p) >= perm.size()) return false;
    if (seen[static_cast<std::size_t>(p)]) return false;
    seen[static_cast<std::size_t>(p)] = true;
  }
  return true;
}

}  // namespace slu3d
