// Reference (pre-substrate) dense kernels: the original unblocked
// triple-loop implementations, kept as the oracle for the blocked
// substrate's tests. No production path calls them.
#include <cmath>

#include "numeric/dense_kernels.hpp"
#include "support/check.hpp"

namespace slu3d {
namespace dense {
namespace ref {

namespace {
constexpr index_t kBlock = 48;  // historical register/cache blocking factor
}

void getrf_nopiv(index_t n, real_t* a, index_t lda, real_t tiny) {
  // Right-looking blocked LU without pivoting.
  for (index_t k0 = 0; k0 < n; k0 += kBlock) {
    const index_t kb = std::min(kBlock, n - k0);
    // Factor the diagonal panel a[k0:, k0:k0+kb] unblocked.
    for (index_t k = k0; k < k0 + kb; ++k) {
      const real_t piv = a[k + k * lda];
      SLU3D_CHECK(std::abs(piv) > tiny, "zero pivot in static-pivot LU");
      const real_t inv = 1.0 / piv;
      for (index_t i = k + 1; i < n; ++i) a[i + k * lda] *= inv;
      const index_t jend = std::min(n, k0 + kb);
      for (index_t j = k + 1; j < jend; ++j) {
        const real_t ujk = a[k + j * lda];
        if (ujk == 0.0) continue;
        for (index_t i = k + 1; i < n; ++i)
          a[i + j * lda] -= a[i + k * lda] * ujk;
      }
    }
    const index_t rest = k0 + kb;
    if (rest >= n) break;
    // U block row: solve L11 * U12 = A12.
    trsm_left_lower_unit(kb, n - rest, a + k0 + k0 * lda, lda,
                         a + k0 + rest * lda, lda);
    // Trailing update: A22 -= L21 * U12.
    gemm_minus(n - rest, n - rest, kb, a + rest + k0 * lda, lda,
               a + k0 + rest * lda, lda, a + rest + rest * lda, lda);
  }
}

void trsm_left_lower_unit(index_t n, index_t m, const real_t* a, index_t lda,
                          real_t* b, index_t ldb) {
  for (index_t j = 0; j < m; ++j) {
    real_t* bj = b + j * ldb;
    for (index_t k = 0; k < n; ++k) {
      const real_t bk = bj[k];
      if (bk == 0.0) continue;
      const real_t* ak = a + k * lda;
      for (index_t i = k + 1; i < n; ++i) bj[i] -= ak[i] * bk;
    }
  }
}

void trsm_right_upper(index_t n, index_t m, const real_t* a, index_t lda,
                      real_t* b, index_t ldb) {
  // Solve X U = B column-by-column of U: X(:,k) = (B(:,k) - X(:,<k) U(<k,k)) / U(k,k).
  for (index_t k = 0; k < n; ++k) {
    const real_t* uk = a + k * lda;
    real_t* bk = b + k * ldb;
    for (index_t c = 0; c < k; ++c) {
      const real_t ukc = uk[c];
      if (ukc == 0.0) continue;
      const real_t* bc = b + c * ldb;
      for (index_t i = 0; i < m; ++i) bk[i] -= bc[i] * ukc;
    }
    const real_t inv = 1.0 / uk[k];
    for (index_t i = 0; i < m; ++i) bk[i] *= inv;
  }
}

void gemm_minus(index_t m, index_t n, index_t k, const real_t* a, index_t lda,
                const real_t* b, index_t ldb, real_t* c, index_t ldc) {
  // jki loop order: stream down columns of C and A (column-major friendly).
  for (index_t j = 0; j < n; ++j) {
    real_t* cj = c + j * ldc;
    const real_t* bj = b + j * ldb;
    for (index_t p = 0; p < k; ++p) {
      const real_t bpj = bj[p];
      if (bpj == 0.0) continue;
      const real_t* ap = a + p * lda;
      for (index_t i = 0; i < m; ++i) cj[i] -= ap[i] * bpj;
    }
  }
}

}  // namespace ref
}  // namespace dense
}  // namespace slu3d
