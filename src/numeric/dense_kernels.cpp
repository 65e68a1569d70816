// Blocked, packed dense kernel substrate (see DESIGN.md, "Dense kernel
// substrate"). One BLIS-style micro-kernel carries every BLAS-3 entry
// point: GEMM runs the full KC/MC/NC packing pipeline, the TRSM variants
// peel kTB-wide triangular blocks and push the remaining rank-kb update
// through the same packed GEMM, and GETRF is a right-looking block
// algorithm over those TRSMs and GEMMs. The dense path contains no
// zero-skip branches (only the dense::ref oracle has them).
#include "numeric/dense_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>

#include "numeric/kernel_scratch.hpp"
#include "support/check.hpp"

#define SLU3D_RESTRICT __restrict__

namespace slu3d {
namespace dense {

namespace {

thread_local offset_t t_flops_performed = 0;

inline void count(offset_t flops) { t_flops_performed += flops; }

/// Column-major element offset, computed in pointer-width arithmetic.
inline std::ptrdiff_t off(index_t r, index_t c, index_t ld) {
  return static_cast<std::ptrdiff_t>(r) +
         static_cast<std::ptrdiff_t>(c) * static_cast<std::ptrdiff_t>(ld);
}

constexpr std::size_t kPanelA = static_cast<std::size_t>(kMR) * kKC;
constexpr std::size_t kPanelB = static_cast<std::size_t>(kNR) * kKC;

// ---- packing ------------------------------------------------------------

/// Packs the mc x kc block at `a` (column-major, lda) into kMR-row
/// micro-panels, each k-major and zero-padded to exactly kMR rows:
///   buf[(i0/kMR) * kMR*kc + p * kMR + i] = a[(i0 + i) + p * lda].
void pack_block_a(index_t mc, index_t kc, const real_t* a, index_t lda,
                  real_t* SLU3D_RESTRICT buf) {
  for (index_t i0 = 0; i0 < mc; i0 += kMR) {
    const index_t mr = std::min(kMR, mc - i0);
    for (index_t p = 0; p < kc; ++p) {
      const real_t* col = a + off(i0, p, lda);
      real_t* dst = buf + p * kMR;
      index_t i = 0;
      for (; i < mr; ++i) dst[i] = col[i];
      for (; i < kMR; ++i) dst[i] = 0.0;
    }
    buf += static_cast<std::size_t>(kc) * kMR;
  }
}

/// Packs the kc x nc panel at `b` into kNR-column micro-panels, k-major,
/// zero-padded to kNR columns: buf[p * kNR + j] = b[p + (j0 + j) * ldb].
void pack_panel_b(index_t kc, index_t nc, const real_t* b, index_t ldb,
                  real_t* SLU3D_RESTRICT buf) {
  for (index_t j0 = 0; j0 < nc; j0 += kNR) {
    const index_t nr = std::min(kNR, nc - j0);
    for (index_t p = 0; p < kc; ++p) {
      real_t* dst = buf + p * kNR;
      index_t j = 0;
      for (; j < nr; ++j) dst[j] = b[off(p, j0 + j, ldb)];
      for (; j < kNR; ++j) dst[j] = 0.0;
    }
    buf += static_cast<std::size_t>(kc) * kNR;
  }
}

// ---- micro-kernel -------------------------------------------------------

/// C tile (kMR x kNR at `c`, leading dimension ldc) -= Apanel * Bpanel over
/// depth kc. The register layout is pinned explicitly with GCC vector
/// extensions: each column of the tile is one 8-wide double vector, kNR = 6
/// columns, so the accumulator occupies 6 vector registers plus the A
/// column and a broadcast B element. On AVX-512 that is one zmm per
/// column; on AVX2-only targets the compiler splits each 64-byte vector
/// into exactly the two ymm halves of the classic BLIS 8x6 kernel.
#if defined(__GNUC__) || defined(__clang__)

typedef real_t v8d __attribute__((vector_size(8 * sizeof(real_t))));
static_assert(kMR == 8, "micro-kernel is written for kMR == 8");

inline v8d v8load(const real_t* p) {
  v8d v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void v8store(real_t* p, v8d v) { std::memcpy(p, &v, sizeof(v)); }

inline void micro_tile_full(index_t kc, const real_t* SLU3D_RESTRICT ap,
                            const real_t* SLU3D_RESTRICT bp,
                            real_t* SLU3D_RESTRICT c, index_t ldc) {
  v8d acc[kNR] = {};
  for (index_t p = 0; p < kc; ++p) {
    // Pack buffers are 64-byte aligned and micro-panels contiguous.
    const v8d a = v8load(ap + p * kMR);
    const real_t* SLU3D_RESTRICT b = bp + p * kNR;
    for (index_t j = 0; j < kNR; ++j) acc[j] += a * b[j];
  }
  for (index_t j = 0; j < kNR; ++j) {
    real_t* cj = c + off(0, j, ldc);
    v8store(cj, v8load(cj) - acc[j]);
  }
}

#else  // portable scalar fallback

inline void micro_tile_full(index_t kc, const real_t* SLU3D_RESTRICT ap,
                            const real_t* SLU3D_RESTRICT bp,
                            real_t* SLU3D_RESTRICT c, index_t ldc) {
  real_t acc[static_cast<std::size_t>(kMR) * kNR] = {};
  for (index_t p = 0; p < kc; ++p) {
    const real_t* SLU3D_RESTRICT a = ap + p * kMR;
    const real_t* SLU3D_RESTRICT b = bp + p * kNR;
    for (index_t j = 0; j < kNR; ++j)
      for (index_t i = 0; i < kMR; ++i) acc[j * kMR + i] += a[i] * b[j];
  }
  for (index_t j = 0; j < kNR; ++j) {
    real_t* SLU3D_RESTRICT cj = c + off(0, j, ldc);
    for (index_t i = 0; i < kMR; ++i) cj[i] -= acc[j * kMR + i];
  }
}

#endif

/// Ragged-edge tile: run the full register kernel into a zeroed local tile
/// (so the hot path above stays branch-free), then add the mr x nr corner.
inline void micro_tile_edge(index_t kc, const real_t* SLU3D_RESTRICT ap,
                            const real_t* SLU3D_RESTRICT bp, index_t mr,
                            index_t nr, real_t* c, index_t ldc) {
  real_t tmp[static_cast<std::size_t>(kMR) * kNR] = {};
  micro_tile_full(kc, ap, bp, tmp, kMR);  // tmp = -Apanel * Bpanel
  for (index_t j = 0; j < nr; ++j) {
    real_t* cj = c + off(0, j, ldc);
    for (index_t i = 0; i < mr; ++i) cj[i] += tmp[j * kMR + i];
  }
}

// ---- blocked GEMM core --------------------------------------------------

/// C <- C - A B. Both operands are packed into the per-rank aligned
/// scratch; the inner loops are branch-free regardless of the operand
/// values.
void gemm_minus_blocked(index_t m, index_t n, index_t k, const real_t* a,
                        index_t lda, const real_t* b, index_t ldb, real_t* c,
                        index_t ldc) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  KernelScratch& ws = KernelScratch::per_rank();
  for (index_t jc = 0; jc < n; jc += kNC) {
    const index_t nc = std::min(kNC, n - jc);
    const index_t np = (nc + kNR - 1) / kNR;  // micro-panels in this B panel
    for (index_t pc = 0; pc < k; pc += kKC) {
      const index_t kc = std::min(kKC, k - pc);
      real_t* bbuf = ws.pack_b(static_cast<std::size_t>(np) * kPanelB);
      pack_panel_b(kc, nc, b + off(pc, jc, ldb), ldb, bbuf);
      for (index_t ic = 0; ic < m; ic += kMC) {
        const index_t mc = std::min(kMC, m - ic);
        const index_t mp = (mc + kMR - 1) / kMR;
        real_t* abuf = ws.pack_a(static_cast<std::size_t>(mp) * kPanelA);
        pack_block_a(mc, kc, a + off(ic, pc, lda), lda, abuf);
        for (index_t jr = 0; jr < nc; jr += kNR) {
          const index_t nr = std::min(kNR, nc - jr);
          const real_t* bp =
              bbuf + static_cast<std::size_t>(jr / kNR) * static_cast<std::size_t>(kc) * kNR;
          for (index_t ir = 0; ir < mc; ir += kMR) {
            const index_t mr = std::min(kMR, mc - ir);
            const real_t* ap =
                abuf + static_cast<std::size_t>(ir / kMR) * static_cast<std::size_t>(kc) * kMR;
            real_t* ct = c + off(ic + ir, jc + jr, ldc);
            if (mr == kMR && nr == kNR)
              micro_tile_full(kc, ap, bp, ct, ldc);
            else
              micro_tile_edge(kc, ap, bp, mr, nr, ct, ldc);
          }
        }
      }
    }
  }
}

// ---- small (within-block) triangular solves -----------------------------
// These run on kTB x kTB diagonal blocks only; the contiguous inner loops
// stream full columns of B and carry no data-dependent branches.

void trsm_left_lower_unit_small(index_t n, index_t m, const real_t* a,
                                index_t lda, real_t* b, index_t ldb) {
  for (index_t j = 0; j < m; ++j) {
    real_t* SLU3D_RESTRICT bj = b + off(0, j, ldb);
    for (index_t k = 0; k < n; ++k) {
      const real_t bk = bj[k];
      const real_t* SLU3D_RESTRICT ak = a + off(0, k, lda);
      for (index_t i = k + 1; i < n; ++i) bj[i] -= ak[i] * bk;
    }
  }
}

void trsm_right_upper_small(index_t n, index_t m, const real_t* a, index_t lda,
                            real_t* b, index_t ldb) {
  for (index_t k = 0; k < n; ++k) {
    const real_t* uk = a + off(0, k, lda);
    real_t* SLU3D_RESTRICT bk = b + off(0, k, ldb);
    for (index_t c = 0; c < k; ++c) {
      const real_t ukc = uk[c];
      const real_t* SLU3D_RESTRICT bc = b + off(0, c, ldb);
      for (index_t i = 0; i < m; ++i) bk[i] -= bc[i] * ukc;
    }
    const real_t inv = 1.0 / uk[k];
    for (index_t i = 0; i < m; ++i) bk[i] *= inv;
  }
}

void trsm_left_upper_small(index_t n, index_t m, const real_t* a, index_t lda,
                           real_t* b, index_t ldb) {
  for (index_t j = 0; j < m; ++j) {
    real_t* SLU3D_RESTRICT bj = b + off(0, j, ldb);
    for (index_t k = n - 1; k >= 0; --k) {
      const real_t* SLU3D_RESTRICT ak = a + off(0, k, lda);
      const real_t xk = bj[k] / ak[k];
      bj[k] = xk;
      for (index_t i = 0; i < k; ++i) bj[i] -= ak[i] * xk;
    }
  }
}

// ---- blocked TRSM drivers (shared by the public TRSMs and GETRF; they
// do not touch the flop counter so composite kernels count once) ---------

void trsm_left_lower_unit_impl(index_t n, index_t m, const real_t* a,
                               index_t lda, real_t* b, index_t ldb) {
  if (n <= 0 || m <= 0) return;
  for (index_t k0 = 0; k0 < n; k0 += kTB) {
    const index_t kb = std::min(kTB, n - k0);
    trsm_left_lower_unit_small(kb, m, a + off(k0, k0, lda), lda, b + k0, ldb);
    const index_t rest = k0 + kb;
    if (rest < n)
      gemm_minus_blocked(n - rest, m, kb, a + off(rest, k0, lda), lda, b + k0,
                         ldb, b + rest, ldb);
  }
}

void trsm_left_upper_impl(index_t n, index_t m, const real_t* a, index_t lda,
                          real_t* b, index_t ldb) {
  if (n <= 0 || m <= 0) return;
  // Bottom-up over diagonal blocks: solve the block, then eliminate its
  // solved rows from everything above via one GEMM.
  const index_t nblk = (n + kTB - 1) / kTB;
  for (index_t blk = nblk - 1; blk >= 0; --blk) {
    const index_t k0 = blk * kTB;
    const index_t kb = std::min(kTB, n - k0);
    trsm_left_upper_small(kb, m, a + off(k0, k0, lda), lda, b + k0, ldb);
    if (k0 > 0)
      gemm_minus_blocked(k0, m, kb, a + off(0, k0, lda), lda, b + k0, ldb, b,
                         ldb);
  }
}

void trsm_right_upper_impl(index_t n, index_t m, const real_t* a, index_t lda,
                           real_t* b, index_t ldb) {
  if (n <= 0 || m <= 0) return;
  for (index_t k0 = 0; k0 < n; k0 += kTB) {
    const index_t kb = std::min(kTB, n - k0);
    trsm_right_upper_small(kb, m, a + off(k0, k0, lda), lda, b + off(0, k0, ldb),
                           ldb);
    const index_t rest = k0 + kb;
    if (rest < n)
      gemm_minus_blocked(m, n - rest, kb, b + off(0, k0, ldb), ldb,
                         a + off(k0, rest, lda), lda, b + off(0, rest, ldb),
                         ldb);
  }
}

}  // namespace

// ---- public entry points ------------------------------------------------

void getrf_nopiv(index_t n, real_t* a, index_t lda, real_t tiny) {
  for (index_t k0 = 0; k0 < n; k0 += kTB) {
    const index_t kb = std::min(kTB, n - k0);
    // Unblocked factorization of the panel a[k0:n, k0:k0+kb].
    for (index_t k = k0; k < k0 + kb; ++k) {
      real_t* SLU3D_RESTRICT ck = a + off(0, k, lda);
      const real_t piv = ck[k];
      SLU3D_CHECK(std::abs(piv) > tiny, "zero pivot in static-pivot LU");
      const real_t inv = 1.0 / piv;
      for (index_t i = k + 1; i < n; ++i) ck[i] *= inv;
      for (index_t j = k + 1; j < k0 + kb; ++j) {
        real_t* SLU3D_RESTRICT cj = a + off(0, j, lda);
        const real_t ujk = cj[k];
        for (index_t i = k + 1; i < n; ++i) cj[i] -= ck[i] * ujk;
      }
    }
    const index_t rest = k0 + kb;
    if (rest >= n) break;
    // U block row: solve L11 * U12 = A12.
    trsm_left_lower_unit_impl(kb, n - rest, a + off(k0, k0, lda), lda,
                              a + off(k0, rest, lda), lda);
    // Trailing update: A22 -= L21 * U12.
    gemm_minus_blocked(n - rest, n - rest, kb, a + off(rest, k0, lda), lda,
                       a + off(k0, rest, lda), lda, a + off(rest, rest, lda),
                       lda);
  }
  count(getrf_flops(n));
}

void trsm_left_lower_unit(index_t n, index_t m, const real_t* a, index_t lda,
                          real_t* b, index_t ldb) {
  trsm_left_lower_unit_impl(n, m, a, lda, b, ldb);
  count(trsm_flops(n, m));
}

void trsm_right_upper(index_t n, index_t m, const real_t* a, index_t lda,
                      real_t* b, index_t ldb) {
  trsm_right_upper_impl(n, m, a, lda, b, ldb);
  count(trsm_flops(n, m));
}

void trsm_left_upper(index_t n, index_t m, const real_t* a, index_t lda,
                     real_t* b, index_t ldb) {
  trsm_left_upper_impl(n, m, a, lda, b, ldb);
  count(trsm_flops(n, m));
}

void gemm_minus(index_t m, index_t n, index_t k, const real_t* a, index_t lda,
                const real_t* b, index_t ldb, real_t* c, index_t ldc) {
  gemm_minus_blocked(m, n, k, a, lda, b, ldb, c, ldc);
  if (m > 0 && n > 0 && k > 0) count(gemm_flops(m, n, k));
}

offset_t flops_performed() { return t_flops_performed; }

void reset_flops_performed() { t_flops_performed = 0; }

// ---- triangular vector solves (unchanged scalar kernels) ---------------

void trsv_lower_unit(index_t n, const real_t* a, index_t lda, real_t* y) {
  for (index_t k = 0; k < n; ++k) {
    const real_t yk = y[k];
    if (yk == 0.0) continue;
    const real_t* ak = a + k * lda;
    for (index_t i = k + 1; i < n; ++i) y[i] -= ak[i] * yk;
  }
}

void trsv_upper_trans(index_t n, const real_t* a, index_t lda, real_t* y) {
  // U^T is lower triangular; forward substitution over columns of U.
  for (index_t k = 0; k < n; ++k) {
    const real_t* ak = a + k * lda;
    real_t v = y[k];
    for (index_t i = 0; i < k; ++i) v -= ak[i] * y[i];
    y[k] = v / ak[k];
  }
}

void trsv_lower_unit_trans(index_t n, const real_t* a, index_t lda, real_t* y) {
  // L^T is unit upper triangular; backward substitution over columns of L.
  for (index_t k = n - 1; k >= 0; --k) {
    const real_t* ak = a + k * lda;
    real_t v = y[k];
    for (index_t i = k + 1; i < n; ++i) v -= ak[i] * y[i];
    y[k] = v;
  }
}

void trsv_upper(index_t n, const real_t* a, index_t lda, real_t* y) {
  for (index_t k = n - 1; k >= 0; --k) {
    const real_t* ak = a + k * lda;
    y[k] /= ak[k];
    const real_t yk = y[k];
    if (yk == 0.0) continue;
    for (index_t i = 0; i < k; ++i) y[i] -= ak[i] * yk;
  }
}

}  // namespace dense
}  // namespace slu3d
