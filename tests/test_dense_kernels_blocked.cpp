// Parameterized comparison of the blocked dense substrate against the
// dense::ref oracle (the original triple-loop kernels): non-square shapes,
// leading dimensions larger than the row count, degenerate k = 0, and
// sizes that are not multiples of any blocking parameter. Tolerances are
// tight (~1e-12 scaled) because blocked and reference kernels perform the
// same flops in different orders.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include "numeric/dense_kernels.hpp"
#include "support/rng.hpp"

namespace slu3d {
namespace {

std::vector<real_t> random_matrix(index_t rows, index_t cols, index_t ld,
                                  Rng& rng) {
  std::vector<real_t> a(static_cast<std::size_t>(ld) * static_cast<std::size_t>(cols),
                        -7.0);  // poison the ld > rows gap
  for (index_t j = 0; j < cols; ++j)
    for (index_t i = 0; i < rows; ++i)
      a[static_cast<std::size_t>(i) +
        static_cast<std::size_t>(j) * static_cast<std::size_t>(ld)] =
          rng.uniform(-1, 1);
  return a;
}

/// Diagonally dominant n x n matrix stored with leading dimension ld.
std::vector<real_t> random_dominant(index_t n, index_t ld, Rng& rng) {
  auto a = random_matrix(n, n, ld, rng);
  for (index_t i = 0; i < n; ++i)
    a[static_cast<std::size_t>(i) * (static_cast<std::size_t>(ld) + 1)] +=
        static_cast<real_t>(n) + 1.0;
  return a;
}

/// Tolerance is relative for large entries (triangular solves of random
/// unit-lower systems grow exponentially with n) and absolute near zero.
void expect_matrices_near(const std::vector<real_t>& got,
                          const std::vector<real_t>& want, index_t rows,
                          index_t cols, index_t ld, real_t tol) {
  for (index_t j = 0; j < cols; ++j)
    for (index_t i = 0; i < rows; ++i) {
      const auto idx = static_cast<std::size_t>(i) +
                       static_cast<std::size_t>(j) * static_cast<std::size_t>(ld);
      ASSERT_NEAR(got[idx], want[idx], tol * (1.0 + std::abs(want[idx])))
          << "mismatch at (" << i << ", " << j << ")";
    }
}

// ---- GEMM: blocked vs reference over awkward shapes ---------------------

// (m, n, k, extra leading-dimension padding for A/B/C)
using GemmShape = std::tuple<index_t, index_t, index_t, index_t>;

class GemmBlockedVsRef : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmBlockedVsRef, NormalVariantMatches) {
  const auto [m, n, k, pad] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 131 + n * 17 + k + pad));
  const index_t lda = m + pad, ldb = k + pad, ldc = m + pad;
  const auto a = random_matrix(m, k, lda, rng);
  const auto b = random_matrix(k, n, ldb, rng);
  const auto c0 = random_matrix(m, n, ldc, rng);

  auto c_blocked = c0;
  dense::gemm_minus(m, n, k, a.data(), lda, b.data(), ldb, c_blocked.data(),
                    ldc);
  auto c_ref = c0;
  dense::ref::gemm_minus(m, n, k, a.data(), lda, b.data(), ldb, c_ref.data(),
                         ldc);
  const real_t tol = 1e-12 * static_cast<real_t>(k > 0 ? k : 1);
  expect_matrices_near(c_blocked, c_ref, m, n, ldc, tol);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmBlockedVsRef,
    ::testing::Values(
        GemmShape{1, 1, 1, 0},      // scalar
        GemmShape{5, 3, 4, 0},      // tiny non-square
        GemmShape{8, 6, 16, 0},     // exactly one micro-tile
        GemmShape{9, 7, 17, 3},     // one past the micro-tile, padded lds
        GemmShape{64, 48, 64, 0},   // multiple micro-tiles, within one block
        GemmShape{130, 70, 33, 5},  // crosses kMC with ragged edges
        GemmShape{33, 129, 40, 0},  // wide: n past a tile boundary
        GemmShape{40, 40, 0, 0},    // k = 0 must be a no-op
        GemmShape{300, 20, 270, 2},  // k crosses kKC, m crosses kMC
        GemmShape{20, 550, 12, 0})); // n crosses kNC

// ---- factorizations and TRSMs vs reference ------------------------------

class FactorBlockedVsRef : public ::testing::TestWithParam<index_t> {};

TEST_P(FactorBlockedVsRef, GetrfMatches) {
  const index_t n = GetParam();
  const index_t lda = n + 3;
  Rng rng(static_cast<std::uint64_t>(n) * 101 + 5);
  const auto a0 = random_dominant(n, lda, rng);
  auto a_blocked = a0;
  dense::getrf_nopiv(n, a_blocked.data(), lda);
  auto a_ref = a0;
  dense::ref::getrf_nopiv(n, a_ref.data(), lda);
  expect_matrices_near(a_blocked, a_ref, n, n, lda,
                       1e-11 * static_cast<real_t>(n));
}

TEST_P(FactorBlockedVsRef, TrsmVariantsMatch) {
  const index_t n = GetParam();
  const index_t m = n / 2 + 5;  // non-square right-hand sides
  Rng rng(static_cast<std::uint64_t>(n) * 107 + 11);
  const index_t lda = n + 2;
  const auto a = random_dominant(n, lda, rng);

  {  // left lower unit: B is n x m
    const index_t ldb = n + 4;
    const auto b0 = random_matrix(n, m, ldb, rng);
    auto b_blocked = b0;
    dense::trsm_left_lower_unit(n, m, a.data(), lda, b_blocked.data(), ldb);
    auto b_ref = b0;
    dense::ref::trsm_left_lower_unit(n, m, a.data(), lda, b_ref.data(), ldb);
    expect_matrices_near(b_blocked, b_ref, n, m, ldb,
                         1e-11 * static_cast<real_t>(n));
  }
  {  // right upper: B is m x n
    const index_t ldb = m + 4;
    const auto b0 = random_matrix(m, n, ldb, rng);
    auto b_blocked = b0;
    dense::trsm_right_upper(n, m, a.data(), lda, b_blocked.data(), ldb);
    auto b_ref = b0;
    dense::ref::trsm_right_upper(n, m, a.data(), lda, b_ref.data(), ldb);
    expect_matrices_near(b_blocked, b_ref, m, n, ldb,
                         1e-11 * static_cast<real_t>(n));
  }
}

// Naive per-column oracle for the solve-path left TRSM (operates on one
// contiguous column of length n).
void trsv_left_upper_ref(index_t n, const real_t* a, index_t lda, real_t* x) {
  for (index_t k = n - 1; k >= 0; --k) {
    real_t v = x[k];
    for (index_t i = k + 1; i < n; ++i)
      v -= a[static_cast<std::size_t>(k) +
             static_cast<std::size_t>(i) * static_cast<std::size_t>(lda)] *
           x[i];
    x[k] = v / a[static_cast<std::size_t>(k) * (static_cast<std::size_t>(lda) + 1)];
  }
}

TEST_P(FactorBlockedVsRef, SolvePathLeftTrsmsMatchColumnOracle) {
  const index_t n = GetParam();
  const index_t m = n / 2 + 3;
  Rng rng(static_cast<std::uint64_t>(n) * 109 + 13);
  const index_t lda = n + 2;
  const auto a = random_dominant(n, lda, rng);
  const index_t ldb = n + 4;
  const auto b0 = random_matrix(n, m, ldb, rng);

  auto b_panel = b0;
  dense::trsm_left_upper(n, m, a.data(), lda, b_panel.data(), ldb);
  auto b_ref = b0;
  for (index_t j = 0; j < m; ++j) {
    std::vector<real_t> col(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i)
      col[static_cast<std::size_t>(i)] =
          b_ref[static_cast<std::size_t>(i) +
                static_cast<std::size_t>(j) * static_cast<std::size_t>(ldb)];
    trsv_left_upper_ref(n, a.data(), lda, col.data());
    for (index_t i = 0; i < n; ++i)
      b_ref[static_cast<std::size_t>(i) +
            static_cast<std::size_t>(j) * static_cast<std::size_t>(ldb)] =
          col[static_cast<std::size_t>(i)];
  }
  expect_matrices_near(b_panel, b_ref, n, m, ldb,
                       1e-10 * static_cast<real_t>(n));
}

// Sizes straddle the substrate's blocking parameters: within one
// triangular block (kTB = 64), exactly at it, just past it, past two
// blocks, and past the kKC/kMC cache blocks with a ragged remainder.
INSTANTIATE_TEST_SUITE_P(SweepAcrossBlockBoundaries, FactorBlockedVsRef,
                         ::testing::Values(1, 2, 7, 63, 64, 65, 100, 128, 129,
                                           200, 257));

// ---- flop audit: kernels self-report their model formulas ---------------

TEST(FlopAudit, KernelsReportCanonicalCounts) {
  Rng rng(42);
  const index_t n = 96, m = 40, k = 33;
  const auto a = random_dominant(n, n, rng);
  auto b = random_matrix(n, m, n, rng);
  auto c = random_matrix(n, m, n, rng);

  dense::reset_flops_performed();
  EXPECT_EQ(dense::flops_performed(), 0);

  auto lu = a;
  dense::getrf_nopiv(n, lu.data(), n);
  EXPECT_EQ(dense::flops_performed(), dense::getrf_flops(n));

  dense::reset_flops_performed();
  dense::trsm_left_lower_unit(n, m, lu.data(), n, b.data(), n);
  EXPECT_EQ(dense::flops_performed(), dense::trsm_flops(n, m));

  dense::reset_flops_performed();
  dense::trsm_right_upper(m, n, lu.data(), n, c.data(), n);
  EXPECT_EQ(dense::flops_performed(), dense::trsm_flops(m, n));

  dense::reset_flops_performed();
  dense::trsm_left_upper(n, m, lu.data(), n, b.data(), n);
  EXPECT_EQ(dense::flops_performed(), dense::trsm_flops(n, m));

  dense::reset_flops_performed();
  dense::gemm_minus(m, m, k, a.data(), n, a.data(), n, c.data(), n);
  EXPECT_EQ(dense::flops_performed(), dense::gemm_flops(m, m, k));

  // Degenerate extents must not be charged.
  dense::reset_flops_performed();
  dense::gemm_minus(m, m, 0, a.data(), n, a.data(), n, c.data(), n);
  EXPECT_EQ(dense::flops_performed(), 0);
}

}  // namespace
}  // namespace slu3d
