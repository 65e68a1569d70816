#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "numeric/dense_kernels.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace slu3d {
namespace {

/// Column-major dense helper.
struct Dense {
  index_t rows, cols;
  std::vector<real_t> a;
  Dense(index_t r, index_t c) : rows(r), cols(c), a(static_cast<std::size_t>(r) * static_cast<std::size_t>(c), 0.0) {}
  real_t& operator()(index_t i, index_t j) {
    return a[static_cast<std::size_t>(i) + static_cast<std::size_t>(j) * static_cast<std::size_t>(rows)];
  }
  real_t operator()(index_t i, index_t j) const {
    return a[static_cast<std::size_t>(i) + static_cast<std::size_t>(j) * static_cast<std::size_t>(rows)];
  }
};

Dense random_dominant(index_t n, Rng& rng) {
  Dense d(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) d(i, j) = rng.uniform(-1, 1);
  for (index_t i = 0; i < n; ++i) d(i, i) += static_cast<real_t>(n) + 1.0;
  return d;
}

Dense matmul(const Dense& x, const Dense& y) {
  Dense z(x.rows, y.cols);
  for (index_t j = 0; j < y.cols; ++j)
    for (index_t k = 0; k < x.cols; ++k)
      for (index_t i = 0; i < x.rows; ++i) z(i, j) += x(i, k) * y(k, j);
  return z;
}

class GetrfSizes : public ::testing::TestWithParam<index_t> {};

TEST_P(GetrfSizes, ReconstructsA) {
  const index_t n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 77 + 1);
  const Dense A0 = random_dominant(n, rng);
  Dense A = A0;
  dense::getrf_nopiv(n, A.a.data(), n);
  // Extract L (unit lower) and U, multiply back.
  Dense L(n, n), U(n, n);
  for (index_t j = 0; j < n; ++j) {
    L(j, j) = 1.0;
    for (index_t i = j + 1; i < n; ++i) L(i, j) = A(i, j);
    for (index_t i = 0; i <= j; ++i) U(i, j) = A(i, j);
  }
  const Dense P = matmul(L, U);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i)
      EXPECT_NEAR(P(i, j), A0(i, j), 1e-9 * static_cast<real_t>(n));
}

INSTANTIATE_TEST_SUITE_P(SweepIncludingBlockBoundaries, GetrfSizes,
                         ::testing::Values(1, 2, 3, 7, 16, 47, 48, 49, 96, 131));

TEST(Getrf, ThrowsOnSingular) {
  Dense A(2, 2);
  A(0, 0) = 1.0;
  A(0, 1) = 2.0;
  A(1, 0) = 2.0;
  A(1, 1) = 4.0;  // exactly singular, zero pivot appears at step 2
  EXPECT_THROW(dense::getrf_nopiv(2, A.a.data(), 2, 1e-12), Error);
}

TEST(TrsmLeftLowerUnit, SolvesAgainstReference) {
  const index_t n = 23, m = 9;
  Rng rng(3);
  Dense A = random_dominant(n, rng);
  Dense B(n, m);
  for (index_t j = 0; j < m; ++j)
    for (index_t i = 0; i < n; ++i) B(i, j) = rng.uniform(-1, 1);
  Dense X = B;
  dense::trsm_left_lower_unit(n, m, A.a.data(), n, X.a.data(), n);
  // Check L * X == B with L = unit lower of A.
  for (index_t j = 0; j < m; ++j)
    for (index_t i = 0; i < n; ++i) {
      real_t acc = X(i, j);
      for (index_t k = 0; k < i; ++k) acc += A(i, k) * X(k, j);
      EXPECT_NEAR(acc, B(i, j), 1e-10);
    }
}

TEST(TrsmRightUpper, SolvesAgainstReference) {
  const index_t n = 19, m = 7;
  Rng rng(5);
  Dense A = random_dominant(n, rng);
  Dense B(m, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) B(i, j) = rng.uniform(-1, 1);
  Dense X = B;
  dense::trsm_right_upper(n, m, A.a.data(), n, X.a.data(), m);
  // Check X * U == B with U = upper of A (incl. diagonal).
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      real_t acc = 0;
      for (index_t k = 0; k <= j; ++k) acc += X(i, k) * A(k, j);
      EXPECT_NEAR(acc, B(i, j), 1e-10);
    }
}

TEST(GemmMinus, MatchesReference) {
  const index_t m = 13, n = 11, k = 17;
  Rng rng(7);
  Dense A(m, k), B(k, n), C(m, n);
  for (auto* d : {&A, &B, &C})
    for (auto& v : d->a) v = rng.uniform(-1, 1);
  Dense C0 = C;
  dense::gemm_minus(m, n, k, A.a.data(), m, B.a.data(), k, C.a.data(), m);
  const Dense AB = matmul(A, B);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      EXPECT_NEAR(C(i, j), C0(i, j) - AB(i, j), 1e-12);
}

TEST(GemmMinus, HandlesEmptyExtents) {
  std::vector<real_t> a{1}, b{1}, c{1};
  dense::gemm_minus(0, 0, 0, a.data(), 1, b.data(), 1, c.data(), 1);
  dense::gemm_minus(1, 1, 0, a.data(), 1, b.data(), 1, c.data(), 1);
  EXPECT_DOUBLE_EQ(c[0], 1.0);
}

TEST(Trsv, LowerThenUpperSolvesSystem) {
  const index_t n = 31;
  Rng rng(9);
  Dense A0 = random_dominant(n, rng);
  Dense A = A0;
  dense::getrf_nopiv(n, A.a.data(), n);
  std::vector<real_t> x(static_cast<std::size_t>(n)), b(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    x[static_cast<std::size_t>(i)] = rng.uniform(-1, 1);
  // b = A0 * x
  for (index_t i = 0; i < n; ++i) {
    real_t acc = 0;
    for (index_t j = 0; j < n; ++j) acc += A0(i, j) * x[static_cast<std::size_t>(j)];
    b[static_cast<std::size_t>(i)] = acc;
  }
  dense::trsv_lower_unit(n, A.a.data(), n, b.data());
  dense::trsv_upper(n, A.a.data(), n, b.data());
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(b[static_cast<std::size_t>(i)], x[static_cast<std::size_t>(i)], 1e-9);
}

TEST(TrsvLowerVariants, RoundTrip) {
  // The unit-lower solves read only the strict lower part: the diagonal and
  // upper part hold U, as in a GETRF-packed supernode, and must be ignored.
  const index_t n = 21;
  Rng rng(9);
  Dense A(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i)
      A(i, j) = i > j ? rng.uniform(-0.3, 0.3) : rng.uniform(1, 2);
  auto L = [&](index_t i, index_t j) { return i == j ? 1.0 : i > j ? A(i, j) : 0.0; };
  std::vector<real_t> x(static_cast<std::size_t>(n)), t(static_cast<std::size_t>(n)),
      y(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform(-1, 1);
  // y = L L^T x, then undo L and L^T in turn.
  for (index_t i = 0; i < n; ++i) {
    real_t acc = 0;
    for (index_t k = i; k < n; ++k) acc += L(k, i) * x[static_cast<std::size_t>(k)];
    t[static_cast<std::size_t>(i)] = acc;
  }
  for (index_t i = 0; i < n; ++i) {
    real_t acc = 0;
    for (index_t j = 0; j <= i; ++j) acc += L(i, j) * t[static_cast<std::size_t>(j)];
    y[static_cast<std::size_t>(i)] = acc;
  }
  dense::trsv_lower_unit(n, A.a.data(), n, y.data());
  dense::trsv_lower_unit_trans(n, A.a.data(), n, y.data());
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], x[static_cast<std::size_t>(i)], 1e-9);
}

TEST(FlopCounts, BasicFormulas) {
  EXPECT_EQ(dense::getrf_flops(3), 18);
  EXPECT_EQ(dense::trsm_flops(2, 5), 20);
  EXPECT_EQ(dense::gemm_flops(2, 3, 4), 48);
}

}  // namespace
}  // namespace slu3d
