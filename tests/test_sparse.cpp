#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/fingerprint.hpp"
#include "sparse/generators.hpp"
#include "sparse/matrix_market.hpp"
#include "support/check.hpp"

namespace slu3d {
namespace {

CsrMatrix small_example() {
  // [ 4 -1  0 ]
  // [-1  4 -2 ]
  // [ 0  0  3 ]
  CooMatrix coo(3, 3);
  coo.add(0, 0, 4);
  coo.add(0, 1, -1);
  coo.add(1, 0, -1);
  coo.add(1, 1, 4);
  coo.add(1, 2, -2);
  coo.add(2, 2, 3);
  return CsrMatrix::from_coo(coo);
}

TEST(Csr, FromCooSortsAndStores) {
  const CsrMatrix A = small_example();
  EXPECT_EQ(A.n_rows(), 3);
  EXPECT_EQ(A.nnz(), 6);
  EXPECT_DOUBLE_EQ(A.at(0, 0), 4);
  EXPECT_DOUBLE_EQ(A.at(1, 2), -2);
  EXPECT_DOUBLE_EQ(A.at(2, 0), 0);  // absent entry
}

TEST(Csr, FromCooSumsDuplicates) {
  CooMatrix coo(2, 2);
  coo.add(0, 1, 1.5);
  coo.add(0, 1, 2.5);
  coo.add(1, 0, -1);
  const CsrMatrix A = CsrMatrix::from_coo(coo);
  EXPECT_EQ(A.nnz(), 2);
  EXPECT_DOUBLE_EQ(A.at(0, 1), 4.0);
}

TEST(Csr, FromCooRejectsOutOfRange) {
  CooMatrix coo(2, 2);
  coo.add(0, 5, 1.0);
  EXPECT_THROW(CsrMatrix::from_coo(coo), Error);
}

TEST(Csr, RowAccessorsAreConsistent) {
  const CsrMatrix A = small_example();
  const auto cols = A.row_cols(1);
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_EQ(cols[0], 0);
  EXPECT_EQ(cols[2], 2);
  EXPECT_EQ(A.row_nnz(2), 1);
}

TEST(Csr, SpmvMatchesManual) {
  const CsrMatrix A = small_example();
  const std::vector<real_t> x{1, 2, 3};
  std::vector<real_t> y(3);
  A.spmv(x, y);
  EXPECT_DOUBLE_EQ(y[0], 4 * 1 - 1 * 2);
  EXPECT_DOUBLE_EQ(y[1], -1 + 8 - 6);
  EXPECT_DOUBLE_EQ(y[2], 9);
}

TEST(Csr, TransposeRoundTrip) {
  const CsrMatrix A = small_example();
  const CsrMatrix T = A.transposed();
  EXPECT_DOUBLE_EQ(T.at(0, 1), -1);
  EXPECT_DOUBLE_EQ(T.at(2, 1), -2);
  const CsrMatrix B = T.transposed();
  for (index_t i = 0; i < 3; ++i)
    for (index_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(A.at(i, j), B.at(i, j));
}

TEST(Csr, SymmetrizedPatternAddsTransposePositions) {
  const CsrMatrix A = small_example();
  EXPECT_FALSE(A.pattern_is_symmetric());
  const CsrMatrix S = A.symmetrized_pattern();
  EXPECT_TRUE(S.pattern_is_symmetric());
  EXPECT_DOUBLE_EQ(S.at(2, 1), 0.0);  // structural zero at transpose position
  EXPECT_EQ(S.row_nnz(2), 2);         // gained (2,1)
  // Values of A are preserved.
  EXPECT_DOUBLE_EQ(S.at(1, 2), -2.0);
}

TEST(Csr, PermutedSymmetricRelocatesEntries) {
  const CsrMatrix A = small_example();
  const std::vector<index_t> perm{2, 0, 1};  // new k <- old perm[k]
  const CsrMatrix B = A.permuted_symmetric(perm);
  // B(pinv[i], pinv[j]) == A(i, j); pinv = {1, 2, 0}.
  for (index_t i = 0; i < 3; ++i)
    for (index_t j = 0; j < 3; ++j) {
      const std::vector<index_t> pinv{1, 2, 0};
      EXPECT_DOUBLE_EQ(B.at(pinv[static_cast<std::size_t>(i)],
                            pinv[static_cast<std::size_t>(j)]),
                       A.at(i, j));
    }
}

TEST(Csr, NormInf) {
  const CsrMatrix A = small_example();
  EXPECT_DOUBLE_EQ(A.norm_inf(), 7.0);  // row 1: 1 + 4 + 2
}

TEST(Permutation, InvertAndValidate) {
  const std::vector<index_t> perm{2, 0, 3, 1};
  EXPECT_TRUE(is_permutation(perm));
  const auto pinv = invert_permutation(perm);
  for (std::size_t k = 0; k < perm.size(); ++k)
    EXPECT_EQ(pinv[static_cast<std::size_t>(perm[k])], static_cast<index_t>(k));
  EXPECT_FALSE(is_permutation(std::vector<index_t>{0, 0, 1}));
  EXPECT_FALSE(is_permutation(std::vector<index_t>{0, 5}));
}

TEST(MatrixMarket, RoundTripGeneral) {
  const CsrMatrix A = small_example();
  std::stringstream ss;
  write_matrix_market(ss, A);
  const CsrMatrix B = read_matrix_market(ss);
  ASSERT_EQ(B.n_rows(), A.n_rows());
  ASSERT_EQ(B.nnz(), A.nnz());
  for (index_t i = 0; i < 3; ++i)
    for (index_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(A.at(i, j), B.at(i, j));
}

TEST(MatrixMarket, ReadsSymmetricExpanded) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real symmetric\n"
     << "% a comment line\n"
     << "3 3 4\n"
     << "1 1 2.0\n2 1 -1.0\n2 2 2.0\n3 3 1.0\n";
  const CsrMatrix A = read_matrix_market(ss);
  EXPECT_EQ(A.nnz(), 5);  // off-diagonal mirrored
  EXPECT_DOUBLE_EQ(A.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(A.at(1, 0), -1.0);
}

TEST(MatrixMarket, ReadsPatternAsOnes) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate pattern general\n"
     << "2 2 2\n"
     << "1 1\n2 2\n";
  const CsrMatrix A = read_matrix_market(ss);
  EXPECT_DOUBLE_EQ(A.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(A.at(1, 1), 1.0);
}

TEST(MatrixMarket, RejectsGarbage) {
  std::stringstream ss;
  ss << "not a matrix market file\n";
  EXPECT_THROW(read_matrix_market(ss), Error);
}

/// Parses a MatrixMarket stream given its banner and the rest of the text.
CsrMatrix read_mm(const std::string& banner, const std::string& body) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate " << banner << "\n" << body;
  return read_matrix_market(ss);
}

TEST(MatrixMarket, RejectsUnrepresentableSizeLines) {
  // 4294967301 = 2^32 + 5 would narrow to a 5 x 5 matrix.
  EXPECT_THROW(read_mm("real general",
                       "4294967301 4294967301 2\n"
                       "1 1 1.0\n4294967301 4294967301 1.0\n"),
               Error);
  // More entries than cells: caught before any reservation.
  EXPECT_THROW(read_mm("real general", "2 2 1000000000000000\n"), Error);
  EXPECT_THROW(read_mm("real symmetric",
                       "2147483647 2147483647 5000000000000000000\n"),
               Error);
}

TEST(MatrixMarket, OverstatedEntryCountFailsAsTruncated) {
  // A plausible header (nnz <= rows * cols) whose entries never arrive: the
  // up-front reservation must not trust it.
  try {
    read_mm("real symmetric", "3000000 3000000 9000000000000\n1 1 1.0\n");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated entry list"),
              std::string::npos)
        << e.what();
  }
}

/// The message of the Error `read_mm(banner, body)` throws ("" if none).
std::string mm_error(const std::string& banner, const std::string& body) {
  try {
    read_mm(banner, body);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(MatrixMarket, ReportsMalformedEntriesByLine) {
  const std::string head = "% comment\n2 2 3\n1 1 1.0\n";
  // A bad value is malformed, not missing, and the error names its line.
  for (const char* v : {"nan", "1e400", "x", "inf"}) {
    const std::string msg =
        mm_error("real general", head + "2 1 " + v + "\n2 2 1.0\n");
    EXPECT_NE(msg.find("malformed entry"), std::string::npos) << v << ": " << msg;
    EXPECT_NE(msg.find("(line 5)"), std::string::npos) << v << ": " << msg;
  }
  // A fourth field does not shift the later entries.
  const std::string extra =
      mm_error("real general", head + "2 1 1.0 7\n2 2 1.0\n");
  EXPECT_NE(extra.find("malformed entry: 4 fields, expected 3 (line 5)"),
            std::string::npos)
      << extra;
  // Pattern entries carry exactly two fields.
  EXPECT_NE(mm_error("pattern general", "2 2 2\n1 1\n2 2 1.0\n")
                .find("malformed entry: 3 fields, expected 2 (line 4)"),
            std::string::npos);
  // A missing entry is still reported as a truncation.
  EXPECT_NE(mm_error("real general", head + "2 2 1.0\n").find("truncated entry list"),
            std::string::npos);
  // So is a surplus one, against the declared count.
  EXPECT_NE(mm_error("real general", head + "2 1 1.0\n2 2 1.0\n1 2 1.0\n")
                .find("more entries than the size line declares (line 7)"),
            std::string::npos);
  // Blank lines are allowed anywhere after the banner, and '+' signs too.
  const CsrMatrix A = read_mm("real general", "\n2 2 2\n\n+1 1 +2.5\n2 2 1e0\n\n");
  EXPECT_DOUBLE_EQ(A.at(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(A.at(1, 1), 1.0);
}

TEST(MatrixMarket, RejectsSizeLinesThatLeaveARowEmpty) {
  // 3 entries reach at most 3 rows and 3 columns (6 when mirrored).
  EXPECT_NE(mm_error("real general", "4 3 3\n1 1 1.0\n2 2 1.0\n3 3 1.0\n")
                .find("leave a row or column empty (line 2)"),
            std::string::npos);
  EXPECT_THROW(read_mm("real general", "1000 1000 1\n1 1 1.0\n"), Error);
  EXPECT_THROW(read_mm("real general", "1 1 0\n"), Error);
  // A mirrored entry reaches two rows: 2 x 2 from one off-diagonal entry.
  const CsrMatrix A = read_mm("real symmetric", "2 2 1\n2 1 3.0\n");
  EXPECT_EQ(A.nnz(), 2);
  EXPECT_THROW(read_mm("real symmetric", "3 3 1\n2 1 3.0\n"), Error);
}

TEST(Fingerprint, PatternOnlyIgnoresValuesAndSeesStructure) {
  const GridGeometry g{8, 8, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);

  // Same pattern, different values -> same fingerprint (this is what lets
  // a service key refactorization caches on it).
  auto vals = std::vector<real_t>(A.values().begin(), A.values().end());
  for (auto& v : vals) v *= 1.75;
  const CsrMatrix A2 = CsrMatrix::from_raw(
      A.n_rows(), A.n_cols(),
      std::vector<offset_t>(A.row_ptr().begin(), A.row_ptr().end()),
      std::vector<index_t>(A.col_idx().begin(), A.col_idx().end()),
      std::move(vals));
  EXPECT_EQ(pattern_fingerprint(A), pattern_fingerprint(A2));

  // Different pattern -> different fingerprint.
  const CsrMatrix B = grid2d_laplacian(g, Stencil2D::NinePoint);
  const CsrMatrix C = grid2d_laplacian(GridGeometry{8, 9, 1},
                                       Stencil2D::FivePoint);
  EXPECT_NE(pattern_fingerprint(A), pattern_fingerprint(B));
  EXPECT_NE(pattern_fingerprint(A), pattern_fingerprint(C));
}

}  // namespace
}  // namespace slu3d
