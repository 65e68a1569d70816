#include "sparse/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>

#include "support/check.hpp"

namespace slu3d {

namespace {
std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}
}  // namespace

CsrMatrix read_matrix_market(std::istream& in) {
  std::string line;
  SLU3D_CHECK(static_cast<bool>(std::getline(in, line)), "empty stream");
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  SLU3D_CHECK(banner == "%%MatrixMarket", "missing MatrixMarket banner");
  SLU3D_CHECK(lower(object) == "matrix" && lower(format) == "coordinate",
              "only 'matrix coordinate' supported");
  field = lower(field);
  symmetry = lower(symmetry);
  SLU3D_CHECK(field == "real" || field == "integer" || field == "pattern",
              "unsupported field type: " + field);
  SLU3D_CHECK(symmetry == "general" || symmetry == "symmetric",
              "unsupported symmetry: " + symmetry);

  // Skip comments.
  do {
    SLU3D_CHECK(static_cast<bool>(std::getline(in, line)), "truncated header");
  } while (!line.empty() && line[0] == '%');

  std::istringstream dims(line);
  long long nr = 0, nc = 0, nnz = 0;
  dims >> nr >> nc >> nnz;
  SLU3D_CHECK(static_cast<bool>(dims) && nr > 0 && nc > 0 && nnz >= 0,
              "bad size line");
  constexpr long long kMaxDim = std::numeric_limits<index_t>::max();
  SLU3D_CHECK(nr <= kMaxDim && nc <= kMaxDim,
              "size line: dimensions exceed the 32-bit index range");
  // nr * nc <= (2^31 - 1)^2 cannot overflow a long long.
  SLU3D_CHECK(nnz <= nr * nc, "size line: more entries than matrix cells");

  // The header's nnz is only a claim: reserve a bounded prefix up front, so
  // a file that overstates it fails at "truncated entry list" instead of
  // allocating for entries that never arrive.
  constexpr long long kMaxReserve = 1 << 20;
  const auto expected = static_cast<std::size_t>(std::min(nnz, kMaxReserve));
  CooMatrix coo(static_cast<index_t>(nr), static_cast<index_t>(nc));
  coo.reserve(symmetry == "symmetric" ? 2 * expected : expected);
  for (long long k = 0; k < nnz; ++k) {
    long long i = 0, j = 0;
    double v = 1.0;
    in >> i >> j;
    if (field != "pattern") in >> v;
    SLU3D_CHECK(static_cast<bool>(in), "truncated entry list");
    SLU3D_CHECK(i >= 1 && i <= nr && j >= 1 && j <= nc, "entry out of range");
    coo.add(static_cast<index_t>(i - 1), static_cast<index_t>(j - 1), v);
    if (symmetry == "symmetric" && i != j)
      coo.add(static_cast<index_t>(j - 1), static_cast<index_t>(i - 1), v);
  }
  return CsrMatrix::from_coo(coo);
}

CsrMatrix read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  SLU3D_CHECK(in.good(), "cannot open " + path);
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const CsrMatrix& A) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << A.n_rows() << ' ' << A.n_cols() << ' ' << A.nnz() << '\n';
  out.precision(17);
  for (index_t r = 0; r < A.n_rows(); ++r) {
    const auto cols = A.row_cols(r);
    const auto vals = A.row_vals(r);
    for (std::size_t k = 0; k < cols.size(); ++k)
      out << (r + 1) << ' ' << (cols[k] + 1) << ' ' << vals[k] << '\n';
  }
}

void write_matrix_market_file(const std::string& path, const CsrMatrix& A) {
  std::ofstream out(path);
  SLU3D_CHECK(out.good(), "cannot open " + path);
  write_matrix_market(out, A);
}

}  // namespace slu3d
