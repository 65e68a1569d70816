#include "sparse/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <vector>

#include "support/check.hpp"

namespace slu3d {

namespace {
std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// Whitespace-separated fields of one line.
std::vector<std::string_view> fields(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t k = 0;
  while (true) {
    while (k < line.size() && std::isspace(static_cast<unsigned char>(line[k]))) ++k;
    if (k == line.size()) return out;
    const std::size_t first = k;
    while (k < line.size() && !std::isspace(static_cast<unsigned char>(line[k]))) ++k;
    out.push_back(line.substr(first, k - first));
  }
}

/// Parses the whole of `token` as a T (from_chars rejects a leading '+',
/// which the format allows); false on any other text or an out-of-range
/// value.
template <class T>
bool parse_number(std::string_view token, T& out) {
  if (token.size() > 1 && token[0] == '+' && token[1] != '-') token.remove_prefix(1);
  const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), out);
  return ec == std::errc{} && end == token.data() + token.size();
}

/// Reads lines and numbers them the way Platform::parse reports them.
struct LineReader {
  LineReader(std::istream& stream, long long lines_read)
      : in(stream), number(lines_read) {}

  std::istream& in;
  std::string line;
  long long number = 0;

  /// Fields of the next line that has any; empty at the end of input.
  std::vector<std::string_view> next_fields() {
    while (std::getline(in, line)) {
      ++number;
      if (auto f = fields(line); !f.empty()) return f;
    }
    return {};
  }
  std::string where() const { return " (line " + std::to_string(number) + ")"; }
};
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
  const bool symmetric = symmetry == "symmetric";

  // Skip comments and blank lines; the banner was line 1.
  LineReader lr(in, 1);
  std::vector<std::string_view> dims;
  do {
    dims = lr.next_fields();
    SLU3D_CHECK(!dims.empty(), "truncated header");
  } while (dims.front().front() == '%');
  long long nr = 0, nc = 0, nnz = 0;
  SLU3D_CHECK(dims.size() == 3 && parse_number(dims[0], nr) &&
                  parse_number(dims[1], nc) && parse_number(dims[2], nnz) &&
                  nr > 0 && nc > 0 && nnz >= 0,
              "bad size line" + lr.where());
  constexpr long long kMaxDim = std::numeric_limits<index_t>::max();
  SLU3D_CHECK(nr <= kMaxDim && nc <= kMaxDim,
              "size line: dimensions exceed the 32-bit index range" + lr.where());
  // nr * nc <= (2^31 - 1)^2 cannot overflow a long long, nor can twice an
  // nnz below it.
  SLU3D_CHECK(nnz <= nr * nc,
              "size line: more entries than matrix cells" + lr.where());
  // Each entry touches one row and one column, or two of each when it is
  // mirrored. A size line that claims more leaves a row or column empty,
  // so the matrix is singular; rejecting it here also keeps the row
  // pointers from_coo allocates bounded by the entries actually read.
  const long long touchable = symmetric ? 2 * nnz : nnz;
  SLU3D_CHECK(nr <= touchable && nc <= touchable,
              "size line: " + std::to_string(nr) + " x " + std::to_string(nc) +
                  " but " + std::to_string(nnz) +
                  " entries leave a row or column empty" + lr.where());

  // The header's nnz is only a claim: reserve a bounded prefix up front, so
  // a file that overstates it fails at "truncated entry list" instead of
  // allocating for entries that never arrive.
  constexpr long long kMaxReserve = 1 << 20;
  const auto expected = static_cast<std::size_t>(std::min(nnz, kMaxReserve));
  CooMatrix coo(static_cast<index_t>(nr), static_cast<index_t>(nc));
  coo.reserve(symmetric ? 2 * expected : expected);
  const std::size_t want = field == "pattern" ? 2 : 3;
  for (long long k = 0; k < nnz; ++k) {
    const auto f = lr.next_fields();
    SLU3D_CHECK(!f.empty(), "truncated entry list: " + std::to_string(k) +
                                " of " + std::to_string(nnz) +
                                " entries before end of input");
    SLU3D_CHECK(f.size() == want,
                "malformed entry: " + std::to_string(f.size()) +
                    " fields, expected " + std::to_string(want) + lr.where());
    long long i = 0, j = 0;
    double v = 1.0;
    SLU3D_CHECK(parse_number(f[0], i) && parse_number(f[1], j),
                "malformed entry: bad index" + lr.where());
    SLU3D_CHECK(want == 2 || (parse_number(f[2], v) && std::isfinite(v)),
                "malformed entry: bad or non-finite value '" +
                    std::string(f[want - 1]) + "'" + lr.where());
    SLU3D_CHECK(i >= 1 && i <= nr && j >= 1 && j <= nc,
                "entry out of range" + lr.where());
    coo.add(static_cast<index_t>(i - 1), static_cast<index_t>(j - 1), v);
    if (symmetric && i != j)
      coo.add(static_cast<index_t>(j - 1), static_cast<index_t>(i - 1), v);
  }
  SLU3D_CHECK(lr.next_fields().empty(),
              "more entries than the size line declares" + lr.where());
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
