#include "sparse/fingerprint.hpp"

namespace slu3d {

namespace {

struct FingerprintMixer {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  void mix(std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
};

}  // namespace

std::uint64_t pattern_fingerprint(const CsrMatrix& A) {
  FingerprintMixer m;
  m.mix(static_cast<std::uint64_t>(A.n_rows()));
  m.mix(static_cast<std::uint64_t>(A.n_cols()));
  for (const offset_t p : A.row_ptr()) m.mix(static_cast<std::uint64_t>(p));
  for (const index_t c : A.col_idx()) m.mix(static_cast<std::uint64_t>(c));
  return m.h;
}

std::uint64_t pattern_fingerprint(const CsrMatrix& A, std::uint64_t salt) {
  FingerprintMixer m;
  m.mix(salt);
  m.mix(static_cast<std::uint64_t>(A.n_rows()));
  m.mix(static_cast<std::uint64_t>(A.n_cols()));
  for (const offset_t p : A.row_ptr()) m.mix(static_cast<std::uint64_t>(p));
  for (const index_t c : A.col_idx()) m.mix(static_cast<std::uint64_t>(c));
  return m.h;
}

}  // namespace slu3d
