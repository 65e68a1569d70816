// Pattern fingerprints: hashes of a CSR sparsity pattern that key the
// service's and the fleet's caches of pattern-derived artifacts.
#pragma once

#include <cstdint>

#include "sparse/csr.hpp"

namespace slu3d {

/// Hash of the sparsity *pattern* only (dimensions, row pointers, column
/// indices — never values). Two matrices with identical patterns but
/// different values hash equal, so the hash can key caches of
/// pattern-derived artifacts (orderings, symbolic structures, resident
/// factor layouts) across repeated solves.
std::uint64_t pattern_fingerprint(const CsrMatrix& A);

/// Salted variant of pattern_fingerprint: the same mix over the same
/// pattern data, but seeded with `salt` so the stream is statistically
/// independent of the unsalted hash. Caches that must survive a primary
/// fingerprint collision (distinct patterns, equal hash) keep a salted
/// secondary per entry and require both to match.
std::uint64_t pattern_fingerprint(const CsrMatrix& A, std::uint64_t salt);

}  // namespace slu3d
