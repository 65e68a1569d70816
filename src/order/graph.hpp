// Undirected adjacency view shared by the ordering algorithms.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace slu3d::order_detail {

/// Adjacency of A + Aᵀ without the diagonal, in CSR form.
struct Adjacency {
  std::vector<offset_t> ptr;
  std::vector<index_t> adj;

  index_t n() const { return static_cast<index_t>(ptr.size()) - 1; }
  std::span<const index_t> neighbors(index_t v) const {
    return std::span<const index_t>(adj).subspan(
        static_cast<std::size_t>(ptr[static_cast<std::size_t>(v)]),
        static_cast<std::size_t>(ptr[static_cast<std::size_t>(v) + 1] -
                                 ptr[static_cast<std::size_t>(v)]));
  }
};

inline Adjacency build_adjacency(const CsrMatrix& A) {
  std::optional<CsrMatrix> symmetrized;  // empty when A is already symmetric
  if (!A.pattern_is_symmetric()) symmetrized = A.symmetrized_pattern();
  const CsrMatrix& S = symmetrized ? *symmetrized : A;
  Adjacency g;
  g.ptr.assign(static_cast<std::size_t>(S.n_rows()) + 1, 0);
  g.adj.reserve(static_cast<std::size_t>(S.nnz()));
  for (index_t r = 0; r < S.n_rows(); ++r) {
    for (index_t c : S.row_cols(r))
      if (c != r) g.adj.push_back(c);
    g.ptr[static_cast<std::size_t>(r) + 1] = static_cast<offset_t>(g.adj.size());
  }
  return g;
}

/// Weighted graph used by the multilevel coarsening hierarchy.
struct WeightedGraph {
  std::vector<offset_t> ptr;       // CSR adjacency
  std::vector<index_t> adj;
  std::vector<index_t> eweight;    // per adjacency entry
  std::vector<index_t> vweight;    // per vertex

  index_t n() const { return static_cast<index_t>(vweight.size()); }
  offset_t begin(index_t v) const { return ptr[static_cast<std::size_t>(v)]; }
  offset_t end(index_t v) const { return ptr[static_cast<std::size_t>(v) + 1]; }
};

}  // namespace slu3d::order_detail
