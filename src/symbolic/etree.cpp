#include "symbolic/etree.hpp"

#include <algorithm>
#include <optional>

#include "support/check.hpp"

namespace slu3d {

std::vector<index_t> elimination_tree(const CsrMatrix& A) {
  SLU3D_CHECK(A.n_rows() == A.n_cols(), "etree needs square A");
  std::optional<CsrMatrix> symmetrized;  // empty when A is already symmetric
  if (!A.pattern_is_symmetric()) symmetrized = A.symmetrized_pattern();
  const CsrMatrix& S = symmetrized ? *symmetrized : A;
  const index_t n = S.n_rows();
  std::vector<index_t> parent(static_cast<std::size_t>(n), -1);
  std::vector<index_t> ancestor(static_cast<std::size_t>(n), -1);  // path compression
  for (index_t i = 0; i < n; ++i) {
    for (index_t j : S.row_cols(i)) {
      if (j >= i) break;  // only the lower triangle drives the tree
      // Walk from j to the root of its current subtree, compressing.
      index_t v = j;
      while (ancestor[static_cast<std::size_t>(v)] != -1 &&
             ancestor[static_cast<std::size_t>(v)] != i) {
        const index_t next = ancestor[static_cast<std::size_t>(v)];
        ancestor[static_cast<std::size_t>(v)] = i;
        v = next;
      }
      if (ancestor[static_cast<std::size_t>(v)] == -1) {
        ancestor[static_cast<std::size_t>(v)] = i;
        parent[static_cast<std::size_t>(v)] = i;
      }
    }
  }
  return parent;
}

std::vector<index_t> tree_postorder(std::span<const index_t> parent) {
  const index_t n = static_cast<index_t>(parent.size());
  // Build child lists (first_child / next_sibling to avoid vector-of-vector).
  std::vector<index_t> first_child(static_cast<std::size_t>(n), -1);
  std::vector<index_t> next_sibling(static_cast<std::size_t>(n), -1);
  for (index_t v = n - 1; v >= 0; --v) {  // reversed so children pop in order
    const index_t p = parent[static_cast<std::size_t>(v)];
    if (p >= 0) {
      next_sibling[static_cast<std::size_t>(v)] = first_child[static_cast<std::size_t>(p)];
      first_child[static_cast<std::size_t>(p)] = v;
    }
  }
  std::vector<index_t> out;
  out.reserve(static_cast<std::size_t>(n));
  std::vector<std::pair<index_t, bool>> stack;
  for (index_t r = 0; r < n; ++r) {
    if (parent[static_cast<std::size_t>(r)] != -1) continue;
    stack.push_back({r, false});
    while (!stack.empty()) {
      auto [v, done] = stack.back();
      stack.pop_back();
      if (done) {
        out.push_back(v);
        continue;
      }
      stack.push_back({v, true});
      for (index_t c = first_child[static_cast<std::size_t>(v)]; c != -1;
           c = next_sibling[static_cast<std::size_t>(c)])
        stack.push_back({c, false});
    }
  }
  SLU3D_CHECK(out.size() == parent.size(), "postorder visited wrong count");
  return out;
}

int tree_height(std::span<const index_t> parent) {
  const auto post = tree_postorder(parent);
  std::vector<int> h(parent.size(), 1);
  int best = 0;
  for (index_t v : post) {
    const index_t p = parent[static_cast<std::size_t>(v)];
    if (p >= 0)
      h[static_cast<std::size_t>(p)] =
          std::max(h[static_cast<std::size_t>(p)], h[static_cast<std::size_t>(v)] + 1);
    best = std::max(best, h[static_cast<std::size_t>(v)]);
  }
  return best;
}

std::vector<std::vector<index_t>> symbolic_fill(const CsrMatrix& A) {
  std::optional<CsrMatrix> symmetrized;  // empty when A is already symmetric
  if (!A.pattern_is_symmetric()) symmetrized = A.symmetrized_pattern();
  const CsrMatrix& S = symmetrized ? *symmetrized : A;
  const index_t n = S.n_rows();
  const auto parent = elimination_tree(S);
  std::vector<std::vector<index_t>> cols(static_cast<std::size_t>(n));
  std::vector<index_t> mark(static_cast<std::size_t>(n), -1);
  std::vector<index_t> scratch;
  for (index_t j = 0; j < n; ++j) {
    auto& cj = cols[static_cast<std::size_t>(j)];
    // Entries of A below the diagonal in column j == row j of upper part.
    for (index_t i : S.row_cols(j))
      if (i > j && mark[static_cast<std::size_t>(i)] != j) {
        mark[static_cast<std::size_t>(i)] = j;
        cj.push_back(i);
      }
    // Merge children columns (minus their first entry, which is j itself).
    // Children are the c with parent[c] == j; find them via a reverse pass:
    // we instead accumulate on the fly — see child_lists below.
    cj.shrink_to_fit();
    (void)scratch;
  }
  // Second pass in postorder, merging child structures upward.
  std::vector<std::vector<index_t>> kids(static_cast<std::size_t>(n));
  for (index_t v = 0; v < n; ++v)
    if (parent[static_cast<std::size_t>(v)] >= 0)
      kids[static_cast<std::size_t>(parent[static_cast<std::size_t>(v)])].push_back(v);
  std::fill(mark.begin(), mark.end(), -1);
  for (index_t j : tree_postorder(parent)) {
    auto& cj = cols[static_cast<std::size_t>(j)];
    for (index_t i : cj) mark[static_cast<std::size_t>(i)] = j;
    for (index_t c : kids[static_cast<std::size_t>(j)]) {
      for (index_t i : cols[static_cast<std::size_t>(c)]) {
        if (i > j && mark[static_cast<std::size_t>(i)] != j) {
          mark[static_cast<std::size_t>(i)] = j;
          cj.push_back(i);
        }
      }
    }
    std::sort(cj.begin(), cj.end());
  }
  return cols;
}

offset_t scalar_factor_nnz(const CsrMatrix& A) {
  const auto cols = symbolic_fill(A);
  offset_t nnz = A.n_rows();  // the diagonal
  for (const auto& c : cols) nnz += static_cast<offset_t>(c.size());
  return nnz;
}

}  // namespace slu3d
