#include "symbolic/block_structure.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>

#include "support/check.hpp"

namespace slu3d {

SnodeNumbering SnodeNumbering::from_tree(const SeparatorTree& tree) {
  SnodeNumbering num;
  num.n = tree.n();
  const int n_nodes = tree.n_nodes();

  // --- Order tree nodes by column (== a postorder). ----------------------
  std::vector<int> order(static_cast<std::size_t>(n_nodes));
  std::iota(order.begin(), order.end(), 0);
  // Ties at sep_first happen with empty separator blocks. An empty node
  // marks the end of its subtree, so it must precede any node of the
  // *next* branch starting at the same column (smaller sep_last first);
  // among nested empty nodes at the same boundary, the deeper one is the
  // descendant and must come first.
  std::vector<int> depth(static_cast<std::size_t>(n_nodes));
  for (int v = 0; v < n_nodes; ++v)
    depth[static_cast<std::size_t>(v)] = tree.depth(v);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (tree.node(a).sep_first != tree.node(b).sep_first)
      return tree.node(a).sep_first < tree.node(b).sep_first;
    if (tree.node(a).sep_last != tree.node(b).sep_last)
      return tree.node(a).sep_last < tree.node(b).sep_last;
    return depth[static_cast<std::size_t>(a)] > depth[static_cast<std::size_t>(b)];
  });

  // --- Split each node's block into its chain of pieces. -----------------
  num.to_snode.resize(static_cast<std::size_t>(n_nodes));
  num.n_pieces.resize(static_cast<std::size_t>(n_nodes));
  for (int v : order) {
    const SepTreeNode& nd = tree.node(v);
    const index_t b = nd.block_size();
    const index_t k = std::max<index_t>(1, (b + kMaxSnodeWidth - 1) / kMaxSnodeWidth);
    num.to_snode[static_cast<std::size_t>(v)] = static_cast<int>(num.by_col.size());
    num.n_pieces[static_cast<std::size_t>(v)] = static_cast<int>(k);
    for (index_t i = 0; i < k; ++i) {
      num.by_col.push_back(v);
      num.snode_first.push_back(nd.sep_first + static_cast<index_t>(
                                                   static_cast<offset_t>(b) * i / k));
    }
  }
  num.n_snodes = static_cast<int>(num.by_col.size());
  num.snode_first.push_back(num.n);

  num.col_to_snode.resize(static_cast<std::size_t>(num.n));
  for (int s = 0; s < num.n_snodes; ++s)
    for (index_t c = num.first_col(s); c < num.beyond_col(s); ++c)
      num.col_to_snode[static_cast<std::size_t>(c)] = s;
  return num;
}

void BlockStructure::init_tree(const SeparatorTree& tree, SnodeNumbering num) {
  n_ = num.n;
  n_snodes_ = num.n_snodes;
  nd_parent_.assign(static_cast<std::size_t>(n_snodes_), -1);
  nd_children_.assign(static_cast<std::size_t>(n_snodes_), {});
  for (int s = 0; s < n_snodes_; ++s) {
    const int v = num.by_col[static_cast<std::size_t>(s)];
    const auto& nd = tree.node(v);
    // A piece below the top of its chain feeds the next piece; the top
    // piece feeds the bottom piece of the tree parent.
    const bool top = s + 1 == num.beyond_piece(v);
    if (!top || nd.parent >= 0) {
      const int p = top ? num.first_piece(nd.parent) : s + 1;
      SLU3D_CHECK(p > s, "parent supernode must come after its children");
      nd_parent_[static_cast<std::size_t>(s)] = p;
      nd_children_[static_cast<std::size_t>(p)].push_back(s);
    }
  }
  // Parents have larger ids than their children, so one ascending pass
  // settles every height and one descending pass every depth.
  nd_height_.assign(static_cast<std::size_t>(n_snodes_), 0);
  nd_depth_.assign(static_cast<std::size_t>(n_snodes_), 0);
  for (int s = 0; s < n_snodes_; ++s)
    if (const int p = nd_parent(s); p >= 0)
      nd_height_[static_cast<std::size_t>(p)] =
          std::max(nd_height(p), nd_height(s) + 1);
  for (int s = n_snodes_ - 1; s >= 0; --s)
    if (const int p = nd_parent(s); p >= 0)
      nd_depth_[static_cast<std::size_t>(s)] = nd_depth(p) + 1;
  // The supernode ranges must tile [0, n) exactly in id order: each
  // node's chain must end where the next node's begins. (This is what
  // guarantees that snode ids, ranges, and tree links stay mutually
  // consistent — see the tie-break comment in from_tree.)
  for (int v = 0; v < tree.n_nodes(); ++v)
    SLU3D_CHECK(tree.node(v).sep_last ==
                    num.snode_first[static_cast<std::size_t>(num.beyond_piece(v))],
                "supernode ranges must tile the column space in id order");
  snode_first_ = std::move(num.snode_first);
  col_to_snode_ = std::move(num.col_to_snode);
}

void BlockStructure::finalize_panels(std::vector<std::vector<index_t>> rowsets) {
  SLU3D_CHECK(rowsets.size() == static_cast<std::size_t>(n_snodes_),
              "one row set per supernode");
  lpanel_.resize(static_cast<std::size_t>(n_snodes_));
  panel_rows_.assign(static_cast<std::size_t>(n_snodes_), 0);
  flops_.assign(static_cast<std::size_t>(n_snodes_), 0);
  nnz_.assign(static_cast<std::size_t>(n_snodes_), 0);

  for (int s = 0; s < n_snodes_; ++s) {
    const auto& rs = rowsets[static_cast<std::size_t>(s)];
    const index_t beyond = snode_first_[static_cast<std::size_t>(s) + 1];
    SLU3D_CHECK(rs.empty() || rs.front() >= beyond,
                "panel row inside own supernode range");

    // Split the rowset into per-ancestor panel blocks.
    auto& panel = lpanel_[static_cast<std::size_t>(s)];
    for (std::size_t k = 0; k < rs.size();) {
      const int a = col_to_snode(rs[k]);
      PanelBlock blk;
      blk.snode = a;
      const index_t a_end = snode_first_[static_cast<std::size_t>(a) + 1];
      while (k < rs.size() && rs[k] < a_end) blk.rows.push_back(rs[k++]);
      panel.push_back(std::move(blk));
    }
    panel_rows_[static_cast<std::size_t>(s)] = static_cast<index_t>(rs.size());

    // Statistics (dense diagonal + two panels + Schur GEMM).
    const offset_t ns = snode_size(s);
    const offset_t m = panel_rows_[static_cast<std::size_t>(s)];
    flops_[static_cast<std::size_t>(s)] =
        2 * ns * ns * ns / 3 + 2 * m * ns * ns + 2 * m * m * ns;
    nnz_[static_cast<std::size_t>(s)] = ns * ns + 2 * m * ns;
    total_flops_ += flops_[static_cast<std::size_t>(s)];
    total_nnz_ += nnz_[static_cast<std::size_t>(s)];
  }
}

BlockStructure::BlockStructure(const CsrMatrix& A, const SeparatorTree& tree) {
  SLU3D_CHECK(A.n_rows() == A.n_cols(), "block structure needs square A");
  SLU3D_CHECK(A.n_rows() == tree.n(), "tree size mismatch");
  init_tree(tree, SnodeNumbering::from_tree(tree));

  // --- Initial row candidates from the (symmetrized, permuted) pattern. -
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  std::optional<CsrMatrix> symmetrized;  // empty when Ap is already symmetric
  if (!Ap.pattern_is_symmetric()) symmetrized = Ap.symmetrized_pattern();
  const CsrMatrix& S = symmetrized ? *symmetrized : Ap;
  std::vector<std::vector<index_t>> rowset(static_cast<std::size_t>(n_snodes_));
  for (index_t i = 0; i < n_; ++i) {
    const int si = col_to_snode(i);
    for (index_t j : S.row_cols(i)) {
      const int sj = col_to_snode(j);
      if (sj < si) rowset[static_cast<std::size_t>(sj)].push_back(i);
    }
  }

  // --- Supernodal symbolic elimination via first-ancestor merging. -----
  // pending[s] collects the supernodes whose remaining row structure must
  // be merged into s (their first below-panel row lies in s).
  std::vector<std::vector<int>> pending(static_cast<std::size_t>(n_snodes_));
  std::vector<index_t> mark(static_cast<std::size_t>(n_), -1);

  for (int s = 0; s < n_snodes_; ++s) {
    auto& rs = rowset[static_cast<std::size_t>(s)];
    const index_t beyond = snode_first_[static_cast<std::size_t>(s) + 1];
    // Deduplicate the A-pattern candidates.
    std::sort(rs.begin(), rs.end());
    rs.erase(std::unique(rs.begin(), rs.end()), rs.end());
    for (index_t r : rs) mark[static_cast<std::size_t>(r)] = static_cast<index_t>(s);
    // Merge children's structures (rows beyond this supernode's range).
    for (int c : pending[static_cast<std::size_t>(s)]) {
      for (index_t r : rowset[static_cast<std::size_t>(c)]) {
        if (r >= beyond && mark[static_cast<std::size_t>(r)] != static_cast<index_t>(s)) {
          mark[static_cast<std::size_t>(r)] = static_cast<index_t>(s);
          rs.push_back(r);
        }
      }
    }
    std::sort(rs.begin(), rs.end());

    if (!rs.empty()) {
      const int ep = col_to_snode(rs.front());
      pending[static_cast<std::size_t>(ep)].push_back(s);
    }
  }
  finalize_panels(std::move(rowset));
}

std::vector<int> BlockStructure::leaves_first(std::vector<int> nodes) const {
  std::sort(nodes.begin(), nodes.end(), [&](int a, int b) {
    return std::pair{nd_height(a), a} < std::pair{nd_height(b), b};
  });
  return nodes;
}

BlockStructure::BlockStructure(const SeparatorTree& tree,
                               std::vector<std::vector<index_t>> rowsets) {
  init_tree(tree, SnodeNumbering::from_tree(tree));
  finalize_panels(std::move(rowsets));
}

}  // namespace slu3d
