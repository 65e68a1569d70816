// Supernodal block symbolic factorization. The separator tree's node
// blocks, each split into a chain of at most kMaxSnodeWidth columns, are
// the supernodes; this computes, for each supernode, the exact row
// structure of its L panel (and by pattern symmetry the column structure
// of its U panel), the supernodal elimination tree, and the flop / storage
// statistics that the paper's cost analysis (§IV) is built on.
#pragma once

#include <span>
#include <vector>

#include "order/separator_tree.hpp"
#include "sparse/csr.hpp"
#include "support/types.hpp"

namespace slu3d {

/// One off-diagonal block of a supernode's L panel: the rows of ancestor
/// supernode `snode` that are structurally nonzero in this panel.
/// By pattern symmetry the U panel block U(s, snode) has these as columns.
struct PanelBlock {
  int snode = -1;              ///< ancestor supernode id
  std::vector<index_t> rows;   ///< global (permuted) indices, sorted

  index_t n_rows() const { return static_cast<index_t>(rows.size()); }
};

/// Widest supernode, in columns. A wider separator block is one dense
/// `getrf` on one rank at the top of the tree, where the critical path
/// runs, so it is split into a chain of near-equal pieces instead (the
/// role of SuperLU_DIST's `maxsuper`).
inline constexpr index_t kMaxSnodeWidth = 80;

/// The deterministic renumbering of separator-tree nodes into column order
/// (== postorder) that defines supernode ids. A node whose block has b
/// columns becomes k = max(1, ceil(b / kMaxSnodeWidth)) consecutive
/// supernodes, its *pieces*: piece i starts at sep_first + floor(b * i / k).
/// Factored out of BlockStructure so the distributed analysis phase
/// (src/analysis/) can compute identical supernode ids on every rank — the
/// tie-break for empty separator blocks below and the piece rule are part
/// of the determinism contract (see DESIGN.md, "Distributed analysis") and
/// must not change independently of BlockStructure.
struct SnodeNumbering {
  int n_snodes = 0;
  index_t n = 0;
  std::vector<int> by_col;           ///< snode id -> tree node id (every piece)
  std::vector<int> to_snode;         ///< tree node id -> its first piece
  std::vector<int> n_pieces;         ///< tree node id -> piece count (>= 1)
  std::vector<index_t> snode_first;  ///< size n_snodes + 1, tiles [0, n)
  std::vector<int> col_to_snode;     ///< size n

  static SnodeNumbering from_tree(const SeparatorTree& tree);

  /// Supernode ids of tree node `node`'s pieces: [first, beyond), bottom
  /// of the chain first.
  int first_piece(int node) const {
    return to_snode[static_cast<std::size_t>(node)];
  }
  int beyond_piece(int node) const {
    return first_piece(node) + n_pieces[static_cast<std::size_t>(node)];
  }

  int snode_of_col(index_t col) const {
    return col_to_snode[static_cast<std::size_t>(col)];
  }
  index_t first_col(int s) const {
    return snode_first[static_cast<std::size_t>(s)];
  }
  index_t beyond_col(int s) const {
    return snode_first[static_cast<std::size_t>(s) + 1];
  }
};

/// Complete block symbolic structure for a pattern-symmetric LU
/// factorization. Supernode ids are the pieces of the separator-tree nodes
/// numbered in column order (== postorder; see SnodeNumbering), so
/// ascending id order is a valid elimination order; the engines factor and
/// solve in the leaves-first (nd_height, id) order instead.
class BlockStructure {
 public:
  /// Computes the structure for matrix `A` permuted by `tree.perm()`.
  /// (A is the *unpermuted* matrix; the structure refers to permuted
  /// indices.)
  BlockStructure(const CsrMatrix& A, const SeparatorTree& tree);

  /// Builds the structure from precomputed *final* per-supernode row sets
  /// (sorted, deduplicated, post fill-in merge — exactly what the primary
  /// constructor's symbolic elimination produces). This is the layout-only
  /// path the distributed analysis phase uses after its ranks have
  /// exchanged row structures: no pattern scan, no merging, just the
  /// panel-block split and statistics. Given equal trees and row sets the
  /// result is bitwise identical to the primary constructor's.
  BlockStructure(const SeparatorTree& tree,
                 std::vector<std::vector<index_t>> rowsets);

  int n_snodes() const { return n_snodes_; }
  index_t n() const { return n_; }

  /// Column range of supernode s: [first(s), first(s+1)).
  index_t first_col(int s) const { return snode_first_[static_cast<std::size_t>(s)]; }
  index_t snode_size(int s) const {
    return snode_first_[static_cast<std::size_t>(s) + 1] -
           snode_first_[static_cast<std::size_t>(s)];
  }
  int col_to_snode(index_t col) const {
    return col_to_snode_[static_cast<std::size_t>(col)];
  }

  /// Parent of s in the separator (ND) tree, as a supernode id; -1 for the
  /// root. A split separator's pieces form a chain: each piece's parent is
  /// the next piece, and the last piece's parent is the first piece of the
  /// tree parent. This is the dependence tree the 2D/3D schedulers walk
  /// (§II-D).
  int nd_parent(int s) const { return nd_parent_[static_cast<std::size_t>(s)]; }
  /// Children of s in the ND tree: 0 or 2 for a node's first piece (the
  /// last pieces of its tree children), 1 for any later piece.
  std::span<const int> nd_children(int s) const {
    return nd_children_[static_cast<std::size_t>(s)];
  }
  /// Height of s in the ND tree: 0 for a leaf, else one more than its
  /// tallest child.
  int nd_height(int s) const { return nd_height_[static_cast<std::size_t>(s)]; }
  /// Depth of s in the ND tree: 0 for a root, else one more than its
  /// parent. Ascending (nd_depth, id) is the backward solve's schedule.
  int nd_depth(int s) const { return nd_depth_[static_cast<std::size_t>(s)]; }
  /// `nodes` in the leaves-first schedule: ascending (nd_height, id). The
  /// 2D panel engine factors every node list in it and the forward solve
  /// visits every supernode in it. A panel block always targets a
  /// strictly taller ancestor, so it is an elimination order, and every
  /// subtree's leaves start at once, where postorder would queue them
  /// behind the separators of earlier subtrees.
  std::vector<int> leaves_first(std::vector<int> nodes) const;

  /// L panel of supernode s: blocks strictly below the diagonal, in
  /// ascending ancestor order.
  std::span<const PanelBlock> lpanel(int s) const {
    return lpanel_[static_cast<std::size_t>(s)];
  }

  /// Total rows below the diagonal block in panel s.
  index_t panel_rows(int s) const { return panel_rows_[static_cast<std::size_t>(s)]; }

  // ---- statistics (per supernode and totals) -------------------------
  /// Flops to factor supernode s: dense diagonal LU + two triangular
  /// panel solves + the Schur-complement GEMM.
  offset_t snode_flops(int s) const { return flops_[static_cast<std::size_t>(s)]; }
  /// Stored entries owned by supernode s (dense diagonal + L and U panels).
  offset_t snode_nnz(int s) const { return nnz_[static_cast<std::size_t>(s)]; }
  offset_t total_flops() const { return total_flops_; }
  offset_t total_nnz() const { return total_nnz_; }

 private:
  /// Shared first stage of both constructors: adopts the numbering, builds
  /// the ND parent/child links, heights and depths, and validates that
  /// supernode ranges tile the column space.
  void init_tree(const SeparatorTree& tree, SnodeNumbering num);
  /// Shared last stage: splits each final row set into per-ancestor panel
  /// blocks and computes the flop/storage statistics.
  void finalize_panels(std::vector<std::vector<index_t>> rowsets);

  index_t n_ = 0;
  int n_snodes_ = 0;
  std::vector<index_t> snode_first_;
  std::vector<int> col_to_snode_;
  std::vector<int> nd_parent_;
  std::vector<std::vector<int>> nd_children_;
  std::vector<int> nd_height_;
  std::vector<int> nd_depth_;
  std::vector<std::vector<PanelBlock>> lpanel_;
  std::vector<index_t> panel_rows_;
  std::vector<offset_t> flops_;
  std::vector<offset_t> nnz_;
  offset_t total_flops_ = 0;
  offset_t total_nnz_ = 0;
};

}  // namespace slu3d
