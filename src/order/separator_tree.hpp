// The separator tree produced by nested dissection. It defines the
// supernode partition (each node's own vertex range is one supernode /
// block column, or a chain of them when it is wider than kMaxSnodeWidth;
// see SnodeNumbering in symbolic/block_structure.hpp) and the supernodal
// elimination tree (a node depends on its children), which is how the
// paper uses the etree (§II-D).
#pragma once

#include <span>
#include <vector>

#include "support/check.hpp"
#include "support/types.hpp"

namespace slu3d {

struct SepTreeNode {
  // All indices refer to the *new* (post-ordering) vertex numbering.
  index_t subtree_first = 0;  ///< first vertex of the whole subtree
  index_t sep_first = 0;      ///< first vertex of this node's own block
  index_t sep_last = 0;       ///< one past the last vertex of the own block
                              ///< (also one past the end of the subtree)
  int left = -1;              ///< child node index or -1
  int right = -1;
  int parent = -1;

  index_t block_size() const { return sep_last - sep_first; }
  index_t subtree_size() const { return sep_last - subtree_first; }
  bool is_leaf() const { return left < 0 && right < 0; }
};

/// Result of nested dissection: a fill-reducing permutation plus the
/// separator tree over the permuted indices.
class SeparatorTree {
 public:
  SeparatorTree(std::vector<index_t> perm, std::vector<SepTreeNode> nodes,
                int root)
      : perm_(std::move(perm)), nodes_(std::move(nodes)), root_(root) {
    validate();
  }

  /// perm()[k] = original index of the k-th permuted vertex (new -> old).
  std::span<const index_t> perm() const { return perm_; }
  std::span<const SepTreeNode> nodes() const { return nodes_; }
  const SepTreeNode& node(int i) const {
    return nodes_[static_cast<std::size_t>(i)];
  }
  int root() const { return root_; }
  int n_nodes() const { return static_cast<int>(nodes_.size()); }
  index_t n() const { return static_cast<index_t>(perm_.size()); }

  /// Node indices in bottom-up (children before parents) order. Factoring
  /// supernodes in this order respects every dependency.
  std::vector<int> postorder() const;

  /// Height of the tree (a single node has height 1).
  int height() const;

  /// Depth of node i (root has depth 0).
  int depth(int i) const;

 private:
  void validate() const;

  std::vector<index_t> perm_;
  std::vector<SepTreeNode> nodes_;
  int root_;
};

}  // namespace slu3d
