// Block-cyclic distributed storage for the supernodal LU factors —
// SuperLU_DIST's 2D data structure (§II-E1). Block (i, j) of the
// supernodal block matrix lives on process (i mod Px, j mod Py); every rank
// holds the full symbolic BlockStructure (as SuperLU_DIST replicates the
// symbolic data) but only its own numeric blocks.
#pragma once

#include <span>
#include <vector>

#include "numeric/supernodal_matrix.hpp"
#include "symbolic/block_structure.hpp"

namespace slu3d {

/// One locally owned off-diagonal block: `panel_idx` indexes into
/// BlockStructure::lpanel(s) and identifies the symbolic rows; `data` is
/// dense column-major (L: rows x ns, U: ns x rows).
struct OwnedBlock {
  int panel_idx = -1;
  std::vector<real_t> data;
};

class Dist2dFactors {
 public:
  /// Allocates the blocks owned by grid rank (px, py) of a Px x Py grid.
  /// `want_snode` (optional) restricts allocation to a subset of supernode
  /// columns — the 3D algorithm allocates only each grid's local trees
  /// plus the replicated ancestors. Empty means all supernodes.
  Dist2dFactors(const BlockStructure& bs, int Px, int Py, int px, int py,
                std::vector<bool> want_snode = {});

  /// True if supernode s's column blocks exist on this grid at all.
  bool wants_snode(int s) const {
    return want_.empty() || want_[static_cast<std::size_t>(s)];
  }

  const BlockStructure& structure() const { return *bs_; }

  bool owns(int block_row, int block_col) const {
    return block_row % Px_ == px_ && block_col % Py_ == py_;
  }

  bool has_diag(int s) const { return owns(s, s); }
  std::span<real_t> diag(int s) { return diag_[static_cast<std::size_t>(s)]; }
  std::span<const real_t> diag(int s) const { return diag_[static_cast<std::size_t>(s)]; }

  /// Owned L blocks of supernode s (ascending panel_idx).
  std::span<OwnedBlock> lblocks(int s) { return lblocks_[static_cast<std::size_t>(s)]; }
  std::span<const OwnedBlock> lblocks(int s) const {
    return lblocks_[static_cast<std::size_t>(s)];
  }
  /// Owned U blocks of supernode s (ascending panel_idx).
  std::span<OwnedBlock> ublocks(int s) { return ublocks_[static_cast<std::size_t>(s)]; }
  std::span<const OwnedBlock> ublocks(int s) const {
    return ublocks_[static_cast<std::size_t>(s)];
  }

  /// The owned L (resp. U) block of supernode s whose panel block is the
  /// ancestor `a`; nullptr if this rank does not own it.
  OwnedBlock* find_lblock(int s, int a);
  OwnedBlock* find_ublock(int s, int a);

  /// Scatters the entries of the permuted matrix into owned blocks.
  void fill_from(const CsrMatrix& Ap);

  /// Bytes of numeric block storage on this rank (Fig. 11 memory metric).
  offset_t allocated_bytes() const;

  /// Zero all owned numeric data (for reuse across experiments).
  void zero();

 private:
  const BlockStructure* bs_;
  int Px_, Py_, px_, py_;
  std::vector<bool> want_;
  std::vector<std::vector<real_t>> diag_;
  std::vector<std::vector<OwnedBlock>> lblocks_;
  std::vector<std::vector<OwnedBlock>> ublocks_;
};

}  // namespace slu3d
