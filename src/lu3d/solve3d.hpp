// Distributed triangular solves on the *3D* factor layout produced by
// factorize_3d — no gathering: each supernode's blocks stay on its anchor
// grid, and every message goes only to a rank that reads it. At Pz = 1 the
// layout is SuperLU_DIST's 2D block-cyclic one and this is the pdgstrs
// counterpart.
//
// Routing. One SolvePlan, built from (BlockStructure, ForestPartition,
// Px, Py) and read by every rank, fixes every message of a solve:
//  * Contributions. The owner of L(a, c) (forward) or U(c, a) (backward)
//    computes the partial product that the diagonal owner of the target
//    (a forward, c backward) accumulates. A rank that is that diagonal
//    owner adds it in place; every other rank sends each target one
//    *pack* per sweep — all of its pieces for that target, in its own
//    visiting order — once its last piece is computed. The plan records
//    every piece's source and offset, so the diagonal owner still adds
//    the pieces in ascending c going forward and in lpanel order going
//    backward, and solutions are bitwise those of one message per piece.
//  * Solved slices. y_s (forward) and x_s (backward) travel from the
//    diagonal owner over sim::binomial_tree, the tree every simmpi
//    broadcast walks, spanning exactly the ranks that own a block
//    multiplying it: L(a, s) for a in lpanel(s), resp. U(c, s) for every
//    c with s in lpanel(c). A leaf's x_s has no reader and goes nowhere.
//  * A message is labelled CommPlane::XY when source and destination
//    share a grid and Z when it crosses grids.
//  * A log-depth allgatherv (Comm::allgatherv) finally hands every rank
//    the whole solution.
//
// Schedule. Every rank visits supernodes in one static order built from
// the ND tree: the forward sweep by ascending height, ties by id
// (BlockStructure::leaves_first, the order factorize_2d factors every
// node list in), the backward sweep by ascending depth, ties by id. The
// leaves of every subtree start at once instead of waiting behind the
// separators of earlier subtrees, as they would in postorder. Each pack
// for target t ships at a step before t in that order and tree messages
// flow from parent to child within one step, so the blocking sweeps
// cannot deadlock. Backward contributions out of one solved slice are
// computed in the receivers' visiting order (SolvePlan::out_of), which
// ships the packs the earliest receivers wait for first.
//
// The paper factors in 3D but stops short of a 3D solve (that is
// follow-up work); this implements the natural extension.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "lu3d/factor3d.hpp"
#include "simmpi/process_grid.hpp"

namespace slu3d {

struct Solve3dOptions {
  /// Base message tag. Back-to-back solves with one plan may share it:
  /// each sends the same messages per (source, tag) in the same program
  /// order, so simmpi's FIFO matching pairs every receive with the send
  /// of its own solve.
  int tag_base = (1 << 24);
  /// Number of right-hand-side columns solved in one sweep. `x` is then an
  /// n x nrhs column-major panel; one set of packs and tree messages
  /// serves the whole batch (message counts are independent of nrhs).
  index_t nrhs = 1;
};

/// Number of distinct message tags one solve_3d call may consume starting
/// at `tag_base`. With nsn supernodes the tag classes are: forward packs
/// into target a at tag_base + a, backward packs into target c at
/// tag_base + nsn + c, the tree messages of slice s (y_s forward, x_s
/// backward) at tag_base + 2*nsn + s, and the closing allgatherv at
/// tag_base + 3*nsn.
int solve3d_tag_span(const BlockStructure& bs);

/// The routing of every solve on one factored layout: which rank computes
/// each contribution, which pack carries it and where in that pack it
/// sits, and the member list of every slice's broadcast tree. It depends
/// only on the structure, the forest partition and the grid shape, never
/// on values or nrhs, so one plan serves every solve of a resident
/// pattern. Immutable after construction: rank threads share one plan
/// read-only. Holds a reference to `bs`, which must outlive it.
class SolvePlan {
 public:
  SolvePlan(const BlockStructure& bs, const ForestPartition& part, int Px,
            int Py);

  /// Forward visiting order: BlockStructure::leaves_first of every
  /// supernode, the order factorize_2d factors every node list in.
  std::span<const int> forward() const { return forward_; }

 private:
  // Only the solve driver (solve3d.cpp) reads the routing.
  friend class Solve3dDriver;

  /// Backward visiting order: ascending ND depth, then id.
  std::span<const int> backward() const { return backward_; }

  /// A (descendant supernode c, index of a block in lpanel(c)) pair.
  using PanelRef = std::pair<int, int>;

  /// Where one contribution piece travels: the rank that computes it, its
  /// pack's slot among the target's fwd_sources() / bwd_sources(), and its
  /// first row within that pack (pieces are rows x nrhs column-major, back
  /// to back, in the order the source computes them).
  struct Piece {
    int src = -1;
    int slot = -1;
    index_t row = 0;
  };
  /// One rank that sends (or, when it is the diagonal owner, keeps) a
  /// pack for a target, and the pack's height in rows: the pack ships once
  /// it holds that many.
  struct Source {
    int rank = -1;
    index_t rows = 0;
  };

  const BlockStructure& structure() const { return *bs_; }
  int Px() const { return layout_.Px; }
  int Py() const { return layout_.Py; }
  int Pz() const { return layout_.Pz; }
  /// World rank of the diagonal block of supernode s.
  int owner(int s) const { return at(owner_, s); }
  /// Grid (pz) of world rank r.
  int grid_of(int r) const { return layout_.pz_of(r); }

  /// Every (c, k) with lpanel(c)[k].snode == a, ascending c: the order in
  /// which a's diagonal owner adds forward contributions.
  std::span<const PanelRef> into(int a) const { return at(into_, a); }
  /// The same pairs in backward visiting order of c: the order in which
  /// the owners of U(c, a) compute backward contributions out of x_a.
  std::span<const PanelRef> out_of(int a) const { return at(out_of_, a); }

  /// Forward piece L(a, c) x y_c, a = lpanel(c)[k].snode, into target a.
  const Piece& fwd_piece(int c, int k) const { return at(fwd_, entry(c, k)); }
  /// Backward piece U(c, a) x x_a, a = lpanel(c)[k].snode, into target c.
  const Piece& bwd_piece(int c, int k) const { return at(bwd_, entry(c, k)); }
  /// Distinct pack sources of forward (resp. backward) target t, in slot
  /// order.
  std::span<const Source> fwd_sources(int t) const { return at(fwd_src_, t); }
  std::span<const Source> bwd_sources(int t) const { return at(bwd_src_, t); }

  /// Broadcast-tree members of y_s and x_s: the diagonal owner first,
  /// then every other rank that multiplies the slice, each once.
  std::span<const int> ytree(int s) const { return at(ytree_, s); }
  std::span<const int> xtree(int s) const { return at(xtree_, s); }

  template <class V>
  static const typename V::value_type& at(const V& v, int i) {
    return v[static_cast<std::size_t>(i)];
  }
  /// Flat index of lpanel(c)[k] in fwd_ / bwd_.
  int entry(int c, int k) const { return at(entry_base_, c) + k; }

  const BlockStructure* bs_;
  sim::GridLayout layout_;
  std::vector<int> owner_;
  std::vector<int> forward_, backward_;
  std::vector<std::vector<PanelRef>> into_, out_of_;
  std::vector<int> entry_base_;  ///< first flat entry of lpanel(c)
  std::vector<Piece> fwd_, bwd_;
  std::vector<std::vector<Source>> fwd_src_, bwd_src_;
  std::vector<std::vector<int>> ytree_, xtree_;
};

/// Solves L U X = B in the permuted index space on the 3D-factored `F`,
/// routed by `plan` (built for F's structure and world's grid shape).
/// Collective over `world` (all Px*Py*Pz ranks). Every rank passes the
/// full permuted right-hand side panel in `x` (n x nrhs column-major); on
/// return every rank holds the full solution panel.
void solve_3d(Dist2dFactors& F, sim::Comm& world, const SolvePlan& plan,
              std::span<real_t> x, const Solve3dOptions& options = {});

/// The same solve with a plan built on this call.
void solve_3d(Dist2dFactors& F, sim::Comm& world, sim::ProcessGrid3D& grid,
              const ForestPartition& part, std::span<real_t> x,
              const Solve3dOptions& options = {});

}  // namespace slu3d
