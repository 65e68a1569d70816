// What the distributed triangular solves (solve_2d and solve_3d) share:
// the static order in which every rank visits supernodes, the descendant
// index that routes contributions, and the panel plumbing.
//
// The schedule. The forward sweep (L y = b) visits supernodes by ascending
// ND-tree height and the backward sweep (U x = y) by ascending ND-tree
// depth, ties broken by id. Both are valid elimination orders, because a
// panel block of c always targets a strict ND ancestor of c. Unlike plain
// postorder, they start every leaf before any separator: under postorder a
// rank owning a high separator of the left subtree must wait for the whole
// left forward chain before it may start its leaves in the right subtree,
// and those false dependencies are most of the solve's critical path.
//
// Every rank walks the same global order and each blocking receive is
// matched by a send issued earlier in that order, so the blocking sweeps
// cannot deadlock. The order changes only *when* a rank does its local
// work: messages, bytes and the ascending-c accumulation at each diagonal
// owner are those of postorder, so solutions are bitwise independent of
// it. The one matching rule it imposes: when one rank sends a diagonal
// owner several backward contributions on one (source, tag) pair — one per
// descendant — it must send them in the receiver's visiting order
// (`out_of`), not in descending c.
#pragma once

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "simmpi/runtime.hpp"
#include "symbolic/block_structure.hpp"

namespace slu3d {

/// A (descendant supernode c, index of a block in lpanel(c)) pair.
using PanelRef = std::pair<int, int>;

class SolveSchedule {
 public:
  explicit SolveSchedule(const BlockStructure& bs);

  /// Forward visiting order: ascending ND height, then id.
  std::span<const int> forward() const { return forward_; }
  /// Backward visiting order: ascending ND depth, then id.
  std::span<const int> backward() const { return backward_; }

  /// Every (c, k) with lpanel(c)[k].snode == a, ascending c: the forward
  /// contributions a's diagonal owner accumulates, in the order it adds
  /// them.
  std::span<const PanelRef> into(int a) const {
    return into_[static_cast<std::size_t>(a)];
  }
  /// The same pairs in backward visiting order of c: the order in which
  /// the backward contributions of a must be sent.
  std::span<const PanelRef> out_of(int a) const {
    return out_of_[static_cast<std::size_t>(a)];
  }

 private:
  std::vector<int> forward_, backward_;
  std::vector<std::vector<PanelRef>> into_, out_of_;
};

/// An n x nrhs column-major right-hand-side / solution panel (ldx = n).
/// One sweep over the panel serves all nrhs columns: message counts are
/// independent of nrhs, message sizes scale with it.
struct SolvePanel {
  std::span<real_t> x;
  index_t n;
  index_t nrhs;

  /// Copies rows [f, f + ns) of every column into a contiguous ns x nrhs
  /// buffer.
  void gather(index_t f, index_t ns, std::vector<real_t>& buf) const;
  /// The inverse of gather().
  void scatter(std::span<const real_t> buf, index_t f, index_t ns) const;
};

/// Gives every rank of `comm` the full solution: each supernode's solved
/// slice lives on comm rank owner(s), and one allgatherv concatenates the
/// owners' slices in rank order.
void redistribute_solution(sim::Comm& comm, int tag, sim::CommPlane plane,
                           const BlockStructure& bs, const SolvePanel& panel,
                           const std::function<int(int)>& owner);

}  // namespace slu3d
