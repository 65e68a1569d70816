// The 2D distributed right-looking supernodal LU factorization — the
// SuperLU_DIST baseline algorithm (§II-E2):
//   per supernode k: diagonal factorization at the owner of (k,k), the
//   factored block sent point to point to the ranks that solve against
//   it, panel solves at the owning row/column of processes, panel
//   transfers, then the owner-only-update Schur complement on every rank.
// The schedule (the leaves-first visiting order, lookahead pipelining,
// stash slots, non-blocking panel broadcasts, targeted footprint messages,
// the nearest-ancestor send order) is the panel engine in factor2d.cpp.
//
// `snodes` restricts the factorization to a node list — this is exactly
// the dSparseLU2D(A, nList) primitive that Algorithm 1 (the 3D algorithm)
// invokes per elimination-forest level. This header also declares what
// both of Algorithm 1's planes share: the Wire switch, the frame codec of
// its Targeted format, and the LuOptions that factorize_3d takes too.
#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "lu2d/dist_factors.hpp"
#include "simmpi/process_grid.hpp"

namespace slu3d {

/// The wire format of Algorithm 1's factor-block transfers. One value
/// governs both planes: the panel transfers of every factorize_2d and the
/// z-axis Ancestor-Reduction of factorize_3d.
enum class Wire {
  /// Every allocated block travels, zeros included: each panel entry as
  /// its full m x ns union block over a binomial broadcast of the whole
  /// process row or column, each ancestor copy verbatim. The paper's
  /// scheme, which the figures and the golden counters reproduce.
  Dense,
  /// Only the nonzeros a receiver reads, as frames (encode_frame). Panels
  /// go as footprint messages: the data root computes each receiver's
  /// block footprint from the symbolic structure (the entries its Schur
  /// pairs read) and sends it one point-to-point message of exactly those
  /// entries' frames; an empty footprint gets no message, and both sides
  /// agree symbolically, so no handshake travels. Each ancestor copy goes
  /// as one frame on the same pairwise message as Dense. Factors stay
  /// bitwise identical to Dense (the footprint covers every entry a pair
  /// reads, and an ancestor's owner adds the expanded frame in Dense's
  /// order); each plane saves a Dense run's traffic minus a Targeted run's.
  Targeted,
};

/// The frame Wire::Targeted carries on both planes for a span of n
/// values: frame_bitmap_words(n) presence words, in which bit i % 64 of
/// word i / 64 is set iff value i compares != 0, then the set values in
/// order. Zeros of either sign are elided; every other value, NaN and
/// subnormals included, travels bit for bit. The words ride as real_t bit
/// patterns, so the frame is one real_t payload.
constexpr std::size_t frame_bitmap_words(std::size_t n) {
  return (n + 63) / 64;
}

/// Writes the frame of `src` to the front of `out`, which must hold
/// frame_bitmap_words(src.size()) + src.size() values; returns the frame's
/// length.
std::size_t encode_frame(std::span<const real_t> src, std::span<real_t> out);

/// Expands the frame at the front of `wire` into `dst` (elided values
/// become +0.0); returns the frame's length.
std::size_t decode_frame(std::span<const real_t> wire, std::span<real_t> dst);

/// Upper bound on the lookahead window, and the open window: with it,
/// every panel whose updaters are done fires. The stash slot pool holds
/// lookahead+1 live supernodes, each pinning its outstanding requests. On
/// Wire::Dense each also pins its flat panel storage from the post on,
/// since ibcast writes into it, so beyond this bound a mistyped value
/// would pin the whole Dense factorization in memory. Wire::Targeted
/// allocates a stash's storage at its Schur drain, one stash at a time.
inline constexpr int kMaxPanelLookahead = 4096;

/// The lookahead window for a Px x Py plane when LuOptions leaves it
/// unset: 8 on a plane of fewer than 64 ranks, else open
/// (kMaxPanelLookahead).
///
/// At this scale the critical path is mostly per-message latency, and a
/// plane of 64 or more ranks walks many independent leaves whose panel
/// messages an open window keeps in flight at once. On smaller planes
/// the extra in-flight panels mostly delay the ones the next Schur phase
/// waits for: dielfilter3d on 4x8 planes is slower with a wider window.
/// bench/ablation_lookahead measures this at every shape of the Fig. 9
/// sweep (EXPERIMENTS.md, "Grid-derived lookahead window").
constexpr int panel_lookahead(int Px, int Py) {
  return Px * Py >= 64 ? kMaxPanelLookahead : 8;
}

/// Algorithm 1's options: factorize_2d takes them for one grid's node
/// list, factorize_3d for every level of every grid. factorize_2d
/// validates both fields on entry.
struct LuOptions {
  /// Lookahead window of the 2D panel pipeline (§II-F) in supernodes, at
  /// most kMaxPanelLookahead; 0 disables pipelining. Unset means
  /// panel_lookahead(Px, Py) of the plane factorize_2d runs on, resolved
  /// once on entry; an explicit value overrides it. The window's panel
  /// transfers are always non-blocking, drained lazily at the consuming
  /// Schur phase, so they hide behind earlier supernodes' updates; only
  /// the diagonal receive blocks, on the ranks whose panel solves consume
  /// it at once.
  std::optional<int> lookahead = std::nullopt;
  /// Wire format of both planes. Dense reproduces the paper;
  /// SolverService overrides this default with Targeted.
  Wire wire = Wire::Dense;
};

/// Factorizes the supernodes in `snodes` (distinct ids, in any order) in
/// place on every rank of `grid`, leaves first: by ascending ND height,
/// ties by id, the order the forward solve visits them in. Collective over
/// grid.grid(). Schur updates are applied to every allocated target block,
/// including replicated-ancestor blocks when `F` is a masked (3D) layout.
void factorize_2d(Dist2dFactors& F, sim::ProcessGrid2D& grid,
                  std::span<const int> snodes, const LuOptions& options = {});

}  // namespace slu3d
