// The 2D distributed right-looking supernodal LU factorization — the
// SuperLU_DIST baseline algorithm (§II-E2):
//   per supernode k: diagonal factorization at the owner of (k,k), the
//   factored block sent point to point to the ranks that solve against
//   it, panel solves at the owning row/column of processes, panel
//   transfers, then the owner-only-update Schur complement on every rank.
// The schedule (lookahead pipelining, stash slots, non-blocking panel
// broadcasts, targeted footprint messages, the nearest-ancestor send
// order) is the panel engine in factor2d.cpp.
//
// `snodes` restricts the factorization to a node list — this is exactly
// the dSparseLU2D(A, nList) primitive that Algorithm 1 (the 3D algorithm)
// invokes per elimination-forest level.
#pragma once

#include <cstddef>
#include <span>

#include "lu2d/dist_factors.hpp"
#include "simmpi/process_grid.hpp"

namespace slu3d {

/// How the 2D panel-broadcast payloads are packed on the wire.
enum class PanelPacking {
  /// Panels travel as the full m x ns union blocks, zeros included — the
  /// historical scheme, byte-identical to the golden fig9 counters.
  Dense,
  /// Footprint messages: the data root computes each receiver's block
  /// footprint from the symbolic structure (which entries that receiver's
  /// Schur pairs actually read) and sends one point-to-point message per
  /// receiver — the frames (encode_frame) of exactly the needed entries,
  /// nothing else. Receivers whose footprint is empty get no data message
  /// at all (both sides agree symbolically, so no handshake is needed).
  /// Ancestor union blocks are ragged, so the frames elide zeros even
  /// inside the entries a receiver reads. Factors stay bitwise identical
  /// (the footprint covers every pair-referenced entry, so charged flops
  /// and FP order match Dense); the saving is a Dense run's XY traffic
  /// minus a Targeted run's.
  Targeted,
};

/// The frame both Targeted wires (PanelPacking and ZRedPacking) carry for
/// a span of n values: frame_bitmap_words(n) presence words, in which bit
/// i % 64 of word i / 64 is set iff value i compares != 0, then the set
/// values in order. Zeros of either sign are elided; every other value,
/// NaN and subnormals included, travels bit for bit. The words ride as
/// real_t bit patterns, so the frame is one real_t payload.
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

/// Upper bound on the lookahead window. The stash slot pool holds
/// lookahead+1 live supernodes, each pinning flat panel storage plus
/// outstanding requests; beyond this bound the "window" is no longer a
/// window and a mistyped value would silently pin the whole factorization
/// in memory.
inline constexpr int kMaxPanelLookahead = 4096;

/// Scheduling knobs of the 2D panel pipeline (one supernode's diagonal
/// factorization + panel solves + panel broadcast + Schur update, pipelined
/// through the elimination-tree lookahead window of §II-F). The window's
/// panel transfers are always non-blocking, drained lazily at the consuming
/// Schur phase, so they hide behind earlier supernodes' updates; only the
/// diagonal receive blocks, on the ranks whose panel solves consume it at
/// once. factorize_2d validates them on entry.
struct Lu2dOptions {
  /// Lookahead window size in supernodes (SuperLU_DIST uses 8-20; 0
  /// disables pipelining). Must be <= kMaxPanelLookahead.
  int lookahead = 8;
  /// Wire format of the panel transfers; Dense is byte-identical to the
  /// historical drivers and reproduces the paper, Targeted is the footprint
  /// messages. SolverService overrides this default with Targeted.
  PanelPacking packing = PanelPacking::Dense;
};

/// Factorizes the supernodes in `snodes` (ascending elimination order) in
/// place on every rank of `grid`. Collective over grid.grid(). Schur
/// updates are applied to every allocated target block, including
/// replicated-ancestor blocks when `F` is a masked (3D) layout.
void factorize_2d(Dist2dFactors& F, sim::ProcessGrid2D& grid,
                  std::span<const int> snodes, const Lu2dOptions& options = {});

}  // namespace slu3d
