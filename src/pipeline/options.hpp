// Option structs of the factorization pipeline: the scheduling and wire
// knobs of the 2D panel engine (PanelOptions, aliased as Lu2dOptions in
// lu2d/factor2d.hpp) and of the 3D z-reduction (ZRedOptions, the base of
// Lu3dOptions in lu3d/factor3d.hpp). Validation happens once, at engine
// entry (validate_panel_options / validate_zred_options).
#pragma once

#include "support/check.hpp"

namespace slu3d::pipeline {

/// How the 2D panel-broadcast payloads are packed on the wire.
enum class PanelPacking {
  /// Panels travel as the full m x ns union blocks, zeros included — the
  /// historical scheme, byte-identical to the golden fig9 counters.
  Dense,
  /// One-sided delivery over simmpi RMA windows: the data root computes
  /// each receiver's block footprint from the symbolic structure (which
  /// entries that receiver's Schur pairs actually read) and issues one
  /// footprint-sized put per receiver — bitmap words + present scalars of
  /// exactly the needed entries, nothing else. Receivers whose footprint
  /// is empty get no data message at all (both sides agree symbolically,
  /// so no handshake is needed). Ancestor union blocks are ragged, so the
  /// scalar bitmaps elide zeros even inside the entries a receiver reads.
  /// Factors stay bitwise identical (the footprint covers every
  /// pair-referenced entry, so charged flops and FP order match Dense);
  /// savings are reported in RankStats::panel_* with an exact accounting
  /// identity: dense_equivalent - received == saved.
  Targeted,
};

/// Upper bound on the lookahead window. The stash slot pool holds
/// lookahead+1 live supernodes, each pinning flat panel storage plus
/// outstanding requests; beyond this bound the "window" is no longer a
/// window and a mistyped value (e.g. a tag base passed as lookahead) would
/// silently pin the whole factorization in memory.
inline constexpr int kMaxPanelLookahead = 4096;

/// Scheduling knobs of the 2D panel pipeline (one supernode's diagonal
/// factorization + panel solves + panel broadcast + Schur update, pipelined
/// through the elimination-tree lookahead window of §II-F). The window's
/// panel transfers are always non-blocking, drained lazily at the consuming
/// Schur phase, so they hide behind earlier supernodes' updates; only the
/// diagonal broadcasts, consumed at once by the panel solves, block.
struct PanelOptions {
  /// Lookahead window size in supernodes (SuperLU_DIST uses 8-20; 0
  /// disables pipelining). Must be <= kMaxPanelLookahead.
  int lookahead = 8;
  /// Base message tag; the engine uses tags [tag_base, tag_base + 8*n_snodes).
  int tag_base = 0;
  /// Wire format of the panel transfers; Dense is byte-identical to the
  /// historical drivers, Targeted is the opt-in one-sided delivery.
  PanelPacking packing = PanelPacking::Dense;
  /// Per-rank compute participants (caller thread + pool workers) for the
  /// dense kernels and the Schur scatter. 0 (the default) defers to the
  /// SLU3D_THREADS environment variable, falling back to 1 (the historical
  /// single-threaded rank). Workers come out of the process-wide
  /// threads::WorkerBudget, so asking for more than the host has degrades
  /// gracefully. Factors, RankStats counters, and simulated clocks are
  /// bitwise identical for every value — threading is a wall-clock-only
  /// optimization (see DESIGN.md, "Funneled threading model").
  int threads = 0;
};

/// How the z-axis ancestor-reduction payloads are packed on the wire.
enum class ZRedPacking {
  /// Every allocated ancestor block travels, zeros included — the paper's
  /// scheme, byte-identical to the historical drivers.
  Dense,
  /// Each chunk carries a per-block presence bitmap and omits blocks whose
  /// local accumulation is still entirely zero (common for ancestors a
  /// subtree never touched). Numerically identical — skipped blocks
  /// contribute nothing — but the reduction volume W_red shrinks. Savings
  /// are reported in RankStats::zred_* (see comm_stats.hpp). Kept beside
  /// Targeted because it is faster on some configurations (EXPERIMENTS.md,
  /// "Retired wire formats").
  Sparse,
  /// One-sided delivery: ancestor contributions are scatter_accumulate'd
  /// into an RMA window over the owner's receive staging instead of being
  /// exchanged pairwise — a scalar-granularity presence bitmap plus the
  /// nonzero scalars travel, so raggedness *inside* locally-touched blocks
  /// is elided too (Sparse only skips whole all-zero blocks). Numerically
  /// identical: the owner adds the staged dense stream in the same order
  /// as Dense. Savings land in the same RankStats::zred_* counters and
  /// reconcile byte-exactly: received + zred_saved == dense received.
  Targeted,
};

/// Knobs of the 3D driver: the per-level z-axis ancestor reduction. The
/// pairwise reduction is always chunked into non-blocking messages drained
/// only when their elimination-forest level is factored, overlapping the
/// reduction transfer with the 2D factorization of deeper levels.
struct ZRedOptions {
  /// Ancestor supernodes per reduction message (>= 1). 1 reproduces the
  /// historical per-supernode chunking; larger values trade overlap
  /// granularity for fewer messages.
  int chunk_snodes = 1;
  /// Wire format of the reduction payloads; Dense is byte-identical to the
  /// historical drivers, Sparse and Targeted are the opt-in volume
  /// optimizations.
  ZRedPacking packing = ZRedPacking::Dense;
};

/// Validates the 2D panel-pipeline options once, at engine entry.
inline void validate_panel_options(const PanelOptions& opt) {
  SLU3D_CHECK(opt.lookahead >= 0,
              "pipeline: lookahead must be non-negative (0 disables pipelining)");
  SLU3D_CHECK(opt.lookahead <= kMaxPanelLookahead,
              "pipeline: lookahead exceeds the stash slot pool bound "
              "(kMaxPanelLookahead)");
  SLU3D_CHECK(opt.tag_base >= 0, "pipeline: tag_base must be non-negative");
  SLU3D_CHECK(opt.packing == PanelPacking::Dense ||
                  opt.packing == PanelPacking::Targeted,
              "pipeline: unknown PanelPacking value");
  SLU3D_CHECK(opt.threads >= 0,
              "pipeline: threads must be >= 0 (0 = SLU3D_THREADS env or 1)");
}

/// Validates the z-reduction options once, at engine entry.
inline void validate_zred_options(const ZRedOptions& opt) {
  SLU3D_CHECK(opt.chunk_snodes > 0,
              "pipeline: reduction chunk size (chunk_snodes) must be positive");
  SLU3D_CHECK(opt.packing == ZRedPacking::Dense ||
                  opt.packing == ZRedPacking::Sparse ||
                  opt.packing == ZRedPacking::Targeted,
              "pipeline: unknown ZRedPacking value");
}

}  // namespace slu3d::pipeline
