// The shared 2D panel-pipeline engine. One supernode flows through
//   panel_phase:  diagonal factorization + diagonal broadcast + panel
//                 solves (variant policy), then panel broadcast into a
//                 stash slot (engine),
//   schur_phase:  drain of the outstanding broadcasts (engine) + the
//                 owner-only-update Schur complement (variant policy per
//                 block pair),
// pipelined through the elimination-tree lookahead window of §II-F: panel
// phases of up to `lookahead` future supernodes are issued as soon as all
// their updaters have completed, so their non-blocking broadcasts overlap
// earlier supernodes' Schur updates. Only the diagonal broadcasts (inside
// the variant's factor_and_solve) stay blocking.
//
// The engine owns everything the LU and Cholesky drivers used to duplicate:
// the lookahead schedule, the stash slot pool (flat storage borrowed from
// the per-rank scratch arena), entry layout, the non-blocking post/drain
// protocol, and the deferred-relay bookkeeping the symmetric variant needs
// for its transposed-role re-broadcasts. A VariantPolicy supplies only the
// numeric identity of the variant:
//
//   using Factors = ...;            // Dist2dFactors or DistCholFactors
//   static constexpr bool kSymmetric;   // triangle-only Schur pairs
//   static constexpr int kRowPanelOp;   // tag op of the row-role bcast
//   factor_and_solve(eng, k, ns)    // diag factor/bcast + panel solves
//   row_payload(F, k, a)            // owner's row-role (L) block data
//   post_col_entries(eng, stash, k, ns)  // column-role broadcast pattern
//   wants_target(F, bi, bj)         // is the Schur target materialized?
//   schur_pair(eng, bi, mi, ld, bj, mj, cd, ns, out)  // GEMM + scatter
//
// Tags, post order, and payload layout are exactly the historical drivers',
// so dense-mode per-rank byte/message counters are unchanged (pinned by
// PipelineGolden.* in tests/test_pipeline.cpp).
//
// PanelPacking::Targeted (opt-in) replaces each role's broadcasts with
// one-sided RMA delivery (see DESIGN.md "Targeted one-sided delivery"):
// the data root computes every peer's block *footprint* — the entries that
// peer's Schur pairs (or, symmetric variant, relay duties) actually read —
// from the replicated symbolic structure and issues ONE footprint-sized
// put per peer into the role's window (per-entry bitmap words + present
// scalars, concatenated). Peers with an empty footprint get no message at
// all; both sides evaluate the same symbolic predicate, so no handshake or
// presence frame travels. Entries are never pruned, so the Schur pair set,
// charged flops, and FP order are identical to Dense — factors stay
// bitwise identical — while a peer receives only the entries it reads,
// and only their nonzero scalars.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "numeric/dense_kernels.hpp"
#include "numeric/kernel_scratch.hpp"
#include "pipeline/options.hpp"
#include "simmpi/process_grid.hpp"
#include "support/check.hpp"
#include "symbolic/block_structure.hpp"
#include "threads/thread_pool.hpp"

namespace slu3d::pipeline {

/// Window tags of the targeted-mode RMA windows (one per role per engine
/// run, created collectively at run() entry). These live in the runtime's
/// separate RMA tag namespace, so they cannot collide with the per-snode
/// broadcast tags; the offsets merely keep the two roles' windows apart.
inline constexpr int kRowWinTag = 6;  ///< row-role window, over the row comm
inline constexpr int kColWinTag = 7;  ///< col-role window, over the col comm

/// One broadcast panel block staged for the Schur phase: `m*ns` (row role)
/// or `ns*m` (column role) values at `offset` in the stash's flat storage.
/// Under PanelPacking::Targeted the role's root also records each entry's
/// presence-bitmap location (`bits_off`, in 64-bit words into its bitmap
/// scratch) and nonzero-scalar count (`packed`), and `in_footprint` marks
/// the entries this rank actually reads (always all of them on the root):
/// the put wire carries exactly the marked entries, in entry order.
struct StashEntry {
  int panel_idx;
  std::size_t offset;
  index_t m;
  std::size_t bits_off = 0;
  std::size_t packed = 0;
  bool in_footprint = false;
};

/// One posted non-blocking operation, drained in post order at the Schur
/// phase. `relay_pi < 0` is a plain outstanding request; `relay_pi >= 0` is
/// the symmetric variant's deferred transposed-role re-broadcast: the relay
/// rank copies its row-role payload (offset `row_off`, an earlier op) to
/// `col_off` and re-broadcasts it only at the drain, never as a blocking
/// wait inside panel_phase (which could deadlock against peers whose
/// forwarding waits also run at their drains). A valid `delivery` marks a
/// targeted-mode window delivery instead: the drain waits it and parses
/// the landed footprint put of role `role` (all marked entries at once).
struct PanelAsyncOp {
  sim::Request req;
  int relay_pi = -1;
  std::size_t row_off = 0, col_off = 0, elems = 0;
  int role = -1;
  sim::WindowDelivery delivery;
};

/// Broadcast panels of one in-flight supernode, stashed until its Schur
/// update has been applied. Entries are appended in ascending panel_idx
/// order; storage is one flat buffer borrowed from the per-rank scratch
/// pool, so the look-ahead hot path performs no per-supernode node
/// allocations.
struct PanelStash {
  int k = -1;  ///< supernode, or -1 when the slot is free
  std::vector<StashEntry> row_entries, col_entries;
  std::vector<real_t> storage;
  std::vector<PanelAsyncOp> ops;

  const StashEntry* find_row_entry(int pi) const {
    for (const StashEntry& e : row_entries)
      if (e.panel_idx == pi) return &e;
    return nullptr;
  }
};

template <class Policy>
class PanelEngine {
 public:
  using Factors = typename Policy::Factors;

  PanelEngine(Factors& F, sim::ProcessGrid2D& grid, const PanelOptions& opt)
      : F_(F), g_(grid), bs_(F.structure()), opt_(opt) {
    validate_panel_options(opt_);
    // Attach this rank thread's compute pool (created lazily, reused across
    // engines — one per 3D level — and resized only when the option
    // changes). All communication stays on this thread; the pool only ever
    // executes the packing / GEMM / scatter closures below.
    dense::ParallelKernels::rank_local(threads::resolve_threads(opt_.threads));
  }

  /// Factorizes the supernodes in `snodes` (ascending elimination order).
  void run(std::span<const int> snodes) {
    // Targeted mode opens its per-run RMA windows first — a collective
    // over the row (and, asymmetric variant, column) communicators, so it
    // must happen on every grid rank before any supernode traffic.
    if (targeted_packing()) create_targeted_windows(snodes);
    // Position of each supernode in the list and the latest position of
    // any updater, for the lookahead schedule. All ranks compute the same
    // schedule from the (replicated) symbolic structure.
    std::vector<int> last_upd_pos(static_cast<std::size_t>(bs_.n_snodes()), -1);
    for (int idx = 0; idx < static_cast<int>(snodes.size()); ++idx) {
      const int k = snodes[static_cast<std::size_t>(idx)];
      SLU3D_CHECK(idx == 0 || snodes[static_cast<std::size_t>(idx - 1)] < k,
                  "snodes must be ascending");
      for (const PanelBlock& blk : bs_.lpanel(k))
        last_upd_pos[static_cast<std::size_t>(blk.snode)] = idx;
    }

    std::vector<bool> fired(static_cast<std::size_t>(bs_.n_snodes()), false);
    const int n = static_cast<int>(snodes.size());
    for (int idx = 0; idx < n; ++idx) {
      const int limit = std::min(n - 1, idx + opt_.lookahead);
      for (int w = idx; w <= limit; ++w) {
        const int j = snodes[static_cast<std::size_t>(w)];
        if (!fired[static_cast<std::size_t>(j)] &&
            last_upd_pos[static_cast<std::size_t>(j)] < idx) {
          panel_phase(j);
          fired[static_cast<std::size_t>(j)] = true;
        }
      }
      schur_phase(snodes[static_cast<std::size_t>(idx)]);
    }
  }

  Factors& factors() { return F_; }
  sim::ProcessGrid2D& grid() { return g_; }
  const BlockStructure& structure() const { return bs_; }
  const PanelOptions& options() const { return opt_; }
  int tag(int k, int op) const { return opt_.tag_base + 8 * k + op; }
  bool targeted_packing() const {
    return opt_.packing == PanelPacking::Targeted;
  }

  /// 64-bit words needed for a scalar presence bitmap over `elems` values.
  static constexpr std::size_t bitmap_words(std::size_t elems) {
    return (elems + 63) / 64;
  }

  /// Packs the present scalars of `src` (per the bitmap at `bits_off`) into
  /// `dst`. The caller (a role root) computed the bitmap from the same
  /// payload, so exactly `packed` scalars are written.
  static void pack_present(std::span<const real_t> src,
                           const std::vector<std::uint64_t>& bits,
                           std::size_t bits_off, real_t* dst) {
    std::size_t p = 0;
    for (std::size_t i = 0; i < src.size(); ++i)
      if ((bits[bits_off + i / 64] >> (i % 64)) & 1) dst[p++] = src[i];
  }

  /// True if the row-role entry for block row `bi_snode` is read by the
  /// row-comm peer at rank `peer_py`: either one of that peer's Schur
  /// pairs references it (the peer's column-role entries are the panel
  /// blocks on its process column), or — symmetric variant — the peer is
  /// the entry's transposed-role relay. Purely symbolic (panel structure
  /// plus the grid-replicated wants_snode mask), so the data root and the
  /// peer evaluate it identically without any handshake.
  bool row_entry_needed(std::span<const PanelBlock> panel, int bi_snode,
                        int peer_py) const {
    if constexpr (Policy::kSymmetric) {
      if (bi_snode % g_.Py() == peer_py) return true;  // transposed relay
    }
    for (const PanelBlock& bj : panel) {
      if constexpr (Policy::kSymmetric) {
        if (bj.snode > bi_snode) break;  // ascending panel; lower triangle
      }
      if (bj.n_rows() == 0 || bj.snode % g_.Py() != peer_py) continue;
      if (Policy::wants_target(F_, bi_snode, bj.snode)) return true;
    }
    return false;
  }

  /// Column-role analogue (asymmetric variant only): true if the entry for
  /// block column `bj_snode` is read by a Schur pair of the col-comm peer
  /// at rank `peer_px` (whose row-role entries are the panel blocks on its
  /// process row).
  bool col_entry_needed(std::span<const PanelBlock> panel, int bj_snode,
                        int peer_px) const {
    for (const PanelBlock& bi : panel) {
      if (bi.n_rows() == 0 || bi.snode % g_.Px() != peer_px) continue;
      if (Policy::wants_target(F_, bi.snode, bj_snode)) return true;
    }
    return false;
  }

  bool entry_needed(std::span<const PanelBlock> panel, int snode, int role,
                    int peer) const {
    return role == 0 ? row_entry_needed(panel, snode, peer)
                     : col_entry_needed(panel, snode, peer);
  }

  /// Targeted-mode replacement for one role's broadcasts. The data root
  /// fills its dense stash storage locally, builds one bitmap + packed
  /// cache over all entries, and issues one put per peer whose footprint
  /// is non-empty — the concatenation, in entry order, of [bitmap words |
  /// present scalars] for exactly the entries that peer reads. Peers
  /// register the put with Window::expect (the window's per-origin
  /// non-overtaking keeps slot contents intact until the matching wait)
  /// and parse it into dense storage at the Schur drain. Savings are
  /// booked on the root against the dense-equivalent volume; because put
  /// headers are uncharged, the accounting identity
  ///   dense_equivalent - wire == saved
  /// holds byte-exactly (and message-exactly) per role per supernode.
  template <class PayloadFn>
  void targeted_role(PanelStash& stash, int role, int k, index_t ns,
                     std::span<const PanelBlock> panel, PayloadFn&& payload) {
    std::vector<StashEntry>& entries =
        role == 0 ? stash.row_entries : stash.col_entries;
    if (entries.empty()) return;  // comm-uniform: entries depend on px/py only
    sim::Comm& comm = role == 0 ? g_.row() : g_.col();
    sim::Window& win = role == 0 ? row_win_ : col_win_;
    const int root = role == 0 ? k % g_.Py() : k % g_.Px();
    const std::size_t stride = role == 0 ? row_stride_ : col_stride_;
    const std::size_t slot = static_cast<std::size_t>(
        snode_pos_[static_cast<std::size_t>(k)] % n_slots_);
    if (comm.rank() != root) {
      bool any = false;
      for (StashEntry& e : entries) {
        const int s = panel[static_cast<std::size_t>(e.panel_idx)].snode;
        e.in_footprint = entry_needed(panel, s, role, comm.rank());
        any = any || e.in_footprint;
      }
      if (!any) return;  // empty footprint: the root sends nothing either
      PanelAsyncOp& op = stash.ops.emplace_back();
      op.role = role;
      op.delivery = win.expect(root);
      return;
    }
    // Root: dense local fill + per-entry bitmap/packed cache. Entries
    // write disjoint storage/bitmap/cache regions, so both passes fan out
    // across the pool.
    std::size_t total_words = 0, dense_scalars = 0;
    for (StashEntry& e : entries) {
      const auto elems =
          static_cast<std::size_t>(e.m) * static_cast<std::size_t>(ns);
      e.in_footprint = true;  // the root reads everything locally
      e.bits_off = total_words;
      total_words += bitmap_words(elems);
      dense_scalars += elems;
    }
    bits_scratch_.assign(total_words, 0);
    threads::parallel_for(
        static_cast<std::ptrdiff_t>(entries.size()), [&](std::ptrdiff_t t, int) {
          StashEntry& e = entries[static_cast<std::size_t>(t)];
          const auto elems =
              static_cast<std::size_t>(e.m) * static_cast<std::size_t>(ns);
          const std::span<const real_t> src = payload(e);
          SLU3D_CHECK(src.size() == elems, "panel payload size mismatch");
          std::copy(src.begin(), src.end(), stash.storage.data() + e.offset);
          std::size_t np = 0;
          for (std::size_t i = 0; i < elems; ++i)
            if (src[i] != 0.0) {
              bits_scratch_[e.bits_off + i / 64] |= std::uint64_t{1} << (i % 64);
              ++np;
            }
          e.packed = np;
        });
    pack_off_.resize(entries.size());
    std::size_t total_packed = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      pack_off_[i] = total_packed;
      total_packed += entries[i].packed;
    }
    packed_cache_.resize(total_packed);
    threads::parallel_for(
        static_cast<std::ptrdiff_t>(entries.size()), [&](std::ptrdiff_t t, int) {
          const StashEntry& e = entries[static_cast<std::size_t>(t)];
          const auto elems =
              static_cast<std::size_t>(e.m) * static_cast<std::size_t>(ns);
          pack_present({stash.storage.data() + e.offset, elems}, bits_scratch_,
                       e.bits_off,
                       packed_cache_.data() + pack_off_[static_cast<std::size_t>(t)]);
        });
    const int p = comm.size();
    std::size_t wired = 0;
    offset_t n_puts = 0;
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      put_buf_.clear();
      for (std::size_t i = 0; i < entries.size(); ++i) {
        const StashEntry& e = entries[i];
        const int s = panel[static_cast<std::size_t>(e.panel_idx)].snode;
        if (!entry_needed(panel, s, role, r)) continue;
        const auto elems =
            static_cast<std::size_t>(e.m) * static_cast<std::size_t>(ns);
        for (std::size_t w = 0; w < bitmap_words(elems); ++w)
          put_buf_.push_back(std::bit_cast<real_t>(bits_scratch_[e.bits_off + w]));
        put_buf_.insert(
            put_buf_.end(),
            packed_cache_.begin() + static_cast<std::ptrdiff_t>(pack_off_[i]),
            packed_cache_.begin() +
                static_cast<std::ptrdiff_t>(pack_off_[i] + e.packed));
      }
      if (put_buf_.empty()) continue;  // empty footprint: no message at all
      win.put(r, slot * stride, put_buf_);
      wired += put_buf_.size();
      ++n_puts;
    }
    if (p > 1) {
      sim::RankStats& st = comm.stats();
      const auto dense_bytes = static_cast<offset_t>(
          static_cast<std::size_t>(p - 1) * dense_scalars * sizeof(real_t));
      st.panel_dense_bytes += dense_bytes;
      st.panel_saved_bytes +=
          dense_bytes - static_cast<offset_t>(wired * sizeof(real_t));
      st.panel_saved_msgs += static_cast<offset_t>(p - 1) *
                                 static_cast<offset_t>(entries.size()) -
                             n_puts;
    }
  }

  /// Parses this rank's footprint put — landed in the role window's slot
  /// for this supernode — into the dense stash storage. Must run right
  /// after the matching delivery's wait: the slot is rewritten once its
  /// next tenant's put is applied (which can only happen during a later
  /// delivery's wait, after this supernode retired).
  void parse_targeted(PanelStash& stash, int role, index_t ns) const {
    const std::vector<StashEntry>& entries =
        role == 0 ? stash.row_entries : stash.col_entries;
    const sim::Window& win = role == 0 ? row_win_ : col_win_;
    const std::size_t stride = role == 0 ? row_stride_ : col_stride_;
    const std::size_t slot = static_cast<std::size_t>(
        snode_pos_[static_cast<std::size_t>(stash.k)] % n_slots_);
    const real_t* wire = win.local().data() + slot * stride;
    std::size_t pos = 0;
    for (const StashEntry& e : entries) {
      if (!e.in_footprint) continue;
      const auto elems =
          static_cast<std::size_t>(e.m) * static_cast<std::size_t>(ns);
      const std::size_t words = bitmap_words(elems);
      const real_t* wbits = wire + pos;
      const real_t* packed = wire + pos + words;
      real_t* dst = stash.storage.data() + e.offset;
      std::size_t pp = 0;
      for (std::size_t d = 0; d < elems; ++d) {
        const auto wb = std::bit_cast<std::uint64_t>(wbits[d / 64]);
        dst[d] = ((wb >> (d % 64)) & 1) ? packed[pp++] : 0.0;
      }
      pos += words + pp;
    }
  }

 private:
  /// Collective setup of the targeted-mode RMA windows, once per run.
  /// Each role's window is n_slots uniform slots of `stride` elements,
  /// where the stride is the max dense-bound footprint wire size over
  /// every (supernode, peer) of the comm — a quantity every member
  /// computes identically from the symbolic structure, so put offsets
  /// need no negotiation. A supernode's slot is its schedule position mod
  /// (lookahead+1): any two live supernodes sit within lookahead+1
  /// schedule positions of each other, so live slots never collide, and a
  /// slot's previous tenant has always parsed its put (at its Schur
  /// drain) before the next tenant's put can be applied.
  void create_targeted_windows(std::span<const int> snodes) {
    snode_pos_.assign(static_cast<std::size_t>(bs_.n_snodes()), -1);
    for (int w = 0; w < static_cast<int>(snodes.size()); ++w)
      snode_pos_[static_cast<std::size_t>(snodes[static_cast<std::size_t>(w)])] =
          w;
    n_slots_ = std::min(opt_.lookahead + 1,
                        std::max(1, static_cast<int>(snodes.size())));
    row_stride_ = col_stride_ = 0;
    for (const int k : snodes) {
      const index_t ns = bs_.snode_size(k);
      if (ns == 0) continue;
      const auto panel = bs_.lpanel(k);
      for (int r = 0; r < g_.Py(); ++r) {
        if (r == k % g_.Py()) continue;
        std::size_t wire = 0;
        for (const PanelBlock& blk : panel) {
          if (blk.n_rows() == 0 || blk.snode % g_.Px() != g_.px()) continue;
          if (!row_entry_needed(panel, blk.snode, r)) continue;
          const auto elems = static_cast<std::size_t>(blk.n_rows()) *
                             static_cast<std::size_t>(ns);
          wire += bitmap_words(elems) + elems;
        }
        row_stride_ = std::max(row_stride_, wire);
      }
      if constexpr (!Policy::kSymmetric) {
        for (int r = 0; r < g_.Px(); ++r) {
          if (r == k % g_.Px()) continue;
          std::size_t wire = 0;
          for (const PanelBlock& blk : panel) {
            if (blk.n_rows() == 0 || blk.snode % g_.Py() != g_.py()) continue;
            if (!col_entry_needed(panel, blk.snode, r)) continue;
            const auto elems = static_cast<std::size_t>(blk.n_rows()) *
                               static_cast<std::size_t>(ns);
            wire += bitmap_words(elems) + elems;
          }
          col_stride_ = std::max(col_stride_, wire);
        }
      }
    }
    row_win_buf_.assign(row_stride_ * static_cast<std::size_t>(n_slots_), 0.0);
    row_win_ = g_.row().win_create(opt_.tag_base + kRowWinTag, row_win_buf_,
                                   sim::CommPlane::XY);
    if constexpr (!Policy::kSymmetric) {
      col_win_buf_.assign(col_stride_ * static_cast<std::size_t>(n_slots_),
                          0.0);
      col_win_ = g_.col().win_create(opt_.tag_base + kColWinTag, col_win_buf_,
                                     sim::CommPlane::XY);
    }
  }

  /// Claims a free stash slot. The pool invariant — at most lookahead+1
  /// slots live at once, and never two slots for the same supernode (the
  /// per-supernode tags would alias their broadcasts) — is what makes the
  /// linear scans here and in stash_find sound; both halves are checked.
  PanelStash& stash_alloc(int k) {
    PanelStash* free_slot = nullptr;
    int live = 0;
    for (PanelStash& s : stash_) {
      SLU3D_CHECK(s.k != k,
                  "stash slot for this supernode is already live (its panel "
                  "tags would alias)");
      if (s.k < 0) {
        if (free_slot == nullptr) free_slot = &s;
      } else {
        ++live;
      }
    }
    SLU3D_CHECK(live <= opt_.lookahead,
                "stash pool exceeds lookahead+1 live slots");
    if (free_slot == nullptr) {
      stash_.emplace_back();
      free_slot = &stash_.back();
    }
    free_slot->k = k;
    return *free_slot;
  }

  PanelStash* stash_find(int k) {
    for (PanelStash& s : stash_)
      if (s.k == k) return &s;
    return nullptr;
  }

  void panel_phase(int k) {
    const index_t ns = bs_.snode_size(k);
    if (ns == 0) return;
    PanelStash& stash = stash_alloc(k);

    // Diagonal factorization, diagonal broadcast, and panel solves are the
    // variant's identity (LU: GETRF + row/col diag bcast + L/U TRSMs;
    // Cholesky: POTRF + column diag bcast + L TRSM). The diagonal is
    // consumed by the panel solves immediately, so those broadcasts are
    // the pipeline's only blocking ones.
    Policy::factor_and_solve(*this, k, ns, diag_buf_);

    // Panel broadcast. A row-role entry (block row a with a % Px == px)
    // travels along this process row; a column-role entry (a % Py == py)
    // travels along a process column (the variant decides which one and
    // how). Empty (ragged) blocks are skipped outright instead of
    // broadcasting 0-byte payloads. First lay out the flat stash storage —
    // spans handed to ibcast must stay put, and the offsets double as the
    // parse targets in targeted mode — then post the broadcasts.
    const auto panel = bs_.lpanel(k);
    std::size_t total = 0;
    for (int pi = 0; pi < static_cast<int>(panel.size()); ++pi) {
      const PanelBlock& blk = panel[static_cast<std::size_t>(pi)];
      const index_t m = blk.n_rows();
      if (m == 0) continue;
      const auto elems =
          static_cast<std::size_t>(m) * static_cast<std::size_t>(ns);
      if (blk.snode % g_.Px() == g_.px()) {
        stash.row_entries.push_back({pi, total, m});
        total += elems;
      }
      if (blk.snode % g_.Py() == g_.py()) {
        stash.col_entries.push_back({pi, total, m});
        total += elems;
      }
    }
    stash.storage = dense::KernelScratch::per_rank().borrow();
    stash.storage.resize(total, 0.0);

    // Row role: root is the owning process column's representative; the
    // payload is the owner's L block. Identical for both variants.
    const int pyk = k % g_.Py();
    if (targeted_packing()) {
      // One-sided mode: the whole row role is one footprint put per peer
      // (root) or one expected delivery (receivers with a non-empty
      // footprint). The root's storage is dense-filled inside, so the
      // symmetric variant's relay copies see dense data as usual.
      targeted_role(stash, /*role=*/0, k, ns, panel, [&](const StashEntry& e) {
        return Policy::row_payload(
            F_, k, panel[static_cast<std::size_t>(e.panel_idx)].snode);
      });
    } else {
      const bool in_pcol = g_.py() == pyk;
      for (const StashEntry& e : stash.row_entries) {
        const std::span<real_t> buf{
            stash.storage.data() + e.offset,
            static_cast<std::size_t>(e.m) * static_cast<std::size_t>(ns)};
        if (in_pcol) {
          const std::span<const real_t> src = Policy::row_payload(
              F_, k, panel[static_cast<std::size_t>(e.panel_idx)].snode);
          SLU3D_CHECK(src.size() == buf.size(), "owner missing L block");
          std::copy(src.begin(), src.end(), buf.begin());
        }
        stash.ops.emplace_back().req = g_.row().ibcast(
            pyk, tag(k, Policy::kRowPanelOp), buf, sim::CommPlane::XY);
      }
    }

    // Column role: LU broadcasts (or, targeted, puts) the owner's U blocks
    // down the diagonal owner's process column; the symmetric variant
    // relays the transposed L payload through the (a%Px, a%Py) rank,
    // possibly deferred — always as dense broadcasts.
    Policy::post_col_entries(*this, stash, k, ns);
  }

  void schur_phase(int k) {
    const index_t ns = bs_.snode_size(k);
    if (ns == 0) return;
    PanelStash* stash = stash_find(k);
    SLU3D_CHECK(stash != nullptr, "panel not factored before Schur phase");

    // Drain the outstanding broadcasts only now, in post order: every
    // update between the panel's post and this point has overlapped the
    // transfer. Deferred relay roots forward as soon as their row-role
    // payload (an earlier op) is in; the root post forwards to the column
    // subtree immediately and completes.
    const auto panel = bs_.lpanel(k);
    for (PanelAsyncOp& op : stash->ops) {
      if (op.delivery.valid()) {
        // Targeted-mode footprint put: waiting applies it (and any earlier
        // same-origin puts, each into its own slot), then the parse runs
        // immediately — before any other delivery's wait can overwrite the
        // slot — expanding every footprint entry of the role at once. The
        // symmetric variant's deferred relays sit later in `ops`, so their
        // row-role source regions are dense by the time they copy.
        op.delivery.wait();
        parse_targeted(*stash, op.role, ns);
        continue;
      }
      if (op.relay_pi < 0) {
        op.req.wait();
        continue;
      }
      std::copy_n(stash->storage.data() + op.row_off, op.elems,
                  stash->storage.data() + op.col_off);
      const PanelBlock& blk = panel[static_cast<std::size_t>(op.relay_pi)];
      const std::span<real_t> buf{stash->storage.data() + op.col_off,
                                  op.elems};
      g_.col().ibcast(blk.snode % g_.Px(), tag(k, Policy::kColPanelOp), buf,
                      sim::CommPlane::XY);
    }
    stash->ops.clear();

    // Build the Schur pair list and charge the modelled flops serially on
    // this (rank) thread, in the historical nested order — the logical
    // clocks and RankStats are thread-count independent by construction
    // (no communication happens between the charges, so their order within
    // the phase does not move any timestamp). Workers then execute the
    // GEMM + scatter of each pair: distinct pairs scatter into distinct
    // owned (bi, bj) target blocks, so the partitions are disjoint and no
    // factor datum needs an atomic.
    schur_pairs_.clear();
    for (const StashEntry& le : stash->row_entries) {
      const PanelBlock& bi = panel[static_cast<std::size_t>(le.panel_idx)];
      for (const StashEntry& ue : stash->col_entries) {
        const PanelBlock& bj = panel[static_cast<std::size_t>(ue.panel_idx)];
        if constexpr (Policy::kSymmetric) {
          if (bj.snode > bi.snode) break;  // lower triangle only
        }
        if (!Policy::wants_target(F_, bi.snode, bj.snode)) continue;
        g_.grid().add_compute(dense::gemm_flops(le.m, ue.m, ns),
                              sim::ComputeKind::SchurUpdate);
        schur_pairs_.push_back({&le, &ue});
      }
    }
    threads::parallel_for(
        static_cast<std::ptrdiff_t>(schur_pairs_.size()),
        [&](std::ptrdiff_t t, int) {
          const auto [le, ue] = schur_pairs_[static_cast<std::size_t>(t)];
          const PanelBlock& bi = panel[static_cast<std::size_t>(le->panel_idx)];
          const PanelBlock& bj = panel[static_cast<std::size_t>(ue->panel_idx)];
          auto scratch = dense::KernelScratch::per_rank().stage_zero(
              static_cast<std::size_t>(le->m) * static_cast<std::size_t>(ue->m));
          Policy::schur_pair(*this, bi, le->m,
                             stash->storage.data() + le->offset, bj, ue->m,
                             stash->storage.data() + ue->offset, ns, scratch);
        });
    dense::KernelScratch::per_rank().recycle(std::move(stash->storage));
    stash->storage = std::vector<real_t>{};
    stash->row_entries.clear();
    stash->col_entries.clear();
    stash->k = -1;
  }

  /// One Schur block pair of the current supernode, flattened for the
  /// pool: row-role (L) entry x column-role entry.
  struct SchurPair {
    const StashEntry* le;
    const StashEntry* ue;
  };

  Factors& F_;
  sim::ProcessGrid2D& g_;
  const BlockStructure& bs_;
  PanelOptions opt_;
  std::vector<PanelStash> stash_;  ///< slot pool, <= lookahead+1 live slots
  std::vector<real_t> diag_buf_;   ///< reusable diagonal broadcast buffer
  // Targeted-mode state (unused otherwise). The window buffers must not
  // relocate while the windows are alive, and the engine itself anchors
  // the Window objects that pending WindowDelivery receipts point into.
  sim::Window row_win_, col_win_;  ///< per-run RMA windows, one per role
  std::vector<real_t> row_win_buf_, col_win_buf_;  ///< slotted landing zones
  std::vector<int> snode_pos_;     ///< schedule position per supernode
  std::size_t row_stride_ = 0, col_stride_ = 0;  ///< slot strides (elements)
  int n_slots_ = 1;                ///< landing slots per window (lookahead+1)
  std::vector<std::uint64_t> bits_scratch_;  ///< root-side bitmap build
  std::vector<real_t> packed_cache_;  ///< root-side packed scalars, all entries
  std::vector<std::size_t> pack_off_;  ///< per-entry offsets into packed_cache_
  std::vector<real_t> put_buf_;    ///< per-peer put assembly buffer
  std::vector<SchurPair> schur_pairs_;  ///< reusable pair work list
};

}  // namespace slu3d::pipeline
