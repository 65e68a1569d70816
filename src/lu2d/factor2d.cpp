// The 2D panel-pipeline engine of factorize_2d. One supernode flows through
//   panel_phase:  GETRF at the diagonal owner, point-to-point delivery of
//                 the factored diagonal block to the ranks that solve
//                 against it, the L/U panel TRSMs, then the non-blocking
//                 panel transfers into a stash slot,
//   schur_phase:  drain of the outstanding transfers + the
//                 owner-only-update Schur complement,
// pipelined through the elimination-tree lookahead window of §II-F over a
// static leaves-first schedule: the engine visits its node list by
// ascending ND height, ties by id (BlockStructure::leaves_first, the
// forward solve's order), and panel phases of up to `lookahead`
// supernodes ahead in that order are issued as soon as all their updaters
// have completed, so their non-blocking transfers overlap earlier
// supernodes' Schur updates. The window mostly holds independent leaves
// and subtrees rather than the parents of the supernodes just before
// them, as postorder would. An unset window is panel_lookahead of this
// plane: open on planes of 64 or more ranks.
//
// A stash's dense storage is allocated when its panels are posted on
// Wire::Dense, whose ibcast writes into it, and at its Schur drain on
// Wire::Targeted: a receiver parses its footprint message into it there,
// and a role root copies in its own L/U blocks, final since the panel
// solve. So a Targeted rank holds one stash's storage at a time, whatever
// the window.
//
// The diagonal block of k goes, as one non-blocking send from its owner,
// only to the ranks that run a TRSM against it: the owner of a non-empty L
// block of k in the owner's process column and the owner of a non-empty U
// block in its process row. Each of them receives it, blocking, right
// before its panel solves; every other rank neither waits for it nor
// receives it. Both sides evaluate that predicate from the replicated
// lpanel(k), so no handshake travels.
//
// Every point-to-point send of the panel phase goes nearest ancestor
// first: the sender walks lpanel(k) in ascending order and serves each
// non-empty block's peer the first time it appears, so the consumers of
// the blocks eliminated soonest get their data first (the diagonal: for
// block a the L holder a % Px down the column, then the U holder a % Py
// along the row; a footprint message: the role peer b % role_size).
//
// Supernode k's panel travels in two mirrored roles. A row-role entry is
// the L block (a, k) of a panel block a with a % Px == px, sent along
// this process row from the diagonal owner's process column; a
// column-role entry is the U block (k, a) of a panel block a with
// a % Py == py, sent down this process column from the diagonal
// owner's process row. Each Schur pair multiplies one entry of each role.
// Tags are 8k + op: the diagonal along the owner's process row (op 0) and
// column (op 1), then the row role (op 2) and column role (op 3), posted
// in that order. The Dense and Targeted byte/message totals and critical
// paths are pinned by Fig9Configs/GoldenCommCounters in
// tests/test_pipeline.cpp.
//
// Wire::Dense broadcasts each role entry over a binomial tree of the
// whole process row or column. Wire::Targeted (the service's wire; the
// engine defaults to Dense) replaces each role's broadcasts with
// footprint messages (see DESIGN.md "Targeted footprint messages"): the
// data root computes every peer's block *footprint* — the entries that
// peer's Schur pairs actually read — from the replicated symbolic
// structure and sends ONE point-to-point message per peer on the role's
// tag: the frames (encode_frame) of the footprint entries, concatenated in
// entry order. Peers with an empty footprint get no message at all; both
// sides evaluate the same symbolic predicate, so no handshake travels.
// Entries are never pruned, so the Schur pair set, charged flops, and FP
// order are identical to Dense — factors stay bitwise identical — while a
// peer receives only the entries it reads, and only their nonzero scalars.
// The same LuOptions::wire picks factorize_3d's z-reduction format, and
// the engine validates both of its fields on entry.
#include "lu2d/factor2d.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "numeric/dense_kernels.hpp"
#include "numeric/kernel_scratch.hpp"
#include "numeric/schur.hpp"
#include "support/check.hpp"

namespace slu3d {

namespace {

using sim::CommPlane;
using sim::ComputeKind;

constexpr int kRowRole = 0;
constexpr int kColRole = 1;
constexpr int kDiagRowOp = 0;  ///< diagonal to the U holders of its row
constexpr int kDiagColOp = 1;  ///< diagonal to the L holders of its column
/// Tag op of each role's panel transfers (broadcasts or footprint
/// messages).
constexpr std::array<int, 2> kPanelOp = {2, 3};

/// Resolves the window for a Px x Py plane and checks every option a
/// caller can set, once, at engine entry.
int resolve_lookahead(const LuOptions& opt, int Px, int Py) {
  const int lookahead = opt.lookahead.value_or(panel_lookahead(Px, Py));
  SLU3D_CHECK(lookahead >= 0,
              "lu2d: lookahead must be non-negative (0 disables pipelining)");
  SLU3D_CHECK(lookahead <= kMaxPanelLookahead,
              "lu2d: lookahead exceeds the stash slot pool bound "
              "(kMaxPanelLookahead)");
  SLU3D_CHECK(opt.wire == Wire::Dense || opt.wire == Wire::Targeted,
              "lu2d: unknown Wire value");
  return lookahead;
}

/// True if this rank holds a non-empty block of `panel` on a comm of `n`
/// members, where block b lives on member b % n: an L holder of the
/// process column (n = Px, me = px) or a U holder of the process row
/// (n = Py, me = py). Purely symbolic, like entry_needed.
bool holds_block(std::span<const PanelBlock> panel, int n, int me) {
  return std::any_of(panel.begin(), panel.end(), [&](const PanelBlock& b) {
    return b.n_rows() > 0 && b.snode % n == me;
  });
}

/// The first-visit filter of a nearest-ancestor walk: a sender walking
/// lpanel(k) in ascending order serves each peer the first time one of
/// its blocks appears. reset() marks the sender itself as served.
class PeerWalk {
 public:
  void reset(int n, int self) {
    seen_.assign(static_cast<std::size_t>(n), false);
    seen_[static_cast<std::size_t>(self)] = true;
  }
  /// True exactly once per peer between resets.
  bool first(int peer) {
    if (seen_[static_cast<std::size_t>(peer)]) return false;
    seen_[static_cast<std::size_t>(peer)] = true;
    return true;
  }

 private:
  std::vector<bool> seen_;
};

/// Adds V into the owned target block (bi, bj) — the distributed version
/// of schur_scatter_add.
void scatter_local(Dist2dFactors& F, const BlockStructure& bs, int bi, int bj,
                   std::span<const index_t> rows_i,
                   std::span<const index_t> cols_j, std::span<const real_t> v) {
  const auto mi = static_cast<index_t>(rows_i.size());
  const auto mj = static_cast<index_t>(cols_j.size());
  if (bi == bj) {
    SLU3D_CHECK(F.has_diag(bi), "Schur target diag not owned");
    auto d = F.diag(bi);
    const index_t f = bs.first_col(bi);
    const index_t nsd = bs.snode_size(bi);
    for (index_t c = 0; c < mj; ++c)
      for (index_t r = 0; r < mi; ++r)
        d[static_cast<std::size_t>((rows_i[static_cast<std::size_t>(r)] - f) +
                                   (cols_j[static_cast<std::size_t>(c)] - f) * nsd)] +=
            v[static_cast<std::size_t>(r + c * mi)];
    return;
  }
  if (bi > bj) {  // L panel of bj, ancestor block bi
    OwnedBlock* blk = F.find_lblock(bj, bi);
    SLU3D_CHECK(blk != nullptr, "Schur target L block not owned");
    const auto& brows =
        bs.lpanel(bj)[static_cast<std::size_t>(blk->panel_idx)].rows;
    auto pos = dense::KernelScratch::per_rank().index_stage(
        static_cast<std::size_t>(mi));
    locate_sorted_subset(rows_i, brows, pos);
    const auto m = brows.size();
    const index_t f = bs.first_col(bj);
    for (index_t c = 0; c < mj; ++c)
      for (index_t r = 0; r < mi; ++r)
        blk->data[static_cast<std::size_t>(pos[static_cast<std::size_t>(r)]) +
                  static_cast<std::size_t>(cols_j[static_cast<std::size_t>(c)] - f) * m] +=
            v[static_cast<std::size_t>(r + c * mi)];
    return;
  }
  // bi < bj: U panel of bi, ancestor block bj.
  OwnedBlock* blk = F.find_ublock(bi, bj);
  SLU3D_CHECK(blk != nullptr, "Schur target U block not owned");
  const auto& bcols =
      bs.lpanel(bi)[static_cast<std::size_t>(blk->panel_idx)].rows;
  auto pos = dense::KernelScratch::per_rank().index_stage(
      static_cast<std::size_t>(mj));
  locate_sorted_subset(cols_j, bcols, pos);
  const auto nsu = static_cast<std::size_t>(bs.snode_size(bi));
  const index_t f = bs.first_col(bi);
  for (index_t c = 0; c < mj; ++c)
    for (index_t r = 0; r < mi; ++r)
      blk->data[static_cast<std::size_t>(rows_i[static_cast<std::size_t>(r)] - f) +
                static_cast<std::size_t>(pos[static_cast<std::size_t>(c)]) * nsu] +=
          v[static_cast<std::size_t>(r + c * mi)];
}

/// One broadcast panel block staged for the Schur phase: `m*ns` (row role)
/// or `ns*m` (column role) values at `offset` in the stash's flat storage.
/// Under Wire::Targeted `in_footprint` marks the entries this rank
/// actually reads (always all of them on the root), and the role's root
/// records where each entry's frame sits in its frame cache (`frame_off`,
/// `frame_len`): a footprint message carries exactly the marked entries'
/// frames, in entry order.
struct StashEntry {
  int panel_idx;
  std::size_t offset;
  index_t m;
  std::size_t frame_off = 0;
  std::size_t frame_len = 0;
  bool in_footprint = false;
};

/// One posted non-blocking operation, drained in post order at the Schur
/// phase: a broadcast request or, when `role` is set, a targeted footprint
/// receive whose drain parses the message into that role's entries.
struct PanelAsyncOp {
  sim::Request req;
  int role = -1;
};

/// Broadcast panels of one in-flight supernode, stashed until its Schur
/// update has been applied. Each role's entries are appended in ascending
/// panel_idx order and laid out over `size` values of flat storage: one
/// buffer borrowed from the per-rank scratch pool, so the look-ahead hot
/// path performs no per-supernode node allocations. Wire::Dense borrows it
/// at the post, Wire::Targeted at the Schur drain.
struct PanelStash {
  int k = -1;  ///< supernode, or -1 when the slot is free
  std::array<std::vector<StashEntry>, 2> entries;  ///< per role
  std::size_t size = 0;
  std::vector<real_t> storage;
  std::vector<PanelAsyncOp> ops;
};

class PanelEngine {
 public:
  PanelEngine(Dist2dFactors& F, sim::ProcessGrid2D& grid,
              const LuOptions& opt)
      : F_(F),
        g_(grid),
        bs_(F.structure()),
        wire_(opt.wire),
        lookahead_(resolve_lookahead(opt, grid.Px(), grid.Py())) {}

  /// Factorizes the supernodes in `snodes` leaves first, in the forward
  /// solve's order (BlockStructure::leaves_first).
  void run(std::span<const int> snodes) {
    const std::vector<int> order =
        bs_.leaves_first({snodes.begin(), snodes.end()});
    // Position of each supernode in that order and the latest position of
    // any updater, for the lookahead schedule. All ranks compute the same
    // schedule from the (replicated) symbolic structure.
    std::vector<int> last_upd_pos(static_cast<std::size_t>(bs_.n_snodes()), -1);
    for (int idx = 0; idx < static_cast<int>(order.size()); ++idx) {
      const int k = order[static_cast<std::size_t>(idx)];
      SLU3D_CHECK(idx == 0 || order[static_cast<std::size_t>(idx - 1)] != k,
                  "snodes must be distinct");
      for (const PanelBlock& blk : bs_.lpanel(k))
        last_upd_pos[static_cast<std::size_t>(blk.snode)] = idx;
    }

    // Before the Schur phase of position idx, the engine issues the panel
    // phase of every position w in the window [idx, idx + lookahead] whose
    // updaters' Schur phases are all behind it, in ascending w. So w fires
    // at step max(w - lookahead, last updater + 1), which lies at or
    // before w since updaters precede their ancestors leaves first.
    const int n = static_cast<int>(order.size());
    std::vector<std::vector<int>> fire_at(static_cast<std::size_t>(n));
    for (int w = 0; w < n; ++w) {
      const int j = order[static_cast<std::size_t>(w)];
      const int step = std::max({0, w - lookahead_,
                                 last_upd_pos[static_cast<std::size_t>(j)] + 1});
      SLU3D_CHECK(step <= w, "an updater follows its target leaves first");
      fire_at[static_cast<std::size_t>(step)].push_back(j);
    }
    for (int idx = 0; idx < n; ++idx) {
      for (const int j : fire_at[static_cast<std::size_t>(idx)]) panel_phase(j);
      schur_phase(order[static_cast<std::size_t>(idx)]);
    }
  }

 private:
  static int tag(int k, int op) { return 8 * k + op; }

  /// The communicator a role's panels travel on.
  sim::Comm& role_comm(int role) {
    return role == kRowRole ? g_.row() : g_.col();
  }
  /// Members of a role's communicator (Py for the row role, Px for the
  /// column role).
  int role_size(int role) const {
    return role == kRowRole ? g_.Py() : g_.Px();
  }
  /// The role's data root for supernode k: the diagonal owner's process
  /// column (row role) or process row (column role), as a comm rank.
  int role_root(int role, int k) const { return k % role_size(role); }
  /// True if this rank stashes panel block `a` in the role: block row a is
  /// on this process row (row role) or block column a on this process
  /// column (column role).
  bool stashes(int role, int a) const {
    return role == kRowRole ? a % g_.Px() == g_.px() : a % g_.Py() == g_.py();
  }
  /// The data root's payload for the role entry of panel block `a`: its L
  /// block (a, k) or U block (k, a).
  std::span<const real_t> payload(int role, int k, int a) {
    const OwnedBlock* ob =
        role == kRowRole ? F_.find_lblock(k, a) : F_.find_ublock(k, a);
    SLU3D_CHECK(ob != nullptr, "panel root missing its owned block");
    return ob->data;
  }
  /// Target block (bi, bj) is owned by this rank by construction of the
  /// stashes; skip it if its column supernode is not materialized on this
  /// grid (3D masked layouts).
  bool wants_target(int bi, int bj) const {
    return F_.wants_snode(std::min(bi, bj));
  }

  /// True if the role entry for panel block `a` is read by member `peer`
  /// of the role's comm: one of that peer's Schur pairs multiplies it with
  /// one of the peer's other-role entries — the panel blocks b with
  /// b % role_size == peer — into a target materialized on this grid.
  /// Purely symbolic (panel structure plus the grid-replicated wants_snode
  /// mask), so the data root and the peer evaluate it identically without
  /// any handshake.
  bool entry_needed(std::span<const PanelBlock> panel, int a, int role,
                    int peer) const {
    const int n = role_size(role);
    for (const PanelBlock& b : panel) {
      if (b.n_rows() == 0 || b.snode % n != peer) continue;
      if (wants_target(a, b.snode)) return true;
    }
    return false;
  }

  /// Targeted-mode replacement for one role's broadcasts. The data root
  /// encodes every entry's frame into its frame cache and sends one
  /// message per peer whose footprint is non-empty, nearest ancestor first
  /// — the frames of exactly the entries that peer reads, in entry order,
  /// on the role's tag. Only a peer b % role_size of some non-empty block
  /// b can read an entry, so the walk over lpanel(k) reaches every such
  /// peer. Peers post the matching irecv here and parse it into dense
  /// storage at the Schur drain, where the root copies in its own blocks.
  void targeted_role(PanelStash& stash, int role, int k, index_t ns,
                     std::span<const PanelBlock> panel) {
    std::vector<StashEntry>& entries =
        stash.entries[static_cast<std::size_t>(role)];
    if (entries.empty()) return;  // comm-uniform: entries depend on px/py only
    sim::Comm& comm = role_comm(role);
    const int root = role_root(role, k);
    const int role_tag = tag(k, kPanelOp[static_cast<std::size_t>(role)]);
    if (comm.rank() != root) {
      bool any = false;
      for (StashEntry& e : entries) {
        const int s = panel[static_cast<std::size_t>(e.panel_idx)].snode;
        e.in_footprint = entry_needed(panel, s, role, comm.rank());
        any = any || e.in_footprint;
      }
      if (!any) return;  // empty footprint: the root sends nothing either
      PanelAsyncOp& op = stash.ops.emplace_back();
      op.req = comm.irecv(root, role_tag, CommPlane::XY);
      op.role = role;
      return;
    }
    // Root: one frame per entry, each encoded into its own dense-bound
    // region of the frame cache. Its stash storage is filled at the drain.
    std::size_t cache = 0;
    for (StashEntry& e : entries) {
      const auto elems =
          static_cast<std::size_t>(e.m) * static_cast<std::size_t>(ns);
      e.in_footprint = true;  // the root reads everything locally
      e.frame_off = cache;
      cache += frame_bitmap_words(elems) + elems;
    }
    frame_cache_.resize(cache);
    for (StashEntry& e : entries) {
      const auto elems =
          static_cast<std::size_t>(e.m) * static_cast<std::size_t>(ns);
      const std::span<const real_t> src = payload(
          role, k, panel[static_cast<std::size_t>(e.panel_idx)].snode);
      SLU3D_CHECK(src.size() == elems, "panel payload size mismatch");
      e.frame_len = encode_frame(
          src, std::span{frame_cache_}.subspan(
                   e.frame_off, frame_bitmap_words(elems) + elems));
    }
    // One message per peer, nearest ancestor first.
    PeerWalk& walk = walks_[static_cast<std::size_t>(role)];
    walk.reset(comm.size(), root);
    for (const PanelBlock& b : panel) {
      const int r = b.snode % comm.size();
      if (b.n_rows() == 0 || !walk.first(r)) continue;
      send_buf_.clear();
      for (const StashEntry& e : entries) {
        const int s = panel[static_cast<std::size_t>(e.panel_idx)].snode;
        if (!entry_needed(panel, s, role, r)) continue;
        const auto frame =
            frame_cache_.begin() + static_cast<std::ptrdiff_t>(e.frame_off);
        send_buf_.insert(send_buf_.end(), frame,
                         frame + static_cast<std::ptrdiff_t>(e.frame_len));
      }
      if (send_buf_.empty()) continue;  // empty footprint: no message at all
      comm.isend(r, role_tag, send_buf_, CommPlane::XY);
    }
  }

  /// Parses this rank's footprint message for `role` — the frames of its
  /// footprint entries, in entry order — into the dense stash storage.
  static void parse_targeted(PanelStash& stash, int role, index_t ns,
                             std::span<const real_t> wire) {
    std::size_t pos = 0;
    for (const StashEntry& e : stash.entries[static_cast<std::size_t>(role)]) {
      if (!e.in_footprint) continue;
      pos += decode_frame(
          wire.subspan(pos),
          {stash.storage.data() + e.offset,
           static_cast<std::size_t>(e.m) * static_cast<std::size_t>(ns)});
    }
    SLU3D_CHECK(pos == wire.size(), "footprint message not fully consumed");
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
    SLU3D_CHECK(live <= lookahead_,
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

  /// Borrows the stash's flat storage, zeroed: a Targeted receiver's
  /// entries outside its footprint stay zero (no Schur pair reads them).
  static void stash_storage(PanelStash& stash) {
    stash.storage = dense::KernelScratch::per_rank().borrow();
    stash.storage.resize(stash.size, 0.0);
  }

  /// A role root's copy of its own L/U blocks into the role's entries.
  void fill_root(PanelStash& stash, int role, int k, index_t ns,
                 std::span<const PanelBlock> panel) {
    if (role_comm(role).rank() != role_root(role, k)) return;
    for (const StashEntry& e : stash.entries[static_cast<std::size_t>(role)]) {
      const std::span<const real_t> src = payload(
          role, k, panel[static_cast<std::size_t>(e.panel_idx)].snode);
      SLU3D_CHECK(src.size() == static_cast<std::size_t>(e.m) *
                                    static_cast<std::size_t>(ns),
                  "panel payload size mismatch");
      std::copy(src.begin(), src.end(), stash.storage.data() + e.offset);
    }
  }

  /// The diagonal owner's delivery of its factored block `d` of supernode
  /// k: one non-blocking send to each rank that solves against it, nearest
  /// ancestor first — for each non-empty panel block a in ascending order,
  /// the L holder a % Px down the process column, then the U holder
  /// a % Py along the process row, each the first time it appears.
  void send_diag(int k, std::span<const real_t> d) {
    PeerWalk& down = walks_[kColRole];
    PeerWalk& along = walks_[kRowRole];
    down.reset(g_.Px(), g_.px());
    along.reset(g_.Py(), g_.py());
    for (const PanelBlock& b : bs_.lpanel(k)) {
      if (b.n_rows() == 0) continue;
      const int l_holder = b.snode % g_.Px();
      const int u_holder = b.snode % g_.Py();
      if (down.first(l_holder))
        g_.col().isend(l_holder, tag(k, kDiagColOp), d, CommPlane::XY);
      if (along.first(u_holder))
        g_.row().isend(u_holder, tag(k, kDiagRowOp), d, CommPlane::XY);
    }
  }

  /// GETRF at the owner of (k,k), which sends the factored block to the
  /// ranks that solve against it (send_diag); each of those receives it
  /// just before its panel TRSMs — L blocks on the owning process column,
  /// U blocks on the owning process row. A rank holding only empty blocks
  /// receives nothing, and its zero-width solves never read the diagonal.
  void factor_and_solve(int k, index_t ns) {
    const int pxk = k % g_.Px();
    const int pyk = k % g_.Py();
    const bool in_prow = g_.px() == pxk;
    const bool in_pcol = g_.py() == pyk;
    const auto panel = bs_.lpanel(k);

    std::span<const real_t> diag;
    if (F_.owns(k, k)) {
      auto d = F_.diag(k);
      dense::getrf_nopiv(ns, d.data(), ns);
      g_.grid().add_compute(dense::getrf_flops(ns), ComputeKind::DiagFactor);
      send_diag(k, d);
      diag = d;
    } else if (in_pcol && holds_block(panel, g_.Px(), g_.px())) {
      diag_buf_ = g_.col().recv(pxk, tag(k, kDiagColOp), CommPlane::XY);
      diag = diag_buf_;
    } else if (in_prow && holds_block(panel, g_.Py(), g_.py())) {
      diag_buf_ = g_.row().recv(pyk, tag(k, kDiagRowOp), CommPlane::XY);
      diag = diag_buf_;
    }

    if (in_pcol) {
      for (OwnedBlock& blk : F_.lblocks(k)) {
        const index_t m =
            panel[static_cast<std::size_t>(blk.panel_idx)].n_rows();
        dense::trsm_right_upper(ns, m, diag.data(), ns, blk.data.data(), m);
        g_.grid().add_compute(dense::trsm_flops(ns, m), ComputeKind::PanelSolve);
      }
    }
    if (in_prow) {
      for (OwnedBlock& blk : F_.ublocks(k)) {
        const index_t m =
            panel[static_cast<std::size_t>(blk.panel_idx)].n_rows();
        dense::trsm_left_lower_unit(ns, m, diag.data(), ns, blk.data.data(),
                                    ns);
        g_.grid().add_compute(dense::trsm_flops(ns, m), ComputeKind::PanelSolve);
      }
    }
  }

  void panel_phase(int k) {
    const index_t ns = bs_.snode_size(k);
    if (ns == 0) return;
    PanelStash& stash = stash_alloc(k);
    factor_and_solve(k, ns);

    // Panel transfers. Empty (ragged) blocks are skipped outright instead
    // of broadcasting 0-byte payloads. First lay out the flat stash
    // storage — spans handed to ibcast must stay put, and the offsets
    // double as the parse targets in targeted mode — then post each role.
    const auto panel = bs_.lpanel(k);
    for (int pi = 0; pi < static_cast<int>(panel.size()); ++pi) {
      const PanelBlock& blk = panel[static_cast<std::size_t>(pi)];
      const index_t m = blk.n_rows();
      if (m == 0) continue;
      for (const int role : {kRowRole, kColRole}) {
        if (!stashes(role, blk.snode)) continue;
        stash.entries[static_cast<std::size_t>(role)].push_back(
            {pi, stash.size, m});
        stash.size += static_cast<std::size_t>(m) * static_cast<std::size_t>(ns);
      }
    }
    if (wire_ == Wire::Dense) stash_storage(stash);
    for (const int role : {kRowRole, kColRole})
      post_role(stash, role, k, ns, panel);
  }

  /// Posts one role's panel transfers: a non-blocking broadcast per entry
  /// from the role's root, which copies in its owned blocks first — or,
  /// targeted, one footprint message per peer (root) or one posted receive
  /// (receivers with a non-empty footprint).
  void post_role(PanelStash& stash, int role, int k, index_t ns,
                 std::span<const PanelBlock> panel) {
    if (wire_ == Wire::Targeted) {
      targeted_role(stash, role, k, ns, panel);
      return;
    }
    fill_root(stash, role, k, ns, panel);
    sim::Comm& comm = role_comm(role);
    const int root = role_root(role, k);
    for (const StashEntry& e : stash.entries[static_cast<std::size_t>(role)])
      stash.ops.emplace_back().req = comm.ibcast(
          root, tag(k, kPanelOp[static_cast<std::size_t>(role)]),
          std::span{stash.storage.data() + e.offset,
                    static_cast<std::size_t>(e.m) *
                        static_cast<std::size_t>(ns)},
          CommPlane::XY);
  }

  void schur_phase(int k) {
    const index_t ns = bs_.snode_size(k);
    if (ns == 0) return;
    PanelStash* stash = stash_find(k);
    SLU3D_CHECK(stash != nullptr, "panel not factored before Schur phase");

    // Drain the outstanding transfers only now, in post order: every
    // update between the panel's post and this point has overlapped them.
    // A targeted footprint message expands every footprint entry of its
    // role at once, into storage borrowed here.
    const auto panel = bs_.lpanel(k);
    if (wire_ == Wire::Targeted) {
      stash_storage(*stash);
      for (const int role : {kRowRole, kColRole})
        fill_root(*stash, role, k, ns, panel);
    }
    for (PanelAsyncOp& op : stash->ops) {
      if (op.role < 0)
        op.req.wait();
      else
        parse_targeted(*stash, op.role, ns, op.req.take());
    }
    stash->ops.clear();

    // Every owned Schur pair scatters into a distinct (bi, bj) target block.
    for (const StashEntry& le : stash->entries[kRowRole]) {
      const PanelBlock& bi = panel[static_cast<std::size_t>(le.panel_idx)];
      for (const StashEntry& ue : stash->entries[kColRole]) {
        const PanelBlock& bj = panel[static_cast<std::size_t>(ue.panel_idx)];
        if (!wants_target(bi.snode, bj.snode)) continue;
        g_.grid().add_compute(dense::gemm_flops(le.m, ue.m, ns),
                              ComputeKind::SchurUpdate);
        auto scratch = dense::KernelScratch::per_rank().stage_zero(
            static_cast<std::size_t>(le.m) * static_cast<std::size_t>(ue.m));
        dense::gemm_minus(le.m, ue.m, ns, stash->storage.data() + le.offset,
                          le.m, stash->storage.data() + ue.offset, ns,
                          scratch.data(), le.m);
        scatter_local(F_, bs_, bi.snode, bj.snode, bi.rows, bj.rows, scratch);
      }
    }
    dense::KernelScratch::per_rank().recycle(std::move(stash->storage));
    stash->storage = std::vector<real_t>{};
    for (std::vector<StashEntry>& entries : stash->entries) entries.clear();
    stash->size = 0;
    stash->k = -1;
  }

  Dist2dFactors& F_;
  sim::ProcessGrid2D& g_;
  const BlockStructure& bs_;
  const Wire wire_;
  const int lookahead_;  ///< resolved: LuOptions's, else panel_lookahead
  std::vector<PanelStash> stash_;  ///< slot pool, <= lookahead+1 live slots
  std::vector<real_t> diag_buf_;   ///< a received diagonal block
  std::array<PeerWalk, 2> walks_;  ///< per role_comm: the sends' walk
  // Targeted-mode root scratch (unused otherwise).
  std::vector<real_t> frame_cache_;  ///< every entry's frame (dense bound each)
  std::vector<real_t> send_buf_;     ///< per-peer footprint message
};

}  // namespace

std::size_t encode_frame(std::span<const real_t> src, std::span<real_t> out) {
  const std::size_t words = frame_bitmap_words(src.size());
  SLU3D_CHECK(out.size() >= words + src.size(),
              "encode_frame: output too small");
  std::size_t len = words;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = 0;
    const std::size_t end = std::min(src.size(), 64 * w + 64);
    for (std::size_t i = 64 * w; i < end; ++i)
      if (src[i] != 0.0) {
        bits |= std::uint64_t{1} << (i % 64);
        out[len++] = src[i];
      }
    out[w] = std::bit_cast<real_t>(bits);
  }
  return len;
}

std::size_t decode_frame(std::span<const real_t> wire, std::span<real_t> dst) {
  const std::size_t words = frame_bitmap_words(dst.size());
  SLU3D_CHECK(wire.size() >= words, "decode_frame: truncated bitmap");
  std::size_t len = words;
  for (std::size_t w = 0; w < words; ++w) {
    const auto bits = std::bit_cast<std::uint64_t>(wire[w]);
    const std::size_t end = std::min(dst.size(), 64 * w + 64);
    SLU3D_CHECK(end - 64 * w == 64 || bits >> (end - 64 * w) == 0,
                "decode_frame: presence bit beyond the span");
    SLU3D_CHECK(len + static_cast<std::size_t>(std::popcount(bits)) <=
                    wire.size(),
                "decode_frame: truncated values");
    for (std::size_t i = 64 * w; i < end; ++i)
      dst[i] = (bits >> (i % 64)) & 1 ? wire[len++] : 0.0;
  }
  return len;
}

void factorize_2d(Dist2dFactors& F, sim::ProcessGrid2D& grid,
                  std::span<const int> snodes, const LuOptions& options) {
  PanelEngine(F, grid, options).run(snodes);
}

}  // namespace slu3d
