#include "lu2d/dist_chol.hpp"

#include <algorithm>
#include <span>

#include "lu2d/solve_schedule.hpp"
#include "numeric/dense_kernels.hpp"
#include "numeric/kernel_scratch.hpp"
#include "numeric/schur.hpp"
#include "pipeline/panel_pipeline.hpp"
#include "support/check.hpp"

namespace slu3d {

namespace {
using sim::CommPlane;
using sim::ComputeKind;
}  // namespace

DistCholFactors::DistCholFactors(const BlockStructure& bs, int Px, int Py,
                                 int px, int py, std::vector<bool> want_snode)
    : bs_(&bs), Px_(Px), Py_(Py), px_(px), py_(py), want_(std::move(want_snode)) {
  SLU3D_CHECK(Px > 0 && Py > 0, "bad grid extents");
  const auto nsn = static_cast<std::size_t>(bs.n_snodes());
  SLU3D_CHECK(want_.empty() || want_.size() == nsn, "want_snode size mismatch");
  diag_.resize(nsn);
  lblocks_.resize(nsn);
  for (int s = 0; s < bs.n_snodes(); ++s) {
    const auto ns = static_cast<std::size_t>(bs.snode_size(s));
    if (ns == 0 || !wants_snode(s)) continue;
    if (owns(s, s)) diag_[static_cast<std::size_t>(s)].assign(ns * ns, 0.0);
    const auto panel = bs.lpanel(s);
    for (int k = 0; k < static_cast<int>(panel.size()); ++k) {
      const auto& blk = panel[static_cast<std::size_t>(k)];
      if (owns(blk.snode, s))
        lblocks_[static_cast<std::size_t>(s)].push_back(
            {k, std::vector<real_t>(static_cast<std::size_t>(blk.n_rows()) * ns, 0.0)});
    }
  }
}

OwnedBlock* DistCholFactors::find_lblock(int s, int a) {
  auto blocks = lblocks(s);
  const auto panel = bs_->lpanel(s);
  const auto it = std::lower_bound(
      blocks.begin(), blocks.end(), a, [&](const OwnedBlock& b, int key) {
        return panel[static_cast<std::size_t>(b.panel_idx)].snode < key;
      });
  if (it == blocks.end() ||
      panel[static_cast<std::size_t>(it->panel_idx)].snode != a)
    return nullptr;
  return &*it;
}

void DistCholFactors::fill_from(const CsrMatrix& Ap) {
  SLU3D_CHECK(Ap.n_rows() == bs_->n(), "matrix size mismatch");
  for (index_t i = 0; i < Ap.n_rows(); ++i) {
    const int si = bs_->col_to_snode(i);
    const auto cols = Ap.row_cols(i);
    const auto vals = Ap.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const index_t j = cols[k];
      if (j > i) break;  // lower triangle only
      const real_t v = vals[k];
      const int sj = bs_->col_to_snode(j);
      if (si == sj) {
        if (!has_diag(si)) continue;
        const index_t f = bs_->first_col(si);
        const index_t ns = bs_->snode_size(si);
        diag_[static_cast<std::size_t>(si)]
             [static_cast<std::size_t>((i - f) + (j - f) * ns)] += v;
      } else {
        if (!owns(si, sj) || !wants_snode(sj)) continue;
        OwnedBlock* blk = find_lblock(sj, si);
        SLU3D_CHECK(blk != nullptr, "missing owned L block");
        const auto& rows =
            bs_->lpanel(sj)[static_cast<std::size_t>(blk->panel_idx)].rows;
        const auto it = std::lower_bound(rows.begin(), rows.end(), i);
        SLU3D_CHECK(it != rows.end() && *it == i, "entry outside L structure");
        const auto r = static_cast<std::size_t>(it - rows.begin());
        blk->data[r + static_cast<std::size_t>(j - bs_->first_col(sj)) * rows.size()] += v;
      }
    }
  }
}

offset_t DistCholFactors::allocated_bytes() const {
  offset_t bytes = 0;
  for (std::size_t s = 0; s < diag_.size(); ++s) {
    bytes += static_cast<offset_t>(diag_[s].size() * sizeof(real_t));
    for (const auto& b : lblocks_[s])
      bytes += static_cast<offset_t>(b.data.size() * sizeof(real_t));
  }
  return bytes;
}

namespace {

/// Cholesky variant policy for the shared panel-pipeline engine
/// (pipeline/panel_pipeline.hpp): POTRF on the diagonal, column-only
/// diagonal broadcast, L-panel TRSM, the transposed-role relay column
/// broadcasts, and the symmetric (lower-triangle-only) Schur scatter.
struct CholPanelPolicy {
  using Factors = DistCholFactors;
  static constexpr bool kSymmetric = true;
  static constexpr int kRowPanelOp = 1;  ///< row-role panel broadcast tag op
  static constexpr int kColPanelOp = 2;  ///< transposed-role broadcast tag op

  /// Diagonal Cholesky at the owner, broadcast down the process column
  /// (only the L-panel solvers need it, right below — stays blocking).
  template <class Engine>
  static void factor_and_solve(Engine& e, int k, index_t ns,
                               std::vector<real_t>& diag_buf) {
    Factors& F = e.factors();
    sim::ProcessGrid2D& g = e.grid();
    const BlockStructure& bs = e.structure();
    const bool in_pcol = g.py() == k % g.Py();

    diag_buf.assign(static_cast<std::size_t>(ns) * static_cast<std::size_t>(ns),
                    0.0);
    if (F.has_diag(k)) {
      auto d = F.diag(k);
      dense::potrf_lower(ns, d.data(), ns);
      g.grid().add_compute(dense::potrf_flops(ns), ComputeKind::DiagFactor);
      std::copy(d.begin(), d.end(), diag_buf.begin());
    }
    if (in_pcol) {
      g.col().bcast(k % g.Px(), e.tag(k, 0), diag_buf, CommPlane::XY);
      for (OwnedBlock& blk : F.lblocks(k)) {
        const index_t m =
            bs.lpanel(k)[static_cast<std::size_t>(blk.panel_idx)].n_rows();
        dense::trsm_right_lower_trans(ns, m, diag_buf.data(), ns,
                                      blk.data.data(), m);
        g.grid().add_compute(dense::trsm_flops(ns, m), ComputeKind::PanelSolve);
      }
    }
  }

  static std::span<const real_t> row_payload(Factors& F, int k, int a) {
    const OwnedBlock* ob = F.find_lblock(k, a);
    SLU3D_CHECK(ob != nullptr, "owner missing L block");
    return ob->data;
  }

  /// Transposed role: the L payload of block row a is relayed by the
  /// (a%Px, a%Py) rank down its process column. The relay can only
  /// re-broadcast after its own row-role request completes, so that
  /// forwarding is deferred (relay_pi >= 0) to the Schur drain, never a
  /// blocking wait inside the panel phase (which could deadlock against
  /// peers whose forwarding waits also run at their drains).
  ///
  /// PanelPacking::Targeted leaves this role a dense relay broadcast: its
  /// payloads originate on one rank per block row (the relay), so no single
  /// rank of the broadcast column holds every entry the way the row role's
  /// data root does. Only the row role goes one-sided, and the engine's
  /// footprint predicate counts every relay duty (bi % Py == peer) into
  /// the relay's row-role footprint, so each relay copy below still reads
  /// a dense region — at the drain, where the window-delivery op that
  /// fills it precedes every deferred relay in `ops`.
  template <class Engine>
  static void post_col_entries(Engine& e, pipeline::PanelStash& stash, int k,
                               index_t ns) {
    sim::ProcessGrid2D& g = e.grid();
    const auto panel = e.structure().lpanel(k);
    const bool in_pcol = g.py() == k % g.Py();
    for (const pipeline::StashEntry& en : stash.col_entries) {
      const PanelBlock& blk = panel[static_cast<std::size_t>(en.panel_idx)];
      const int arow = blk.snode % g.Px();
      const auto elems =
          static_cast<std::size_t>(en.m) * static_cast<std::size_t>(ns);
      const std::span<real_t> buf{stash.storage.data() + en.offset, elems};
      const bool relay = g.px() == arow;  // root of the transposed bcast
      const pipeline::StashEntry* re =
          relay ? stash.find_row_entry(en.panel_idx) : nullptr;
      if (relay) SLU3D_CHECK(re != nullptr, "relay missing row-role payload");
      if (!relay) {
        stash.ops.emplace_back().req =
            g.col().ibcast(arow, e.tag(k, kColPanelOp), buf, CommPlane::XY);
      } else if (in_pcol) {
        // The relay is the row-role root itself: payload already local.
        std::copy_n(stash.storage.data() + re->offset, elems, buf.begin());
        stash.ops.emplace_back().req =
            g.col().ibcast(arow, e.tag(k, kColPanelOp), buf, CommPlane::XY);
      } else {
        // Deferred: re-broadcast once the row-role request (earlier in
        // `ops`) has been drained.
        pipeline::PanelAsyncOp& op = stash.ops.emplace_back();
        op.relay_pi = en.panel_idx;
        op.row_off = re->offset;
        op.col_off = en.offset;
        op.elems = elems;
      }
    }
  }

  static bool wants_target(const Factors& F, int /*bi*/, int bj) {
    return F.wants_snode(bj);
  }

  /// Symmetric Schur update V = L_i L_jᵀ, scattered into the
  /// lower-triangular target (diag or L block).
  template <class Engine>
  static void schur_pair(Engine& e, const PanelBlock& bi, index_t mi,
                         const real_t* ldata, const PanelBlock& bj, index_t mj,
                         const real_t* tdata, index_t ns,
                         std::span<real_t> scratch) {
    Factors& F = e.factors();
    const BlockStructure& bs = e.structure();
    // Modelled flops are charged by the engine on the rank thread before
    // the pairs fan out (schur_pair may run on a pool worker, which must
    // not touch the simulator).
    dense::gemm_minus_nt(mi, mj, ns, ldata, mi, tdata, mj, scratch.data(), mi);
    if (bi.snode == bj.snode) {
      SLU3D_CHECK(F.has_diag(bi.snode), "Schur target diag not owned");
      auto d = F.diag(bi.snode);
      const index_t f = bs.first_col(bi.snode);
      const index_t nd = bs.snode_size(bi.snode);
      for (index_t c = 0; c < mj; ++c) {
        const index_t tc = bj.rows[static_cast<std::size_t>(c)] - f;
        for (index_t r = 0; r < mi; ++r)
          d[static_cast<std::size_t>((bi.rows[static_cast<std::size_t>(r)] - f) +
                                     tc * nd)] +=
              scratch[static_cast<std::size_t>(r + c * mi)];
      }
      return;
    }
    OwnedBlock* blk = F.find_lblock(bj.snode, bi.snode);
    SLU3D_CHECK(blk != nullptr, "Schur target L block not owned");
    const auto& brows =
        bs.lpanel(bj.snode)[static_cast<std::size_t>(blk->panel_idx)].rows;
    auto pos = dense::KernelScratch::per_rank().index_stage(
        static_cast<std::size_t>(mi));
    locate_sorted_subset(bi.rows, brows, pos);
    const auto mt = brows.size();
    const index_t f = bs.first_col(bj.snode);
    for (index_t c = 0; c < mj; ++c) {
      const auto tc =
          static_cast<std::size_t>(bj.rows[static_cast<std::size_t>(c)] - f);
      for (index_t r = 0; r < mi; ++r)
        blk->data[static_cast<std::size_t>(pos[static_cast<std::size_t>(r)]) +
                  tc * mt] += scratch[static_cast<std::size_t>(r + c * mi)];
    }
  }
};

}  // namespace

void factorize_2d_cholesky(DistCholFactors& F, sim::ProcessGrid2D& grid,
                           std::span<const int> snodes,
                           const Chol2dOptions& options) {
  pipeline::PanelEngine<CholPanelPolicy>(F, grid, options).run(snodes);
}

void solve_2d_cholesky(DistCholFactors& F, sim::ProcessGrid2D& grid,
                       std::span<real_t> x, int tag_base, index_t nrhs) {
  const BlockStructure& bs = F.structure();
  const index_t n = bs.n();
  SLU3D_CHECK(nrhs >= 1, "nrhs must be positive");
  SLU3D_CHECK(x.size() == static_cast<std::size_t>(n) *
                              static_cast<std::size_t>(nrhs),
              "x panel size");
  sim::Comm& comm = grid.grid();
  const int nsn = bs.n_snodes();
  const SolveSchedule sched(bs);
  const SolvePanel panel{x, n, nrhs};
  auto diag_owner = [&](int s) { return F.owner_of(s, s); };
  auto ftag = [&](int s) { return tag_base + s; };
  auto btag = [&](int s) { return tag_base + nsn + s; };

  // Forward L y = b (non-unit diagonal).
  std::vector<real_t> buf, vbuf;
  for (const int s : sched.forward()) {
    const index_t ns = bs.snode_size(s);
    if (ns == 0) continue;
    const index_t f = bs.first_col(s);
    const bool in_pcol = grid.py() == s % grid.Py();
    if (comm.rank() == diag_owner(s)) {
      for (const auto& [c, blkidx] : sched.into(s)) {
        const PanelBlock& blk = bs.lpanel(c)[static_cast<std::size_t>(blkidx)];
        const auto v = comm.recv(F.owner_of(s, c), ftag(c), sim::CommPlane::XY);
        const auto m = blk.rows.size();
        SLU3D_CHECK(v.size() == m * static_cast<std::size_t>(nrhs),
                    "contribution size");
        for (index_t j = 0; j < nrhs; ++j)
          for (std::size_t r = 0; r < m; ++r)
            x[static_cast<std::size_t>(blk.rows[r] + j * n)] -=
                v[r + static_cast<std::size_t>(j) * m];
      }
      dense::trsm_left_lower(ns, nrhs, F.diag(s).data(), ns, x.data() + f, n);
    }
    if (in_pcol) {
      panel.gather(f, ns, buf);
      grid.col().bcast(s % grid.Px(), ftag(s), buf, sim::CommPlane::XY);
      panel.scatter(buf, f, ns);
      for (const OwnedBlock& ob : F.lblocks(s)) {
        const PanelBlock& blk = bs.lpanel(s)[static_cast<std::size_t>(ob.panel_idx)];
        const auto m = static_cast<index_t>(blk.rows.size());
        vbuf.assign(static_cast<std::size_t>(m) * static_cast<std::size_t>(nrhs),
                    0.0);
        for (index_t j = 0; j < nrhs; ++j)
          for (index_t c = 0; c < ns; ++c) {
            const real_t yc = buf[static_cast<std::size_t>(c + j * ns)];
            if (yc == 0.0) continue;
            for (index_t r = 0; r < m; ++r)
              vbuf[static_cast<std::size_t>(r + j * m)] +=
                  ob.data[static_cast<std::size_t>(r + c * m)] * yc;
          }
        comm.send(diag_owner(blk.snode), ftag(s), vbuf, sim::CommPlane::XY);
      }
    }
  }

  // Backward Lᵀ x = y: x_a is broadcast along process *row* a%Px (where
  // all L(a, s) owners live); each owner sends Lᵀ-contributions to the
  // descendant's diagonal owner.
  for (const int s : sched.backward()) {
    const index_t ns = bs.snode_size(s);
    if (ns == 0) continue;
    const index_t f = bs.first_col(s);
    const bool in_prow = grid.px() == s % grid.Px();
    if (comm.rank() == diag_owner(s)) {
      for (const PanelBlock& blk : bs.lpanel(s)) {
        const auto v =
            comm.recv(F.owner_of(blk.snode, s), btag(blk.snode), sim::CommPlane::XY);
        SLU3D_CHECK(v.size() == static_cast<std::size_t>(ns) *
                                    static_cast<std::size_t>(nrhs),
                    "contribution size");
        for (index_t j = 0; j < nrhs; ++j)
          for (index_t r = 0; r < ns; ++r)
            x[static_cast<std::size_t>(f + r + j * n)] -=
                v[static_cast<std::size_t>(r + j * ns)];
      }
      dense::trsm_left_lower_trans(ns, nrhs, F.diag(s).data(), ns, x.data() + f,
                                   n);
    }
    if (in_prow) {
      panel.gather(f, ns, buf);
      grid.row().bcast(s % grid.Py(), btag(s), buf, sim::CommPlane::XY);
      panel.scatter(buf, f, ns);
      // Contributions to descendants c with a block (s, c): v = L(s,c)ᵀ x_s,
      // sent in the receivers' visiting order (they share btag(s)).
      for (const auto& [c, blkidx] : sched.out_of(s)) {
        if (c % grid.Py() != grid.py()) continue;  // L(s, c) not in my col
        OwnedBlock* ob = F.find_lblock(c, s);
        SLU3D_CHECK(ob != nullptr, "missing owned L block in solve");
        const PanelBlock& blk = bs.lpanel(c)[static_cast<std::size_t>(blkidx)];
        const index_t nc = bs.snode_size(c);
        const auto m = static_cast<index_t>(blk.rows.size());
        vbuf.assign(static_cast<std::size_t>(nc) * static_cast<std::size_t>(nrhs),
                    0.0);
        for (index_t j = 0; j < nrhs; ++j)
          for (index_t col = 0; col < nc; ++col) {
            real_t acc = 0.0;
            for (index_t r = 0; r < m; ++r)
              acc += ob->data[static_cast<std::size_t>(r + col * m)] *
                     x[static_cast<std::size_t>(
                         blk.rows[static_cast<std::size_t>(r)] + j * n)];
            vbuf[static_cast<std::size_t>(col + j * nc)] = acc;
          }
        comm.send(diag_owner(c), btag(s), vbuf, sim::CommPlane::XY);
      }
    }
  }

  redistribute_solution(comm, tag_base + 2 * nsn, sim::CommPlane::XY, bs,
                        panel, diag_owner);
}

}  // namespace slu3d
