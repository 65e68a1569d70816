// LU variant policy for the shared 2D panel-pipeline engine
// (pipeline/panel_pipeline.hpp): GETRF on the diagonal, row+column
// diagonal broadcasts, L and U panel TRSMs, U-role column broadcasts
// rooted at the diagonal owner's process row, and the two-sided Schur
// scatter (diag / L / U targets).
#include "lu2d/factor2d.hpp"

#include <algorithm>
#include <vector>

#include "numeric/dense_kernels.hpp"
#include "numeric/kernel_scratch.hpp"
#include "numeric/schur.hpp"
#include "pipeline/panel_pipeline.hpp"
#include "support/check.hpp"

namespace slu3d {

namespace {

using sim::CommPlane;
using sim::ComputeKind;

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

struct LuPanelPolicy {
  using Factors = Dist2dFactors;
  static constexpr bool kSymmetric = false;
  static constexpr int kRowPanelOp = 2;  ///< L-panel row broadcast tag op
  static constexpr int kColPanelOp = 3;  ///< U-panel column broadcast tag op

  /// GETRF at the owner of (k,k), diagonal broadcast along the owner's
  /// process row (for U panel solves) and column (for L), then the panel
  /// TRSMs on the owning process column / row.
  template <class Engine>
  static void factor_and_solve(Engine& e, int k, index_t ns,
                               std::vector<real_t>& diag_buf) {
    Factors& F = e.factors();
    sim::ProcessGrid2D& g = e.grid();
    const BlockStructure& bs = e.structure();
    const int pxk = k % g.Px();
    const int pyk = k % g.Py();
    const bool in_prow = g.px() == pxk;
    const bool in_pcol = g.py() == pyk;

    diag_buf.assign(static_cast<std::size_t>(ns) * static_cast<std::size_t>(ns),
                    0.0);
    if (F.owns(k, k)) {
      auto d = F.diag(k);
      dense::getrf_nopiv(ns, d.data(), ns);
      g.grid().add_compute(dense::getrf_flops(ns), ComputeKind::DiagFactor);
      std::copy(d.begin(), d.end(), diag_buf.begin());
    }
    if (in_prow) g.row().bcast(pyk, e.tag(k, 0), diag_buf, CommPlane::XY);
    if (in_pcol) g.col().bcast(pxk, e.tag(k, 1), diag_buf, CommPlane::XY);

    if (in_pcol) {
      for (OwnedBlock& blk : F.lblocks(k)) {
        const index_t m =
            bs.lpanel(k)[static_cast<std::size_t>(blk.panel_idx)].n_rows();
        dense::trsm_right_upper(ns, m, diag_buf.data(), ns, blk.data.data(), m);
        g.grid().add_compute(dense::trsm_flops(ns, m), ComputeKind::PanelSolve);
      }
    }
    if (in_prow) {
      for (OwnedBlock& blk : F.ublocks(k)) {
        const index_t m =
            bs.lpanel(k)[static_cast<std::size_t>(blk.panel_idx)].n_rows();
        dense::trsm_left_lower_unit(ns, m, diag_buf.data(), ns,
                                    blk.data.data(), ns);
        g.grid().add_compute(dense::trsm_flops(ns, m), ComputeKind::PanelSolve);
      }
    }
  }

  static std::span<const real_t> row_payload(Factors& F, int k, int a) {
    const OwnedBlock* ob = F.find_lblock(k, a);
    SLU3D_CHECK(ob != nullptr, "owner missing L block");
    return ob->data;
  }

  /// U block (k, a) goes down process column a % Py, rooted at the
  /// diagonal owner's process row; payload is the owner's U block. Under
  /// PanelPacking::Targeted the role instead delegates to the engine's
  /// one-sided footprint puts (no pruning — the pair set and factors stay
  /// bitwise identical to Dense).
  template <class Engine>
  static void post_col_entries(Engine& e, pipeline::PanelStash& stash, int k,
                               index_t ns) {
    Factors& F = e.factors();
    sim::ProcessGrid2D& g = e.grid();
    const auto panel = e.structure().lpanel(k);
    const int pxk = k % g.Px();
    auto u_payload = [&](const pipeline::StashEntry& en) -> std::span<const real_t> {
      const OwnedBlock* ob =
          F.find_ublock(k, panel[static_cast<std::size_t>(en.panel_idx)].snode);
      SLU3D_CHECK(ob != nullptr, "owner missing U block");
      return ob->data;
    };
    if (e.targeted_packing()) {
      // One-sided mode: the column role mirrors the engine's row role —
      // the diagonal owner's process row holds every U payload, so it is
      // the single put origin down each process column.
      e.targeted_role(stash, /*role=*/1, k, ns, panel, u_payload);
      return;
    }
    const bool in_prow = g.px() == pxk;
    for (const pipeline::StashEntry& en : stash.col_entries) {
      const std::span<real_t> buf{
          stash.storage.data() + en.offset,
          static_cast<std::size_t>(ns) * static_cast<std::size_t>(en.m)};
      if (in_prow) {
        const std::span<const real_t> src = u_payload(en);
        SLU3D_CHECK(src.size() == buf.size(), "owner U block size mismatch");
        std::copy(src.begin(), src.end(), buf.begin());
      }
      stash.ops.emplace_back().req =
          g.col().ibcast(pxk, e.tag(k, kColPanelOp), buf, CommPlane::XY);
    }
  }

  /// Target block (bi, bj) is owned by this rank by construction of the
  /// stashes; skip if its column supernode is not materialized on this
  /// grid (3D masked layouts).
  static bool wants_target(const Factors& F, int bi, int bj) {
    return F.wants_snode(std::min(bi, bj));
  }

  template <class Engine>
  static void schur_pair(Engine& e, const PanelBlock& bi, index_t mi,
                         const real_t* ldata, const PanelBlock& bj, index_t mj,
                         const real_t* udata, index_t ns,
                         std::span<real_t> scratch) {
    // Modelled flops are charged by the engine on the rank thread before
    // the pairs fan out (schur_pair may run on a pool worker, which must
    // not touch the simulator).
    dense::gemm_minus(mi, mj, ns, ldata, mi, udata, ns, scratch.data(), mi);
    scatter_local(e.factors(), e.structure(), bi.snode, bj.snode, bi.rows,
                  bj.rows, scratch);
  }
};

}  // namespace

void factorize_2d(Dist2dFactors& F, sim::ProcessGrid2D& grid,
                  std::span<const int> snodes, const Lu2dOptions& options) {
  pipeline::PanelEngine<LuPanelPolicy>(F, grid, options).run(snodes);
}

}  // namespace slu3d
