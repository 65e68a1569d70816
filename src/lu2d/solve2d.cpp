#include "lu2d/solve2d.hpp"

#include <vector>

#include "lu2d/solve_schedule.hpp"
#include "numeric/dense_kernels.hpp"
#include "support/check.hpp"

namespace slu3d {

namespace {

using sim::CommPlane;
using sim::ComputeKind;

/// Contribution messages carry the *negated* partial product (gemm_minus
/// computes C -= A B into a zeroed buffer), so receivers accumulate with +=.
/// Supernodes are visited in the SolveSchedule order (solve_schedule.hpp).
class Solve2dDriver {
 public:
  Solve2dDriver(Dist2dFactors& F, sim::ProcessGrid2D& grid,
                const Solve2dOptions& opt)
      : F_(F), g_(grid), bs_(F.structure()), opt_(opt), sched_(bs_) {}

  void run(std::span<real_t> x) {
    SLU3D_CHECK(opt_.nrhs >= 1, "nrhs must be positive");
    SLU3D_CHECK(x.size() == static_cast<std::size_t>(bs_.n()) *
                                static_cast<std::size_t>(opt_.nrhs),
                "x panel size");
    const SolvePanel panel{x, bs_.n(), opt_.nrhs};
    forward(panel);
    backward(panel);
    redistribute_solution(g_.grid(), gtag(), CommPlane::XY, bs_, panel,
                          [&](int s) { return diag_owner(s); });
  }

 private:
  int diag_owner(int s) const { return F_.owner_of(s, s); }
  int ftag(int s) const { return opt_.tag_base + s; }                   // forward
  int btag(int s) const { return opt_.tag_base + bs_.n_snodes() + s; }  // backward
  int gtag() const { return opt_.tag_base + 2 * bs_.n_snodes(); }       // gather

  /// L y = b, leaves first. On return, x holds y on each supernode's
  /// process column (authoritative at the diagonal owner).
  void forward(const SolvePanel& p) {
    const index_t n = p.n, nrhs = p.nrhs;
    std::vector<real_t> ybuf, vbuf;
    for (const int s : sched_.forward()) {
      const index_t ns = bs_.snode_size(s);
      if (ns == 0) continue;
      const index_t f = bs_.first_col(s);
      const bool in_pcol = g_.py() == s % g_.Py();

      if (F_.has_diag(s)) {
        // Collect partial products from every L block targeting s.
        for (const auto& [c, blkidx] : sched_.into(s)) {
          const PanelBlock& blk =
              bs_.lpanel(c)[static_cast<std::size_t>(blkidx)];
          const int src = F_.owner_of(s, c);
          const auto v = g_.grid().recv(src, ftag(c), CommPlane::XY);
          const auto m = blk.rows.size();
          SLU3D_CHECK(v.size() == m * static_cast<std::size_t>(nrhs),
                      "contribution size");
          for (index_t j = 0; j < nrhs; ++j)
            for (std::size_t r = 0; r < m; ++r)
              p.x[static_cast<std::size_t>(blk.rows[r] + j * n)] +=
                  v[r + static_cast<std::size_t>(j) * m];
        }
        dense::trsm_left_lower_unit(ns, nrhs, F_.diag(s).data(), ns,
                                    p.x.data() + f, n);
        g_.grid().add_compute(dense::trsm_flops(ns, nrhs), ComputeKind::Other);
      }

      // Share y_s with the L-block owners (all in process column s%Py).
      if (in_pcol) {
        p.gather(f, ns, ybuf);
        g_.col().bcast(s % g_.Px(), ftag(s), ybuf, CommPlane::XY);
        p.scatter(ybuf, f, ns);

        // Each owned L block contributes to its ancestor's rows.
        for (const OwnedBlock& ob : F_.lblocks(s)) {
          const PanelBlock& blk =
              bs_.lpanel(s)[static_cast<std::size_t>(ob.panel_idx)];
          const auto m = static_cast<index_t>(blk.rows.size());
          vbuf.assign(static_cast<std::size_t>(m) *
                          static_cast<std::size_t>(nrhs),
                      0.0);
          dense::gemm_minus(m, nrhs, ns, ob.data.data(), m, ybuf.data(), ns,
                            vbuf.data(), m);
          g_.grid().add_compute(dense::gemm_flops(m, nrhs, ns),
                                ComputeKind::Other);
          g_.grid().send(diag_owner(blk.snode), ftag(s), vbuf, CommPlane::XY);
        }
      }
    }
  }

  /// U x = y, root first.
  void backward(const SolvePanel& p) {
    const index_t n = p.n, nrhs = p.nrhs;
    std::vector<real_t> xbuf, gbuf, vbuf;
    for (const int s : sched_.backward()) {
      const index_t ns = bs_.snode_size(s);
      if (ns == 0) continue;
      const index_t f = bs_.first_col(s);
      const bool in_pcol = g_.py() == s % g_.Py();

      if (F_.has_diag(s)) {
        // Collect partial products U(s, a) x_a from the U-block owners.
        for (const PanelBlock& blk : bs_.lpanel(s)) {
          const int src = F_.owner_of(s, blk.snode);
          const auto v = g_.grid().recv(src, btag(blk.snode), CommPlane::XY);
          SLU3D_CHECK(v.size() == static_cast<std::size_t>(ns) *
                                      static_cast<std::size_t>(nrhs),
                      "contribution size");
          for (index_t j = 0; j < nrhs; ++j)
            for (index_t r = 0; r < ns; ++r)
              p.x[static_cast<std::size_t>(f + r + j * n)] +=
                  v[static_cast<std::size_t>(r + j * ns)];
        }
        dense::trsm_left_upper(ns, nrhs, F_.diag(s).data(), ns, p.x.data() + f,
                               n);
        g_.grid().add_compute(dense::trsm_flops(ns, nrhs), ComputeKind::Other);
      }

      // Share x_s with the U-block owners (process column s%Py), then
      // each computes its contribution to a *descendant* supernode c.
      if (in_pcol) {
        p.gather(f, ns, xbuf);
        g_.col().bcast(s % g_.Px(), btag(s) + bs_.n_snodes(), xbuf,
                       CommPlane::XY);
        p.scatter(xbuf, f, ns);

        // In the receivers' visiting order: contributions to different
        // descendants share this rank's (source, btag(s)) pair.
        for (const auto& [c, blkidx] : sched_.out_of(s)) {
          if (c % g_.Px() != g_.px()) continue;  // U(c, s) not in my row
          OwnedBlock* ob = F_.find_ublock(c, s);
          SLU3D_CHECK(ob != nullptr, "missing owned U block in solve");
          const PanelBlock& blk =
              bs_.lpanel(c)[static_cast<std::size_t>(blkidx)];
          const index_t nc = bs_.snode_size(c);
          const auto m = static_cast<index_t>(blk.rows.size());
          // Gather the (non-contiguous) ancestor rows of x used by this
          // U block into an m x nrhs panel for the GEMM.
          gbuf.resize(static_cast<std::size_t>(m) *
                      static_cast<std::size_t>(nrhs));
          for (index_t j = 0; j < nrhs; ++j)
            for (index_t k = 0; k < m; ++k)
              gbuf[static_cast<std::size_t>(k + j * m)] =
                  p.x[static_cast<std::size_t>(
                      blk.rows[static_cast<std::size_t>(k)] + j * n)];
          vbuf.assign(static_cast<std::size_t>(nc) *
                          static_cast<std::size_t>(nrhs),
                      0.0);
          dense::gemm_minus(nc, nrhs, m, ob->data.data(), nc, gbuf.data(), m,
                            vbuf.data(), nc);
          g_.grid().add_compute(dense::gemm_flops(nc, nrhs, m),
                                ComputeKind::Other);
          g_.grid().send(diag_owner(c), btag(s), vbuf, CommPlane::XY);
        }
      }
    }
  }

  Dist2dFactors& F_;
  sim::ProcessGrid2D& g_;
  const BlockStructure& bs_;
  Solve2dOptions opt_;
  SolveSchedule sched_;
};

}  // namespace

int solve2d_tag_span(const BlockStructure& bs) {
  // ftag/btag/backward-bcast each use n_snodes tags, gtag one more; the
  // extra headroom keeps the stride aligned with solve3d_tag_span so one
  // allocator can serve both.
  return 4 * bs.n_snodes() + 8;
}

void solve_2d(Dist2dFactors& F, sim::ProcessGrid2D& grid, std::span<real_t> x,
              const Solve2dOptions& options) {
  SLU3D_CHECK(F.wants_snode(0) || F.structure().n_snodes() == 0,
              "solve_2d requires an unmasked (pure 2D) layout");
  Solve2dDriver(F, grid, options).run(x);
}

}  // namespace slu3d
