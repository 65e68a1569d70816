#include "lu3d/solve3d.hpp"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "numeric/dense_kernels.hpp"
#include "support/check.hpp"

namespace slu3d {

namespace {

using sim::CommPlane;
using sim::ComputeKind;

/// A (descendant supernode c, index of a block in lpanel(c)) pair.
using PanelRef = std::pair<int, int>;

/// The static order in which every rank visits supernodes (see the
/// header), and the descendant index that routes contributions. Both
/// sweeps' orders are valid elimination orders, because a panel block of c
/// always targets a strict ND ancestor of c. Every rank walks the same
/// global order and each blocking receive is matched by a send issued
/// earlier in that order, so the blocking sweeps cannot deadlock.
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

SolveSchedule::SolveSchedule(const BlockStructure& bs) {
  const int nsn = bs.n_snodes();
  const auto at = [](auto& v, int s) -> auto& {
    return v[static_cast<std::size_t>(s)];
  };
  // Parents have larger ids than their children, so one ascending pass
  // settles every height and one descending pass every depth.
  std::vector<int> height(static_cast<std::size_t>(nsn), 0);
  std::vector<int> depth(static_cast<std::size_t>(nsn), 0);
  for (int s = 0; s < nsn; ++s)
    if (const int p = bs.nd_parent(s); p >= 0)
      at(height, p) = std::max(at(height, p), at(height, s) + 1);
  for (int s = nsn - 1; s >= 0; --s)
    if (const int p = bs.nd_parent(s); p >= 0) at(depth, s) = at(depth, p) + 1;

  const auto order_by = [&](const std::vector<int>& key) {
    std::vector<int> order(static_cast<std::size_t>(nsn));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return at(key, a) != at(key, b) ? at(key, a) < at(key, b) : a < b;
    });
    return order;
  };
  forward_ = order_by(height);
  backward_ = order_by(depth);

  into_.resize(static_cast<std::size_t>(nsn));
  for (int c = 0; c < nsn; ++c) {
    const auto panel = bs.lpanel(c);
    for (int k = 0; k < static_cast<int>(panel.size()); ++k) {
      const int a = panel[static_cast<std::size_t>(k)].snode;
      // What the sweeps need of an ND ancestor: visited after c going
      // forward and before c going backward.
      SLU3D_CHECK(at(height, a) > at(height, c) && at(depth, a) < at(depth, c),
                  "panel block must target a higher and shallower supernode");
      at(into_, a).push_back({c, k});
    }
  }
  std::vector<int> bpos(static_cast<std::size_t>(nsn));
  for (int i = 0; i < nsn; ++i) at(bpos, at(backward_, i)) = i;
  out_of_ = into_;
  for (auto& refs : out_of_)
    std::sort(refs.begin(), refs.end(), [&](const PanelRef& u, const PanelRef& v) {
      return at(bpos, u.first) < at(bpos, v.first);
    });
}

/// An n x nrhs column-major right-hand-side / solution panel (ldx = n).
/// One sweep over the panel serves all nrhs columns: message counts are
/// independent of nrhs, message sizes scale with it.
struct SolvePanel {
  std::span<real_t> x;
  index_t n;
  index_t nrhs;

  /// Copies rows [f, f + ns) of every column into a contiguous ns x nrhs
  /// buffer.
  void gather(index_t f, index_t ns, std::vector<real_t>& buf) const {
    buf.resize(static_cast<std::size_t>(ns) * static_cast<std::size_t>(nrhs));
    for (index_t j = 0; j < nrhs; ++j)
      for (index_t r = 0; r < ns; ++r)
        buf[static_cast<std::size_t>(r + j * ns)] =
            x[static_cast<std::size_t>(f + r + j * n)];
  }
  /// The inverse of gather().
  void scatter(std::span<const real_t> buf, index_t f, index_t ns) const {
    for (index_t j = 0; j < nrhs; ++j)
      for (index_t r = 0; r < ns; ++r)
        x[static_cast<std::size_t>(f + r + j * n)] =
            buf[static_cast<std::size_t>(r + j * ns)];
  }
};

/// Contribution messages carry the *negated* partial product (gemm_minus
/// computes C -= A B into a zeroed buffer), so receivers accumulate with +=.
/// Supernodes are visited in the SolveSchedule order.
class Solve3dDriver {
 public:
  Solve3dDriver(Dist2dFactors& F, sim::Comm& world, sim::ProcessGrid3D& grid,
                const ForestPartition& part, const Solve3dOptions& opt)
      : F_(F), world_(world), g_(grid), part_(part), bs_(F.structure()),
        opt_(opt), sched_(bs_) {
    // One z sub-communicator per forest level: the replication group of a
    // level-lvl supernode is a dyadic pz range of size 2^(l - lvl).
    const int l = part.n_levels() - 1;
    for (int lvl = 0; lvl <= l; ++lvl)
      zgroup_.push_back(
          g_.zline().split(g_.pz() >> (l - lvl), g_.pz()));
  }

  void run(std::span<real_t> x) {
    SLU3D_CHECK(opt_.nrhs >= 1, "nrhs must be positive");
    SLU3D_CHECK(x.size() == static_cast<std::size_t>(bs_.n()) *
                                static_cast<std::size_t>(opt_.nrhs),
                "x panel size");
    const SolvePanel panel{x, bs_.n(), opt_.nrhs};
    forward(panel);
    backward(panel);
    redistribute(panel);
  }

 private:
  int Px() const { return g_.plane().Px(); }
  int Py() const { return g_.plane().Py(); }
  /// World rank of plane position (px, py) on grid pz.
  int world_of(int pz, int px, int py) const {
    return pz * Px() * Py() + px * Py() + py;
  }
  int diag_owner(int s) const {
    return world_of(part_.anchor_of(s), s % Px(), s % Py());
  }
  int ftag(int s) const { return opt_.tag_base + s; }
  int btag(int s) const { return opt_.tag_base + bs_.n_snodes() + s; }
  int gtag() const { return opt_.tag_base + 3 * bs_.n_snodes(); }

  void forward(const SolvePanel& p) {
    const index_t n = p.n, nrhs = p.nrhs;
    std::vector<real_t> ybuf, vbuf;
    for (const int s : sched_.forward()) {
      const index_t ns = bs_.snode_size(s);
      if (ns == 0) continue;
      const index_t f = bs_.first_col(s);
      const bool my_grid = g_.pz() == part_.anchor_of(s);
      const bool in_pcol = my_grid && g_.plane().py() == s % Py();

      if (world_.rank() == diag_owner(s)) {
        for (const auto& [c, blkidx] : sched_.into(s)) {
          const PanelBlock& blk = bs_.lpanel(c)[static_cast<std::size_t>(blkidx)];
          const int src = world_of(part_.anchor_of(c), s % Px(), c % Py());
          const auto v = world_.recv(src, ftag(c), CommPlane::Z);
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
        world_.add_compute(dense::trsm_flops(ns, nrhs), ComputeKind::Other);
      }

      // y_s to the L-block owners (all live on anchor(s), column s%Py).
      if (in_pcol) {
        p.gather(f, ns, ybuf);
        g_.plane().col().bcast(s % Px(), ftag(s), ybuf, CommPlane::XY);
        p.scatter(ybuf, f, ns);

        for (const OwnedBlock& ob : F_.lblocks(s)) {
          const PanelBlock& blk =
              bs_.lpanel(s)[static_cast<std::size_t>(ob.panel_idx)];
          const auto m = static_cast<index_t>(blk.rows.size());
          vbuf.assign(static_cast<std::size_t>(m) *
                          static_cast<std::size_t>(nrhs),
                      0.0);
          dense::gemm_minus(m, nrhs, ns, ob.data.data(), m, ybuf.data(), ns,
                            vbuf.data(), m);
          world_.add_compute(dense::gemm_flops(m, nrhs, ns),
                             ComputeKind::Other);
          world_.send(diag_owner(blk.snode), ftag(s), vbuf, CommPlane::Z);
        }
      }
    }
  }

  void backward(const SolvePanel& p) {
    const index_t n = p.n, nrhs = p.nrhs;
    std::vector<real_t> xbuf, gbuf, vbuf;
    for (const int s : sched_.backward()) {
      const index_t ns = bs_.snode_size(s);
      if (ns == 0) continue;
      const index_t f = bs_.first_col(s);
      const bool in_group = part_.on_grid(s, g_.pz());
      const bool on_zline =
          in_group && g_.plane().px() == s % Px() && g_.plane().py() == s % Py();
      const bool in_pcol = in_group && g_.plane().py() == s % Py();

      if (world_.rank() == diag_owner(s)) {
        // U(s, a) blocks live with supernode s on my own grid.
        for (const PanelBlock& blk : bs_.lpanel(s)) {
          const int src = world_of(part_.anchor_of(s), s % Px(), blk.snode % Py());
          const auto v = world_.recv(src, btag(blk.snode), CommPlane::Z);
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
        world_.add_compute(dense::trsm_flops(ns, nrhs), ComputeKind::Other);
      }

      // Propagate x_s down the replication group: along z to each grid's
      // (s%Px, s%Py) rank, then along each plane's process column.
      if (on_zline) {
        p.gather(f, ns, xbuf);
        zgroup_[static_cast<std::size_t>(part_.level_of(s))].bcast(
            0, btag(s), xbuf, CommPlane::Z);
        p.scatter(xbuf, f, ns);
      }
      if (in_pcol) {
        p.gather(f, ns, xbuf);
        g_.plane().col().bcast(s % Px(), btag(s), xbuf, CommPlane::XY);
        p.scatter(xbuf, f, ns);

        // U(c, s) contributions for descendants c anchored on my grid, in
        // the receivers' visiting order: contributions to different
        // descendants share this rank's (source, btag(s)) pair.
        for (const auto& [c, blkidx] : sched_.out_of(s)) {
          if (part_.anchor_of(c) != g_.pz() || c % Px() != g_.plane().px())
            continue;
          OwnedBlock* ob = F_.find_ublock(c, s);
          SLU3D_CHECK(ob != nullptr, "missing owned U block in 3D solve");
          const PanelBlock& blk = bs_.lpanel(c)[static_cast<std::size_t>(blkidx)];
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
          world_.add_compute(dense::gemm_flops(nc, nrhs, m),
                             ComputeKind::Other);
          world_.send(diag_owner(c), btag(s), vbuf, CommPlane::Z);
        }
      }
    }
  }

  /// Gives every rank the full solution: each supernode's solved slice
  /// lives on its diagonal owner, and one allgatherv concatenates the
  /// owners' slices in world-rank order.
  void redistribute(const SolvePanel& p) {
    std::vector<int> own(static_cast<std::size_t>(bs_.n_snodes()));
    std::vector<real_t> packed, slice;
    for (int s = 0; s < bs_.n_snodes(); ++s) {
      own[static_cast<std::size_t>(s)] = diag_owner(s);
      if (own[static_cast<std::size_t>(s)] == world_.rank()) {
        p.gather(bs_.first_col(s), bs_.snode_size(s), slice);
        packed.insert(packed.end(), slice.begin(), slice.end());
      }
    }
    const std::vector<real_t> all =
        world_.allgatherv(gtag(), packed, CommPlane::Z);
    // The stream holds rank 0's slices in ascending s, then rank 1's, ...
    std::vector<int> order(own.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return own[static_cast<std::size_t>(a)] < own[static_cast<std::size_t>(b)];
    });
    std::size_t pos = 0;
    for (const int s : order) {
      const auto ns = bs_.snode_size(s);
      const auto len =
          static_cast<std::size_t>(ns) * static_cast<std::size_t>(p.nrhs);
      SLU3D_CHECK(pos + len <= all.size(), "gather underflow");
      p.scatter(std::span<const real_t>(all).subspan(pos, len),
                bs_.first_col(s), ns);
      pos += len;
    }
    SLU3D_CHECK(pos == all.size(), "gather stream not fully consumed");
  }

  Dist2dFactors& F_;
  sim::Comm& world_;
  sim::ProcessGrid3D& g_;
  const ForestPartition& part_;
  const BlockStructure& bs_;
  Solve3dOptions opt_;
  SolveSchedule sched_;
  std::vector<sim::Comm> zgroup_;
};

}  // namespace

int solve3d_tag_span(const BlockStructure& bs) {
  // ftag/btag use n_snodes tags each, gtag one more at 3*n_snodes; the
  // remaining headroom keeps queued solves on a resident grid strictly
  // disjoint even if the schedule grows another tag class.
  return 4 * bs.n_snodes() + 8;
}

void solve_3d(Dist2dFactors& F, sim::Comm& world, sim::ProcessGrid3D& grid,
              const ForestPartition& part, std::span<real_t> x,
              const Solve3dOptions& options) {
  Solve3dDriver(F, world, grid, part, options).run(x);
}

}  // namespace slu3d
