#include "lu3d/solve3d.hpp"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "numeric/dense_kernels.hpp"
#include "support/check.hpp"

namespace slu3d {

SolvePlan::SolvePlan(const BlockStructure& bs, const ForestPartition& part,
                     int Px, int Py)
    : bs_(&bs), layout_{Px, Py, part.Pz()} {
  SLU3D_CHECK(Px >= 1 && Py >= 1, "solve plan needs a positive grid shape");
  const int nsn = bs.n_snodes();
  const auto nsz = static_cast<std::size_t>(nsn);
  const auto ix = [](int i) { return static_cast<std::size_t>(i); };

  // The schedule: the forward sweep in the leaves-first order the
  // factorization uses, the backward sweep by (nd_depth, id). Both are
  // valid elimination orders, because a panel block of c always targets a
  // strict ND ancestor of c.
  std::vector<int> ids(nsz);
  std::iota(ids.begin(), ids.end(), 0);
  forward_ = bs.leaves_first(ids);
  backward_ = std::move(ids);
  std::sort(backward_.begin(), backward_.end(), [&](int a, int b) {
    return std::pair{bs.nd_depth(a), a} < std::pair{bs.nd_depth(b), b};
  });
  std::vector<int> fpos(nsz), bpos(nsz);
  for (int i = 0; i < nsn; ++i) {
    fpos[ix(forward_[ix(i)])] = i;
    bpos[ix(backward_[ix(i)])] = i;
  }

  owner_.resize(nsz);
  entry_base_.resize(nsz + 1, 0);
  into_.resize(nsz);
  for (int c = 0; c < nsn; ++c) {
    owner_[ix(c)] = layout_.rank_of(c % Px, c % Py, part.anchor_of(c));
    const auto panel = bs.lpanel(c);
    entry_base_[ix(c) + 1] = entry_base_[ix(c)] + static_cast<int>(panel.size());
    for (int k = 0; k < static_cast<int>(panel.size()); ++k) {
      const int a = panel[ix(k)].snode;
      // What the sweeps need of an ND ancestor: visited after c going
      // forward and before c going backward.
      SLU3D_CHECK(bs.nd_height(a) > bs.nd_height(c) &&
                      bs.nd_depth(a) < bs.nd_depth(c),
                  "panel block must target a higher and shallower supernode");
      into_[ix(a)].push_back({c, k});
    }
  }
  out_of_ = into_;
  for (auto& refs : out_of_)
    std::stable_sort(refs.begin(), refs.end(),
                     [&](const PanelRef& u, const PanelRef& v) {
                       return bpos[ix(u.first)] < bpos[ix(v.first)];
                     });

  // Packs. `refs` lists one target's pieces in the order their sources
  // compute them; each source's pieces go back to back into its pack.
  // `slot_of` maps a world rank to its slot for the current target (-1:
  // none yet).
  std::vector<int> slot_of(ix(Px * Py * layout_.Pz), -1);
  const auto lay_out = [&](const std::vector<std::pair<PanelRef, int>>& refs,
                           std::vector<Piece>& pieces,
                           std::vector<Source>& sources, const auto& rows_of) {
    for (const auto& [ref, src] : refs) {
      int& slot = slot_of[ix(src)];
      if (slot < 0) {
        slot = static_cast<int>(sources.size());
        sources.push_back({src, 0});
      }
      pieces[ix(entry(ref.first, ref.second))] = {src, slot,
                                                  sources[ix(slot)].rows};
      sources[ix(slot)].rows += rows_of(ref);
    }
    for (const Source& src : sources) slot_of[ix(src.rank)] = -1;
  };
  const auto total = static_cast<std::size_t>(entry_base_.back());
  fwd_.resize(total);
  bwd_.resize(total);
  fwd_src_.resize(nsz);
  bwd_src_.resize(nsz);
  std::vector<std::pair<PanelRef, int>> refs;
  for (int t = 0; t < nsn; ++t) {
    // Forward target t: L(t, c) lives on (anchor(c), t % Px, c % Py),
    // which computes it when it visits c.
    refs.clear();
    for (const PanelRef& r : into_[ix(t)])
      refs.push_back({r, layout_.rank_of(t % Px, r.first % Py,
                                         part.anchor_of(r.first))});
    std::stable_sort(refs.begin(), refs.end(), [&](const auto& u, const auto& v) {
      return fpos[ix(u.first.first)] < fpos[ix(v.first.first)];
    });
    lay_out(refs, fwd_, fwd_src_[ix(t)], [&](const PanelRef& r) {
      return bs.lpanel(r.first)[ix(r.second)].n_rows();
    });

    // Backward target t: U(t, a) lives on (anchor(t), t % Px, a % Py),
    // which computes it when it visits a.
    refs.clear();
    const auto panel = bs.lpanel(t);
    for (int k = 0; k < static_cast<int>(panel.size()); ++k)
      refs.push_back({{t, k}, layout_.rank_of(t % Px, panel[ix(k)].snode % Py,
                                              part.anchor_of(t))});
    std::stable_sort(refs.begin(), refs.end(), [&](const auto& u, const auto& v) {
      return bpos[ix(panel[ix(u.first.second)].snode)] <
             bpos[ix(panel[ix(v.first.second)].snode)];
    });
    lay_out(refs, bwd_, bwd_src_[ix(t)],
            [&](const PanelRef&) { return bs.snode_size(t); });
  }

  // Broadcast trees: the diagonal owner, then the other owners of L(a, s)
  // for a in lpanel(s) (y_s), resp. of U(c, s) for c with s in lpanel(c)
  // (x_s), in ascending rank.
  ytree_.resize(nsz);
  xtree_.resize(nsz);
  const auto root_first = [&](int s, std::vector<int>& members) {
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    std::erase(members, owner_[ix(s)]);
    members.insert(members.begin(), owner_[ix(s)]);
  };
  for (int s = 0; s < nsn; ++s) {
    for (const PanelBlock& blk : bs.lpanel(s))
      ytree_[ix(s)].push_back(
          layout_.rank_of(blk.snode % Px, s % Py, part.anchor_of(s)));
    root_first(s, ytree_[ix(s)]);
    for (const auto& [c, k] : into_[ix(s)])
      xtree_[ix(s)].push_back(
          layout_.rank_of(c % Px, s % Py, part.anchor_of(c)));
    root_first(s, xtree_[ix(s)]);
  }
}

namespace {

using sim::CommPlane;
using sim::ComputeKind;

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

}  // namespace

/// Contribution pieces carry the *negated* partial product (gemm_minus
/// computes C -= A B into a zeroed buffer), so diagonal owners accumulate
/// with +=. Supernodes are visited in the plan's order.
class Solve3dDriver {
 public:
  Solve3dDriver(Dist2dFactors& F, sim::Comm& world, const SolvePlan& plan,
                const Solve3dOptions& opt)
      : F_(F), world_(world), plan_(plan), bs_(F.structure()), opt_(opt),
        me_(world.rank()),
        packs_(static_cast<std::size_t>(bs_.n_snodes())) {
    SLU3D_CHECK(&plan.structure() == &bs_,
                "solve plan was built for another block structure");
    SLU3D_CHECK(world.size() == plan.Px() * plan.Py() * plan.Pz(),
                "solve plan grid does not match the communicator");
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
  int ftag(int a) const { return opt_.tag_base + a; }
  int btag(int c) const { return opt_.tag_base + bs_.n_snodes() + c; }
  int ttag(int s) const { return opt_.tag_base + 2 * bs_.n_snodes() + s; }
  int gtag() const { return opt_.tag_base + 3 * bs_.n_snodes(); }
  /// XY between ranks of one grid, Z across grids.
  CommPlane plane_to(int r) const {
    return plan_.grid_of(r) == plan_.grid_of(me_) ? CommPlane::XY
                                                  : CommPlane::Z;
  }
  std::size_t len(index_t rows) const {
    return static_cast<std::size_t>(rows) * static_cast<std::size_t>(opt_.nrhs);
  }

  void forward(const SolvePanel& p) {
    const index_t n = p.n, nrhs = p.nrhs;
    std::vector<real_t> ybuf, vbuf;
    for (const int s : plan_.forward()) {
      const index_t ns = bs_.snode_size(s);
      if (ns == 0) continue;
      const index_t f = bs_.first_col(s);

      if (me_ == plan_.owner(s)) {
        collect(s, plan_.fwd_sources(s), ftag(s));
        for (const auto& [c, k] : plan_.into(s)) {
          const PanelBlock& blk = bs_.lpanel(c)[static_cast<std::size_t>(k)];
          const SolvePlan::Piece& pc = plan_.fwd_piece(c, k);
          const real_t* v =
              in_[static_cast<std::size_t>(pc.slot)].data() + len(pc.row);
          const auto m = blk.rows.size();
          for (index_t j = 0; j < nrhs; ++j)
            for (std::size_t r = 0; r < m; ++r)
              p.x[static_cast<std::size_t>(blk.rows[r] + j * n)] +=
                  v[r + static_cast<std::size_t>(j) * m];
        }
        dense::trsm_left_lower_unit(ns, nrhs, F_.diag(s).data(), ns,
                                    p.x.data() + f, n);
        world_.add_compute(dense::trsm_flops(ns, nrhs), ComputeKind::Other);
        p.gather(f, ns, ybuf);
      }

      // y_s to the owners of L(a, s), which all live on anchor(s).
      if (!tree_bcast(plan_.ytree(s), ttag(s), ybuf, len(ns))) continue;
      for (const OwnedBlock& ob : F_.lblocks(s)) {
        const PanelBlock& blk =
            bs_.lpanel(s)[static_cast<std::size_t>(ob.panel_idx)];
        const auto m = static_cast<index_t>(blk.rows.size());
        vbuf.assign(len(m), 0.0);
        dense::gemm_minus(m, nrhs, ns, ob.data.data(), m, ybuf.data(), ns,
                          vbuf.data(), m);
        world_.add_compute(dense::gemm_flops(m, nrhs, ns), ComputeKind::Other);
        stash(plan_.fwd_piece(s, ob.panel_idx), plan_.fwd_sources(blk.snode),
              blk.snode, ftag(blk.snode), vbuf);
      }
    }
    check_shipped();
  }

  void backward(const SolvePanel& p) {
    const index_t n = p.n, nrhs = p.nrhs;
    std::vector<real_t> xbuf, gbuf, vbuf;
    for (const int s : plan_.backward()) {
      const index_t ns = bs_.snode_size(s);
      if (ns == 0) continue;
      const index_t f = bs_.first_col(s);

      if (me_ == plan_.owner(s)) {
        collect(s, plan_.bwd_sources(s), btag(s));
        // U(s, a) pieces, added in lpanel order.
        for (int k = 0; k < static_cast<int>(bs_.lpanel(s).size()); ++k) {
          const SolvePlan::Piece& pc = plan_.bwd_piece(s, k);
          const real_t* v =
              in_[static_cast<std::size_t>(pc.slot)].data() + len(pc.row);
          for (index_t j = 0; j < nrhs; ++j)
            for (index_t r = 0; r < ns; ++r)
              p.x[static_cast<std::size_t>(f + r + j * n)] +=
                  v[static_cast<std::size_t>(r + j * ns)];
        }
        dense::trsm_left_upper(ns, nrhs, F_.diag(s).data(), ns, p.x.data() + f,
                               n);
        world_.add_compute(dense::trsm_flops(ns, nrhs), ComputeKind::Other);
        p.gather(f, ns, xbuf);
      }

      // x_s to the owners of U(c, s), on the anchor grids of the c.
      if (!tree_bcast(plan_.xtree(s), ttag(s), xbuf, len(ns))) continue;
      if (me_ != plan_.owner(s)) p.scatter(xbuf, f, ns);
      for (const auto& [c, k] : plan_.out_of(s)) {
        const SolvePlan::Piece& pc = plan_.bwd_piece(c, k);
        if (pc.src != me_) continue;
        OwnedBlock* ob = F_.find_ublock(c, s);
        SLU3D_CHECK(ob != nullptr, "missing owned U block in 3D solve");
        const PanelBlock& blk = bs_.lpanel(c)[static_cast<std::size_t>(k)];
        const index_t nc = bs_.snode_size(c);
        const auto m = static_cast<index_t>(blk.rows.size());
        // Gather the (non-contiguous) ancestor rows of x used by this
        // U block into an m x nrhs panel for the GEMM.
        gbuf.resize(len(m));
        for (index_t j = 0; j < nrhs; ++j)
          for (index_t r = 0; r < m; ++r)
            gbuf[static_cast<std::size_t>(r + j * m)] =
                p.x[static_cast<std::size_t>(
                    blk.rows[static_cast<std::size_t>(r)] + j * n)];
        vbuf.assign(len(nc), 0.0);
        dense::gemm_minus(nc, nrhs, m, ob->data.data(), nc, gbuf.data(), m,
                          vbuf.data(), nc);
        world_.add_compute(dense::gemm_flops(nc, nrhs, m), ComputeKind::Other);
        stash(pc, plan_.bwd_sources(c), c, btag(c), vbuf);
      }
    }
    check_shipped();
  }

  /// Fills in_ with target t's packs, one per source slot: my own pack
  /// from packs_, every other one received.
  void collect(int t, std::span<const SolvePlan::Source> sources, int tag) {
    in_.resize(sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const int src = sources[i].rank;
      in_[i] = src == me_ ? std::exchange(packs_[static_cast<std::size_t>(t)], {})
                          : world_.recv(src, tag, plane_to(src));
      SLU3D_CHECK(in_[i].size() == len(sources[i].rows),
                  "contribution pack size");
    }
  }

  /// Appends a piece to my pack for target t (whose pack sources are
  /// `sources`). The pack ships to t's diagonal owner once it holds all
  /// my pieces for t, unless that owner is me: then it waits in packs_
  /// for collect().
  void stash(const SolvePlan::Piece& pc,
             std::span<const SolvePlan::Source> sources, int t, int tag,
             std::span<const real_t> piece) {
    SLU3D_CHECK(pc.src == me_, "solve plan assigns this piece to another rank");
    auto& pack = packs_[static_cast<std::size_t>(t)];
    SLU3D_CHECK(pack.size() == len(pc.row), "contribution out of pack order");
    pack.insert(pack.end(), piece.begin(), piece.end());
    const int dst = plan_.owner(t);
    if (dst != me_ &&
        pack.size() == len(sources[static_cast<std::size_t>(pc.slot)].rows)) {
      world_.send(dst, tag, pack, plane_to(dst));
      pack.clear();
    }
  }

  /// At the end of a sweep every pack this rank owed has shipped or been
  /// collected.
  void check_shipped() const {
    for (const auto& pack : packs_)
      SLU3D_CHECK(pack.empty(), "a contribution pack was never shipped");
  }

  /// Broadcast of `buf` (`n` elements) from members[0] over
  /// sim::binomial_tree, on point-to-point messages so that each hop is
  /// labelled by plane_to: receive from the parent, then send to the
  /// children, farthest first. Returns false, touching nothing, when this
  /// rank is not a member.
  bool tree_bcast(std::span<const int> members, int tag,
                  std::vector<real_t>& buf, std::size_t n) {
    const auto it = std::find(members.begin(), members.end(), me_);
    if (it == members.end()) return false;
    const sim::BinomialTree t =
        sim::binomial_tree(static_cast<int>(it - members.begin()),
                           static_cast<int>(members.size()));
    if (t.parent >= 0) {
      const int parent = members[static_cast<std::size_t>(t.parent)];
      buf = world_.recv(parent, tag, plane_to(parent));
      SLU3D_CHECK(buf.size() == n, "solved slice size");
    }
    for (const int c : t.children) {
      const int child = members[static_cast<std::size_t>(c)];
      world_.send(child, tag, buf, plane_to(child));
    }
    return true;
  }

  /// Gives every rank the full solution: each supernode's solved slice
  /// lives on its diagonal owner, and one allgatherv concatenates the
  /// owners' slices in world-rank order.
  void redistribute(const SolvePanel& p) {
    std::vector<real_t> packed, slice;
    for (int s = 0; s < bs_.n_snodes(); ++s)
      if (plan_.owner(s) == me_) {
        p.gather(bs_.first_col(s), bs_.snode_size(s), slice);
        packed.insert(packed.end(), slice.begin(), slice.end());
      }
    const std::vector<real_t> all = world_.allgatherv(
        gtag(), packed, plan_.Pz() == 1 ? CommPlane::XY : CommPlane::Z);
    // The stream holds rank 0's slices in ascending s, then rank 1's, ...
    std::vector<int> order(static_cast<std::size_t>(bs_.n_snodes()));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return plan_.owner(a) < plan_.owner(b);
    });
    std::size_t pos = 0;
    for (const int s : order) {
      const auto ns = bs_.snode_size(s);
      SLU3D_CHECK(pos + len(ns) <= all.size(), "gather underflow");
      p.scatter(std::span<const real_t>(all).subspan(pos, len(ns)),
                bs_.first_col(s), ns);
      pos += len(ns);
    }
    SLU3D_CHECK(pos == all.size(), "gather stream not fully consumed");
  }

  Dist2dFactors& F_;
  sim::Comm& world_;
  const SolvePlan& plan_;
  const BlockStructure& bs_;
  Solve3dOptions opt_;
  int me_;
  std::vector<std::vector<real_t>> packs_;  ///< my pack per target
  std::vector<std::vector<real_t>> in_;     ///< one target's packs, by slot
};

int solve3d_tag_span(const BlockStructure& bs) {
  // Packs into a, packs into c and tree messages use n_snodes tags each,
  // the allgatherv one more at 3*n_snodes; the rest is headroom for
  // another tag class.
  return 4 * bs.n_snodes() + 8;
}

void solve_3d(Dist2dFactors& F, sim::Comm& world, const SolvePlan& plan,
              std::span<real_t> x, const Solve3dOptions& options) {
  Solve3dDriver(F, world, plan, options).run(x);
}

void solve_3d(Dist2dFactors& F, sim::Comm& world, sim::ProcessGrid3D& grid,
              const ForestPartition& part, std::span<real_t> x,
              const Solve3dOptions& options) {
  solve_3d(F, world, SolvePlan(F.structure(), part, grid.plane().Px(),
                               grid.plane().Py()),
           x, options);
}

}  // namespace slu3d
