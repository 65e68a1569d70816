// Algorithm 1 on the 3D grid: setup of the masked replicated layouts, the
// level loop with the z-axis Ancestor-Reduction, and the gather to root.
// Each 2D grid factors its elimination-forest levels bottom-up with
// factorize_2d; after each level the (2k+1)-th active grid sends its copies
// of every common-ancestor block to the (2k)-th, which accumulates them.
// Each ancestor supernode travels as its own non-blocking message, drained
// only when its forest level is factored, so the transfer rides under the
// 2D factorization of deeper levels.
//
// The reduction's wire format is LuOptions::wire, the one that also packs
// every level's panel transfers. Every grid's first factorize_2d call
// validates it before any z-axis message moves. Both formats send one
// message per ancestor on tag kReduceTagBase + level (see for_each_block
// for the block enumeration):
//   Dense:    every allocated block of each ancestor travels verbatim.
//   Targeted: the same dense stream travels as one frame (encode_frame: a
//             scalar presence bitmap plus the nonzero scalars), so every
//             zero of the replicated copy is elided, inside touched blocks
//             too. The owner expands the frame and accumulates the dense
//             stream in the same order as Dense — numerically identical.
//
// An ancestor whose *dense* packed size is zero is skipped without a
// message — sender and receiver compute that size independently from
// their identical masked layouts, so no handshake is needed (and the
// decision cannot depend on numeric values, which only the sender knows).
#include "lu3d/factor3d.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "support/check.hpp"

namespace slu3d {

namespace {

using sim::CommPlane;

constexpr int kReduceTagBase = (1 << 22);
constexpr int kGatherTag = (1 << 22) + 64;

/// Visits every block of supernode s this rank holds, in the order that IS
/// the z and gather wire format: diag (if owned), then L blocks ascending,
/// then U blocks ascending. `F` is Dist2dFactors or const Dist2dFactors.
template <class F, class Fn>
void for_each_block(F& f, int s, Fn&& fn) {
  if (f.has_diag(s)) fn(f.diag(s));
  for (auto& b : f.lblocks(s)) fn(std::span{b.data});
  for (auto& b : f.ublocks(s)) fn(std::span{b.data});
}

/// Packed length of supernode s on this rank. Ranks sharing (px, py) on
/// z-adjacent grids hold identical masked layouts for common ancestors,
/// so sender and receiver compute the same value independently — empty
/// ancestors can be skipped symmetrically without a handshake.
std::size_t packed_elems(const Dist2dFactors& f, int s) {
  std::size_t n = 0;
  for_each_block(f, s, [&](std::span<const real_t> blk) { n += blk.size(); });
  return n;
}

/// Accumulates one block from buf at pos; returns the advanced position.
std::size_t add_block(std::span<real_t> blk, std::span<const real_t> buf,
                      std::size_t pos) {
  SLU3D_CHECK(pos + blk.size() <= buf.size(), "reduction stream underflow");
  for (std::size_t i = 0; i < blk.size(); ++i) blk[i] += buf[pos + i];
  return pos + blk.size();
}

/// Appends every block of supernode s held by this rank (dense wire).
void pack_snode(const Dist2dFactors& f, int s, std::vector<real_t>& out) {
  for_each_block(f, s, [&](std::span<const real_t> blk) {
    out.insert(out.end(), blk.begin(), blk.end());
  });
}

/// Mirror of pack_snode: adds the packed stream into the local blocks.
std::size_t add_snode(Dist2dFactors& f, int s, std::span<const real_t> buf,
                      std::size_t pos) {
  for_each_block(
      f, s, [&](std::span<real_t> blk) { pos = add_block(blk, buf, pos); });
  return pos;
}

/// Zeroes every owned block of the non-anchor replicated ancestors, so the
/// pairwise z-reductions sum to A + all Schur updates exactly once
/// ("initialize A(S) with zeros", §III-A).
void zero_nonanchor_replicas(Dist2dFactors& f, const ForestPartition& part,
                             int pz) {
  for (int s = 0; s < f.structure().n_snodes(); ++s) {
    if (!part.on_grid(s, pz) || part.anchor_of(s) == pz) continue;
    for_each_block(f, s, [](std::span<real_t> blk) {
      std::fill(blk.begin(), blk.end(), 0.0);
    });
  }
}

}  // namespace

Dist2dFactors make_3d_factors(const BlockStructure& bs,
                              sim::ProcessGrid3D& grid,
                              const ForestPartition& part,
                              const CsrMatrix& Ap) {
  auto& plane = grid.plane();
  Dist2dFactors F(bs, plane.Px(), plane.Py(), plane.px(), plane.py(),
                  part.mask_for(grid.pz()));
  F.fill_from(Ap);
  zero_nonanchor_replicas(F, part, grid.pz());
  return F;
}

void refill_3d_factors(Dist2dFactors& F, sim::ProcessGrid3D& grid,
                       const ForestPartition& part, const CsrMatrix& Ap) {
  F.zero();
  F.fill_from(Ap);
  zero_nonanchor_replicas(F, part, grid.pz());
}

void factorize_3d(Dist2dFactors& F, sim::ProcessGrid3D& grid,
                  const ForestPartition& part, const LuOptions& options) {
  const BlockStructure& bs = F.structure();
  const int l = part.n_levels() - 1;
  const int pz = grid.pz();
  const bool targeted = options.wire == Wire::Targeted;
  // The supernodes this grid reduces after factoring level `lvl`: its
  // copies of every common ancestor of that level.
  auto reduced_after = [&](int s, int lvl) {
    return part.level_of(s) < lvl && part.on_grid(s, pz);
  };

  // Outstanding reduction messages, one per ancestor supernode. Each is
  // drained right before the level that factors its supernode — until then
  // its transfer rides under the 2D factorization of deeper levels.
  struct Pending {
    sim::Request req;
    int snode = -1;
  };
  std::vector<Pending> outstanding;
  std::vector<real_t> dense;  // a Targeted frame, expanded

  auto unpack = [&](Pending& p) {
    const std::vector<real_t> msg = p.req.take();
    std::span<const real_t> stream = msg;
    if (targeted) {
      dense.resize(packed_elems(F, p.snode));
      SLU3D_CHECK(decode_frame(msg, dense) == msg.size(),
                  "reduction frame not fully consumed");
      stream = dense;
    }
    const std::size_t end = add_snode(F, p.snode, stream, 0);
    SLU3D_CHECK(end == stream.size(), "reduction message not fully consumed");
  };
  auto drain = [&](auto&& keep_pending) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < outstanding.size(); ++i) {
      Pending& p = outstanding[i];
      if (keep_pending(p.snode)) {
        if (kept != i) outstanding[kept] = std::move(p);  // no self-move
        ++kept;
        continue;
      }
      unpack(p);
    }
    outstanding.resize(kept);
  };

  for (int lvl = l; lvl >= 0; --lvl) {
    const int step = 1 << (l - lvl);
    if (pz % step != 0) continue;  // this grid is inactive at this level

    // Messages feeding this level's supernodes must be in before they are
    // factored; deeper ones keep overlapping.
    drain([&](int s) { return part.level_of(s) < lvl; });

    const std::vector<int> nodes = part.nodes_at(pz, lvl);
    factorize_2d(F, grid.plane(), nodes, options);

    if (lvl == 0) break;

    // Ancestor-Reduction: the (2k+1)-th active grid sends its copies of
    // every common-ancestor block to the (2k)-th, which accumulates them.
    // Both sides walk the same ancestors in the same order and skip
    // structurally empty ancestors symmetrically, so sends and receives
    // pair up without any handshake.
    const int k = pz / step;
    if (k % 2 == 1) {
      // The outgoing copies must include everything received so far.
      drain([](int) { return false; });
      std::vector<real_t> buf, frame;
      for (int s = 0; s < bs.n_snodes(); ++s) {
        if (!reduced_after(s, lvl)) continue;
        const std::size_t len = packed_elems(F, s);
        if (len == 0) continue;  // peer skips the matching receive
        buf.clear();
        pack_snode(F, s, buf);
        std::span<const real_t> wire = buf;
        if (targeted) {
          frame.resize(frame_bitmap_words(len) + len);
          wire = std::span{frame}.first(encode_frame(buf, frame));
        }
        grid.zline().isend(pz - step, kReduceTagBase + lvl, wire,
                           CommPlane::Z);
      }
    } else {
      for (int s = 0; s < bs.n_snodes(); ++s) {
        if (!reduced_after(s, lvl) || packed_elems(F, s) == 0) continue;
        outstanding.push_back(
            {grid.zline().irecv(pz + step, kReduceTagBase + lvl, CommPlane::Z),
             s});
      }
    }
  }
  SLU3D_CHECK(outstanding.empty(), "undrained reduction messages");
}

std::optional<SupernodalMatrix> gather_3d_to_root(const Dist2dFactors& F,
                                                  sim::Comm& world,
                                                  sim::ProcessGrid3D& grid,
                                                  const ForestPartition& part) {
  const BlockStructure& bs = F.structure();
  auto& plane = grid.plane();
  const int Px = plane.Px(), Py = plane.Py();

  // Every rank packs the supernodes anchored on its grid.
  std::vector<real_t> mine;
  for (int s = 0; s < bs.n_snodes(); ++s)
    if (part.anchor_of(s) == grid.pz())
      pack_snode(F, s, mine);

  if (world.rank() != 0) {
    world.send(0, kGatherTag, mine, CommPlane::Z);
    return std::nullopt;
  }

  const sim::GridLayout layout{Px, Py, grid.Pz()};
  SupernodalMatrix full(bs);
  auto unpack_rank = [&](int src, std::span<const real_t> buf) {
    const int spz = layout.pz_of(src), spx = layout.px_of(src),
              spy = layout.py_of(src);
    std::size_t pos = 0;
    auto rank_owns = [&](int bi, int bj) {
      return bi % Px == spx && bj % Py == spy;
    };
    for (int s = 0; s < bs.n_snodes(); ++s) {
      if (part.anchor_of(s) != spz) continue;
      const auto ns = static_cast<std::size_t>(bs.snode_size(s));
      if (ns == 0) continue;
      if (rank_owns(s, s)) {
        auto d = full.diag(s);
        SLU3D_CHECK(pos + ns * ns <= buf.size(), "gather underflow (diag)");
        std::copy_n(buf.begin() + static_cast<std::ptrdiff_t>(pos), ns * ns,
                    d.begin());
        pos += ns * ns;
      }
      const auto panel = bs.lpanel(s);
      const auto mtot = full.panel_rows(s).size();
      for (const auto& blk : panel) {
        const auto m = static_cast<std::size_t>(blk.n_rows());
        if (!rank_owns(blk.snode, s)) continue;
        const auto [off, cnt] = full.block_range(s, blk.snode);
        SLU3D_CHECK(off >= 0 && static_cast<std::size_t>(cnt) == m, "L range");
        SLU3D_CHECK(pos + m * ns <= buf.size(), "gather underflow (L)");
        auto lp = full.lpanel(s);
        for (std::size_t c = 0; c < ns; ++c)
          for (std::size_t r = 0; r < m; ++r)
            lp[static_cast<std::size_t>(off) + r + c * mtot] = buf[pos + r + c * m];
        pos += m * ns;
      }
      for (const auto& blk : panel) {
        const auto m = static_cast<std::size_t>(blk.n_rows());
        if (!rank_owns(s, blk.snode)) continue;
        const auto [off, cnt] = full.block_range(s, blk.snode);
        SLU3D_CHECK(off >= 0 && static_cast<std::size_t>(cnt) == m, "U range");
        SLU3D_CHECK(pos + ns * m <= buf.size(), "gather underflow (U)");
        auto up = full.upanel(s);
        for (std::size_t c = 0; c < m; ++c)
          for (std::size_t r = 0; r < ns; ++r)
            up[r + (static_cast<std::size_t>(off) + c) * ns] = buf[pos + r + c * ns];
        pos += ns * m;
      }
    }
    SLU3D_CHECK(pos == buf.size(), "gather stream not fully consumed");
  };

  unpack_rank(0, mine);
  for (int r = 1; r < world.size(); ++r)
    unpack_rank(r, world.recv(r, kGatherTag, CommPlane::Z));
  return full;
}

}  // namespace slu3d
