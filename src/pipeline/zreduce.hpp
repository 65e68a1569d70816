// The shared 3D driver engine: Algorithm 1's level loop with the z-axis
// Ancestor-Reduction. Each 2D grid factors its elimination-forest levels
// bottom-up (the per-level 2D primitive is injected as a callable, so the
// LU and Cholesky drivers differ only in that lambda); after each level the
// (2k+1)-th active grid sends its copies of every common-ancestor block to
// the (2k)-th, which accumulates them. The reduction is chunked into
// non-blocking per-chunk messages (chunk_snodes ancestor supernodes each)
// drained only when their forest level is factored, so the transfer rides
// under the 2D factorization of deeper levels.
//
// Wire formats (see pipeline/factors_access.hpp for block enumeration):
//   Dense:  every allocated block of each ancestor travels verbatim —
//           byte-identical to the historical factor3d/factor3d_chol pair.
//   Sparse: each ancestor is framed as ceil(n_blocks/64) bitmap words
//           (uint64 bit i = block i present, bit_cast into real_t) followed
//           by only the blocks whose local accumulation holds any nonzero.
//           Blocks a subtree never touched are omitted; the receiver skips
//           them symmetrically by reading the bitmap. Savings are recorded
//           in the sender's RankStats::zred_* counters.
//
// A chunk whose *dense* packed size is zero is skipped without a message —
// sender and receiver compute that size independently from
// their identical masked layouts, so no handshake is needed (and the
// decision cannot depend on numeric values, which only the sender knows).
//
//   Targeted: one-sided delivery over simmpi RMA windows. Each level gets
//           its own window over the z-line communicator (created
//           collectively up front — chunks from several levels can be
//           outstanding at once, and a level's staging offsets must not
//           depend on other levels' masked layouts, which a sender cannot
//           always compute). The sender scatter-accumulates each chunk's
//           dense stream — a scalar-granularity presence bitmap plus the
//           nonzero scalars — into the receiver's zeroed staging region at
//           the chunk's dense offset, so raggedness *inside* touched
//           blocks is elided too (Sparse only skips whole all-zero
//           blocks). The receiver registers each chunk with
//           Window::expect and, at the drain, waits the delivery and
//           accumulates the staged dense stream in the same order as
//           Dense — numerically identical. Savings reconcile byte-exactly
//           against the dense wire: received + zred_bytes_saved == dense.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "lu3d/forest_partition.hpp"
#include "numeric/dense_kernels.hpp"
#include "pipeline/factors_access.hpp"
#include "pipeline/options.hpp"
#include "simmpi/process_grid.hpp"
#include "support/check.hpp"

namespace slu3d::pipeline {

/// True if the packed region of a (span, tri_n) block is entirely zero.
inline bool block_all_zero(std::span<const real_t> blk, index_t tri) {
  if (tri == 0) return dense::all_zero(blk.data(), blk.size());
  for (index_t c = 0; c < tri; ++c)
    if (!dense::all_zero(blk.data() + static_cast<std::size_t>(c * tri + c),
                         static_cast<std::size_t>(tri - c)))
      return false;
  return true;
}

namespace detail {

/// Appends one block's packed elements (shared by dense and sparse packing).
template <class Span>
void pack_block(Span blk, index_t tri, std::vector<real_t>& out) {
  if (tri == 0) {
    out.insert(out.end(), blk.begin(), blk.end());
    return;
  }
  for (index_t c = 0; c < tri; ++c)
    for (index_t r = c; r < tri; ++r)
      out.push_back(blk[static_cast<std::size_t>(r + c * tri)]);
}

/// Accumulates one block's packed elements from buf at pos; returns the
/// advanced position.
inline std::size_t add_block(std::span<real_t> blk, index_t tri,
                             std::span<const real_t> buf, std::size_t pos) {
  const std::size_t len = block_packed_elems(blk.size(), tri);
  SLU3D_CHECK(pos + len <= buf.size(), "reduction stream underflow");
  if (tri == 0) {
    for (std::size_t i = 0; i < len; ++i) blk[i] += buf[pos + i];
    return pos + len;
  }
  for (index_t c = 0; c < tri; ++c)
    for (index_t r = c; r < tri; ++r)
      blk[static_cast<std::size_t>(r + c * tri)] += buf[pos++];
  return pos;
}

template <class Access, class F>
std::size_t count_blocks(F& f, int s) {
  std::size_t n = 0;
  Access::for_each_block(f, s, [&](auto, index_t) { ++n; });
  return n;
}

}  // namespace detail

/// Sparse-packs supernode s: presence bitmap words, then present blocks.
/// Sender-side savings are recorded into `st`.
template <class Access, class F>
void pack_snode_sparse(F& f, int s, std::vector<real_t>& out,
                       sim::RankStats& st) {
  const std::size_t nb = detail::count_blocks<Access>(f, s);
  if (nb == 0) return;
  const std::size_t words = (nb + 63) / 64;
  const std::size_t base = out.size();
  out.resize(base + words, 0.0);
  std::uint64_t bits[64] = {};  // enough for 4096 blocks per supernode
  SLU3D_CHECK(words <= 64, "supernode has too many blocks for sparse packing");
  std::size_t i = 0;
  Access::for_each_block(f, s, [&](auto blk, index_t tri) {
    st.zred_blocks_total += 1;
    if (block_all_zero(blk, tri)) {
      st.zred_blocks_skipped += 1;
    } else {
      bits[i >> 6] |= std::uint64_t{1} << (i & 63);
      detail::pack_block(blk, tri, out);
    }
    ++i;
  });
  for (std::size_t w = 0; w < words; ++w)
    out[base + w] = std::bit_cast<real_t>(bits[w]);
}

/// Mirror of pack_snode_sparse: reads the bitmap, accumulates only the
/// blocks the sender included.
template <class Access>
std::size_t add_snode_sparse(typename Access::Factors& f, int s,
                             std::span<const real_t> buf, std::size_t pos) {
  const std::size_t nb = detail::count_blocks<Access>(f, s);
  if (nb == 0) return pos;
  const std::size_t words = (nb + 63) / 64;
  SLU3D_CHECK(pos + words <= buf.size(),
              "sparse reduction stream underflow (bitmap)");
  const std::size_t bmp = pos;
  pos += words;
  std::size_t i = 0;
  Access::for_each_block(f, s, [&](std::span<real_t> blk, index_t tri) {
    const auto word = std::bit_cast<std::uint64_t>(buf[bmp + (i >> 6)]);
    const bool present = (word >> (i & 63)) & 1;
    ++i;
    if (present) pos = detail::add_block(blk, tri, buf, pos);
  });
  return pos;
}

/// Runs Algorithm 1's level loop: per-level 2D factorization (injected) +
/// pairwise z-axis ancestor reduction. Collective over the 3D grid.
/// `factor_level(plane, nodes)` must factor `nodes` on the local 2D grid.
template <class Access, class FactorLevel>
void run_3d_levels(typename Access::Factors& F, sim::ProcessGrid3D& grid,
                   const ForestPartition& part, const ZRedOptions& opt,
                   int reduce_tag_base, FactorLevel&& factor_level) {
  validate_zred_options(opt);
  const BlockStructure& bs = F.structure();
  const int l = part.n_levels() - 1;
  const int pz = grid.pz();
  const bool sparse = opt.packing == ZRedPacking::Sparse;
  const bool targeted = opt.packing == ZRedPacking::Targeted;
  const auto chunk = static_cast<std::size_t>(opt.chunk_snodes);

  // Targeted mode: per-level RMA windows over the z line, created
  // collectively before the level loop (inactive ranks contribute empty
  // staging). A receiver's staging for a level is the dense stream of all
  // its ancestors at that level; chunk offsets within it are cumulative
  // dense lengths, which sender and receiver compute identically. The
  // vectors are sized once up front — windows and staging must not
  // relocate while deliveries are pending.
  std::vector<std::vector<real_t>> zstage;
  std::vector<sim::Window> zwin;
  if (targeted) {
    zstage.resize(static_cast<std::size_t>(l + 1));
    zwin.resize(static_cast<std::size_t>(l + 1));
    for (int lvl = l; lvl >= 1; --lvl) {
      const int step = 1 << (l - lvl);
      std::size_t mine = 0;
      if (pz % step == 0 && (pz / step) % 2 == 0) {
        for (int s = 0; s < bs.n_snodes(); ++s)
          if (part.level_of(s) < lvl && part.on_grid(s, pz))
            mine += packed_elems<Access>(F, s);
      }
      zstage[static_cast<std::size_t>(lvl)].assign(mine, 0.0);
      zwin[static_cast<std::size_t>(lvl)] = grid.zline().win_create(
          reduce_tag_base + lvl, zstage[static_cast<std::size_t>(lvl)],
          sim::CommPlane::Z);
    }
  }

  // Outstanding reduction chunks. A chunk is drained right before the first
  // level that factors one of its supernodes — until then its transfer
  // rides under the 2D factorization of deeper levels. In targeted mode the
  // chunk is a window delivery into `zstage[lvl]` at [off, off+len) instead
  // of a request with its own buffer.
  struct Pending {
    sim::Request req;
    std::vector<int> snodes;
    sim::WindowDelivery delivery;
    std::size_t off = 0, len = 0;
    int lvl = 0;
  };
  std::vector<Pending> outstanding;

  auto unpack_chunk = [&](std::span<const real_t> buf,
                          std::span<const int> snodes) {
    std::size_t pos = 0;
    for (const int s : snodes)
      pos = sparse ? add_snode_sparse<Access>(F, s, buf, pos)
                   : add_snode<Access>(F, s, buf, pos);
    SLU3D_CHECK(pos == buf.size(), "reduction chunk not fully consumed");
  };
  auto unpack_staged = [&](Pending& p) {
    // Waiting the delivery applies the scatter-accumulate (and any earlier
    // ones from the same origin, each into its own disjoint, pre-zeroed
    // region); the staged dense stream is then folded in exactly like a
    // dense wire chunk.
    p.delivery.wait();
    std::size_t pos = p.off;
    for (const int s : p.snodes)
      pos = add_snode<Access>(F, s, zstage[static_cast<std::size_t>(p.lvl)],
                              pos);
    SLU3D_CHECK(pos == p.off + p.len,
                "targeted reduction chunk not fully consumed");
  };
  auto drain = [&](auto&& keep_pending) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < outstanding.size(); ++i) {
      Pending& p = outstanding[i];
      bool keep = true;
      for (const int s : p.snodes) keep = keep && keep_pending(s);
      if (keep) {
        if (kept != i) outstanding[kept] = std::move(p);  // no self-move
        ++kept;
        continue;
      }
      if (targeted) {
        unpack_staged(p);
      } else {
        const std::vector<real_t> buf = p.req.take();
        unpack_chunk(buf, p.snodes);
      }
    }
    outstanding.resize(kept);
  };

  for (int lvl = l; lvl >= 0; --lvl) {
    const int step = 1 << (l - lvl);
    if (pz % step != 0) continue;  // this grid is inactive at this level

    // Chunks feeding this level's supernodes must be in before they are
    // factored; deeper chunks keep overlapping.
    drain([&](int s) { return part.level_of(s) < lvl; });

    const std::vector<int> nodes = part.nodes_at(pz, lvl);
    factor_level(grid.plane(), nodes);

    if (lvl == 0) break;

    // Ancestor-Reduction: the (2k+1)-th active grid sends its copies of
    // every common-ancestor block to the (2k)-th, which accumulates them.
    const int k = pz / step;
    std::vector<int> ancestors;
    for (int s = 0; s < bs.n_snodes(); ++s)
      if (part.level_of(s) < lvl && part.on_grid(s, pz)) ancestors.push_back(s);

    // Both sides partition the ancestor list into the same chunks, derive
    // the same dense offsets, and skip structurally empty chunks
    // symmetrically, so sends (or scatter-accumulates) and their receives
    // (or expected deliveries) pair up without any handshake.
    auto chunk_at = [&](std::size_t c0) {
      return std::span<const int>{ancestors}.subspan(
          c0, std::min(chunk, ancestors.size() - c0));
    };
    auto dense_elems_of = [&](std::span<const int> snodes) {
      std::size_t n = 0;
      for (const int s : snodes) n += packed_elems<Access>(F, s);
      return n;
    };
    sim::Window* win =
        targeted ? &zwin[static_cast<std::size_t>(lvl)] : nullptr;

    if (k % 2 == 1) {
      // The outgoing copies must include everything received so far.
      drain([](int) { return false; });
      sim::RankStats& st = grid.zline().stats();
      std::vector<real_t> buf;
      std::vector<std::uint64_t> bits;
      std::vector<real_t> packed;
      std::size_t chunk_off = 0;
      for (std::size_t c0 = 0; c0 < ancestors.size(); c0 += chunk) {
        const auto snodes = chunk_at(c0);
        const std::size_t dense_len = dense_elems_of(snodes);
        if (dense_len == 0) continue;  // peer skips the matching receive
        buf.clear();
        for (const int s : snodes) {
          if (sparse) {
            pack_snode_sparse<Access>(F, s, buf, st);
            continue;
          }
          if (targeted)
            Access::for_each_block(F, s, [&](std::span<real_t> blk,
                                             index_t tri) {
              st.zred_blocks_total += 1;
              if (block_all_zero(blk, tri)) st.zred_blocks_skipped += 1;
            });
          pack_snode<Access>(F, s, buf);
        }
        if (targeted) {
          bits.assign((dense_len + 63) / 64, 0);
          packed.clear();
          for (std::size_t i = 0; i < buf.size(); ++i)
            if (buf[i] != 0.0) {
              bits[i / 64] |= std::uint64_t{1} << (i % 64);
              packed.push_back(buf[i]);
            }
          st.zred_bytes_saved +=
              (static_cast<offset_t>(dense_len) -
               static_cast<offset_t>(bits.size() + packed.size())) *
              static_cast<offset_t>(sizeof(real_t));
          win->scatter_accumulate(pz - step, chunk_off, dense_len, bits,
                                  packed);
          chunk_off += dense_len;
          continue;
        }
        if (sparse)
          st.zred_bytes_saved += (static_cast<offset_t>(dense_len) -
                                  static_cast<offset_t>(buf.size())) *
                                 static_cast<offset_t>(sizeof(real_t));
        grid.zline().isend(pz - step, reduce_tag_base + lvl, buf,
                           sim::CommPlane::Z);
      }
    } else {
      std::size_t chunk_off = 0;
      for (std::size_t c0 = 0; c0 < ancestors.size(); c0 += chunk) {
        const auto snodes = chunk_at(c0);
        const std::size_t dense_len = dense_elems_of(snodes);
        if (dense_len == 0) continue;
        Pending p;
        p.snodes.assign(snodes.begin(), snodes.end());
        if (targeted) {
          // Zero the landing region before registering the op — the
          // accumulate can only be applied during a wait, which always
          // comes after this expect.
          std::fill_n(zstage[static_cast<std::size_t>(lvl)].begin() +
                          static_cast<std::ptrdiff_t>(chunk_off),
                      dense_len, 0.0);
          p.delivery = win->expect(pz + step);
          p.off = chunk_off;
          p.len = dense_len;
          p.lvl = lvl;
          chunk_off += dense_len;
        } else {
          p.req = grid.zline().irecv(pz + step, reduce_tag_base + lvl,
                                     sim::CommPlane::Z);
        }
        outstanding.push_back(std::move(p));
      }
    }
  }
  SLU3D_CHECK(outstanding.empty(), "undrained reduction chunks");
}

}  // namespace slu3d::pipeline
