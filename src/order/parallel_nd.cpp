#include "order/parallel_nd.hpp"

#include <algorithm>
#include <numeric>

#include "order/dissector.hpp"
#include "support/check.hpp"

namespace slu3d {

namespace {

using order_detail::GeneralDissector;
using order_detail::TopSplit;
using sim::CommPlane;

// +4*depth, +4*depth+1 (collective channel), +4*depth+2 (a candidate's
// best seed to its leader, point-to-point channel)
constexpr int kSplitTag = 100;
constexpr int kMergeTag = 300;  // +4*depth (point-to-point channel)
constexpr int kTreeTag = 500;

/// A dissection result over a vertex subset: perm maps local positions to
/// global ids; node ranges are local.
struct SubTree {
  std::vector<index_t> perm;
  std::vector<SepTreeNode> nodes;
  int root = -1;
};

SubTree from_tree(const SeparatorTree& t) {
  return {std::vector<index_t>(t.perm().begin(), t.perm().end()),
          std::vector<SepTreeNode>(t.nodes().begin(), t.nodes().end()),
          t.root()};
}

/// Work model for in-sim dissection, in add_compute flop units: one
/// bisection pass over a vertex subset costs a constant multiple of
/// Σ_v (deg_A(v) + 1). One bisection sweeps the subgraph's edges a bounded
/// number of times (coarsen + initial cut + refine, ~8 passes), and each
/// edge visit is an irregular, memory-latency-bound graph operation worth
/// ~100 of the machine model's streaming flops (gamma models dense GEMM
/// throughput; graph codes run ~100x slower per touched element). Folded
/// into one constant: ~800 flop-equivalents per subgraph edge per
/// bisection, which puts the simulated ordering rate in the tens of
/// millions of edges per second a real multilevel partitioner achieves.
///
/// A split's charge W = split_work(verts) divides over the ranks that
/// compute it. With one candidate the leader charges all of W. With c > 1
/// candidates each charges W/8 for the components sweep it runs (one of
/// the ~8 passes folded above), and the remaining W - W/8 is divided
/// exactly among the level-set seeds, each candidate charging its own
/// seeds' shares (candidate_work); a disconnected set needs no seed, so
/// its leader keeps all of W and the other candidates charge their W/8.
constexpr offset_t kNdWorkFactor = 800;

offset_t split_work(const CsrMatrix& A, std::span<const index_t> verts) {
  offset_t deg = 0;
  for (index_t v : verts)
    deg += static_cast<offset_t>(A.row_cols(v).size()) + 1;
  return kNdWorkFactor * deg;
}

/// Candidate `rank` of `c`'s charge for a connected level-set split of
/// charge W over `seeds` seeds: its components sweep plus the shares of
/// the seeds j = rank (mod c), the seeds' shares summing to W - W/8.
offset_t candidate_work(offset_t W, std::size_t seeds, int rank, int c) {
  const offset_t rest = W - W / 8;
  const auto ns = static_cast<offset_t>(seeds);
  offset_t work = W / 8;
  for (offset_t j = rank; j < ns; j += c)
    work += rest / ns + (j < rest % ns ? 1 : 0);
  return work;
}

/// Ranks of a group of `size` that evaluate the split of `n` vertices: a
/// level-set split deals its seeds over up to `size` ranks; a leaf-sized
/// set and a Multilevel split run on the leader alone.
int split_candidates(std::size_t n, int size, const NdOptions& opts) {
  if (opts.algorithm != NdAlgorithm::LevelSet ||
      static_cast<index_t>(n) <= *opts.leaf_size)
    return 1;
  return static_cast<int>(
      std::min(static_cast<std::size_t>(size),
               GeneralDissector::level_set_seed_count(n)));
}

/// Total work of a locally-run dissection recursion: each tree node's
/// split pass scanned exactly its subtree vertex range, so sum
/// Σ(deg + 1) over perm[subtree_first, sep_last) for every node (prefix
/// sums make this linear).
offset_t recursion_work(const CsrMatrix& A, std::span<const index_t> perm,
                        std::span<const SepTreeNode> nodes) {
  std::vector<offset_t> pre(perm.size() + 1, 0);
  for (std::size_t i = 0; i < perm.size(); ++i)
    pre[i + 1] = pre[i] + static_cast<offset_t>(A.row_cols(perm[i]).size()) + 1;
  offset_t total = 0;
  for (const SepTreeNode& nd : nodes)
    total += pre[static_cast<std::size_t>(nd.sep_last)] -
             pre[static_cast<std::size_t>(nd.subtree_first)];
  return kNdWorkFactor * total;
}

/// Splices left + right + separator into one subtree.
SubTree splice(SubTree left, SubTree right, std::span<const index_t> sep) {
  const auto lsize = static_cast<index_t>(left.perm.size());
  const int lnodes = static_cast<int>(left.nodes.size());
  SubTree out = std::move(left);
  out.perm.insert(out.perm.end(), right.perm.begin(), right.perm.end());
  out.perm.insert(out.perm.end(), sep.begin(), sep.end());
  for (SepTreeNode nd : right.nodes) {
    nd.subtree_first += lsize;
    nd.sep_first += lsize;
    nd.sep_last += lsize;
    if (nd.left >= 0) nd.left += lnodes;
    if (nd.right >= 0) nd.right += lnodes;
    if (nd.parent >= 0) nd.parent += lnodes;
    out.nodes.push_back(nd);
  }
  const int lroot = out.root;
  const int rroot = right.root + lnodes;
  const index_t sep_first = static_cast<index_t>(out.perm.size()) -
                            static_cast<index_t>(sep.size());
  out.nodes.push_back({0, sep_first, static_cast<index_t>(out.perm.size()),
                       lroot, rroot, -1});
  const int id = static_cast<int>(out.nodes.size()) - 1;
  out.nodes[static_cast<std::size_t>(lroot)].parent = id;
  out.nodes[static_cast<std::size_t>(rroot)].parent = id;
  out.root = id;
  return out;
}

// ---- flat real_t encodings for the simulated wire --------------------

std::vector<real_t> encode_verts(std::span<const index_t> v) {
  std::vector<real_t> out;
  out.reserve(v.size());
  for (index_t x : v) out.push_back(static_cast<real_t>(x));
  return out;
}

std::vector<index_t> decode_verts(std::span<const real_t> v) {
  std::vector<index_t> out;
  out.reserve(v.size());
  for (real_t x : v) out.push_back(static_cast<index_t>(x));
  return out;
}

std::vector<real_t> encode_subtree(const SubTree& t) {
  std::vector<real_t> out;
  out.push_back(static_cast<real_t>(t.perm.size()));
  for (index_t p : t.perm) out.push_back(static_cast<real_t>(p));
  out.push_back(static_cast<real_t>(t.nodes.size()));
  out.push_back(static_cast<real_t>(t.root));
  for (const SepTreeNode& nd : t.nodes) {
    out.push_back(static_cast<real_t>(nd.subtree_first));
    out.push_back(static_cast<real_t>(nd.sep_first));
    out.push_back(static_cast<real_t>(nd.sep_last));
    out.push_back(static_cast<real_t>(nd.left));
    out.push_back(static_cast<real_t>(nd.right));
    out.push_back(static_cast<real_t>(nd.parent));
  }
  return out;
}

SubTree decode_subtree(std::span<const real_t> v) {
  std::size_t pos = 0;
  SubTree t;
  const auto np = static_cast<std::size_t>(v[pos++]);
  t.perm.reserve(np);
  for (std::size_t i = 0; i < np; ++i)
    t.perm.push_back(static_cast<index_t>(v[pos++]));
  const auto nn = static_cast<std::size_t>(v[pos++]);
  t.root = static_cast<int>(v[pos++]);
  for (std::size_t i = 0; i < nn; ++i) {
    SepTreeNode nd;
    nd.subtree_first = static_cast<index_t>(v[pos++]);
    nd.sep_first = static_cast<index_t>(v[pos++]);
    nd.sep_last = static_cast<index_t>(v[pos++]);
    nd.left = static_cast<int>(v[pos++]);
    nd.right = static_cast<int>(v[pos++]);
    nd.parent = static_cast<int>(v[pos++]);
    t.nodes.push_back(nd);
  }
  SLU3D_CHECK(pos == v.size(), "subtree stream not fully consumed");
  return t;
}

/// Dissects `verts` on this rank alone and charges the recursion.
SubTree dissect_alone(const CsrMatrix& A, sim::Comm& comm,
                      GeneralDissector& dis, std::span<const index_t> verts) {
  SubTree t = from_tree(dis.run_on(verts));
  comm.add_compute(recursion_work(A, t.perm, t.nodes), sim::ComputeKind::Other);
  return t;
}

/// Candidate `comm.rank()` of `c` (> 1) evaluates its share of the split
/// of `verts` and returns the split it found. Every candidate runs the
/// components sweep; on a connected set each then tries the seeds
/// j = rank (mod c) and sends its best (score, seed, |a|, |b|, |sep|) to
/// the leader, which fills `header` with the winner's sizes and rank:
/// lowest score, then lowest seed, the serial loop's first minimum.
std::optional<TopSplit> candidate_split(const CsrMatrix& A, sim::Comm& comm,
                                        GeneralDissector& dis,
                                        std::span<const index_t> verts, int c,
                                        int depth, std::vector<real_t>& header) {
  const int me = comm.rank();
  const offset_t W = split_work(A, verts);
  std::optional<TopSplit> split = dis.components_split(verts);
  if (split.has_value()) {
    comm.add_compute(me == 0 ? W : W / 8, sim::ComputeKind::Other);
    if (me != 0) return std::nullopt;
    header = {static_cast<real_t>(split->a.size()),
              static_cast<real_t>(split->b.size()), 0.0, 0.0};
    return split;
  }
  auto best = dis.level_set_separator(verts, static_cast<std::size_t>(me),
                                      static_cast<std::size_t>(c));
  comm.add_compute(
      candidate_work(W, GeneralDissector::level_set_seed_count(verts.size()),
                     me, c),
      sim::ComputeKind::Other);
  // (score, seed, |a|, |b|, |sep|); seed -1 when none of the seeds split.
  std::vector<real_t> ours{0.0, -1.0, 0.0, 0.0, 0.0};
  if (best.has_value()) {
    ours = {best->score, static_cast<real_t>(best->seed),
            static_cast<real_t>(best->split.a.size()),
            static_cast<real_t>(best->split.b.size()),
            static_cast<real_t>(best->split.sep.size())};
    split = std::move(best->split);
  }
  if (me != 0) {
    comm.send(0, kSplitTag + 4 * depth + 2, ours, CommPlane::XY);
    return split;
  }
  int winner = 0;
  for (int q = 1; q < c; ++q) {
    std::vector<real_t> theirs =
        comm.recv(q, kSplitTag + 4 * depth + 2, CommPlane::XY);
    if (theirs[1] < 0) continue;
    if (ours[1] < 0 || theirs[0] < ours[0] ||
        (theirs[0] == ours[0] && theirs[1] < ours[1])) {
      ours = std::move(theirs);
      winner = q;
    }
  }
  header = ours[1] < 0 ? std::vector<real_t>{-1.0, 0.0, 0.0, 0.0}
                       : std::vector<real_t>{ours[2], ours[3], ours[4],
                                             static_cast<real_t>(winner)};
  return split;
}

/// Recursive cooperative dissection; returns the group's subtree on the
/// group leader (rank 0 of `comm`) and an empty SubTree elsewhere.
SubTree dissect_group(const CsrMatrix& A, sim::Comm& comm,
                      GeneralDissector& dis, std::vector<index_t> verts,
                      const NdOptions& opts, int depth) {
  if (comm.size() == 1) return dissect_alone(A, comm, dis, verts);

  // The split runs on the group's first c ranks, which already hold A and
  // `verts`; the leader broadcasts a header naming the winner, and every
  // rank pays the bcasts (the split lists are small relative to the
  // subtree work). With one candidate the leader computes the split alone
  // and the header is (|a|, |b|, |sep|).
  const int c = split_candidates(verts.size(), comm.size(), opts);
  std::optional<TopSplit> split;
  std::vector<real_t> header(c > 1 ? 4 : 3, 0.0);
  if (c > 1 && comm.rank() < c) {
    split = candidate_split(A, comm, dis, verts, c, depth, header);
  } else if (c == 1 && comm.rank() == 0) {
    split = dis.split_top(verts);
    comm.add_compute(split_work(A, verts), sim::ComputeKind::Other);
    if (split.has_value()) {
      header = {static_cast<real_t>(split->a.size()),
                static_cast<real_t>(split->b.size()),
                static_cast<real_t>(split->sep.size())};
    } else {
      header = {-1.0, 0.0, 0.0};
    }
  }
  comm.bcast(0, kSplitTag + 4 * depth, header, CommPlane::XY);
  if (header[0] < 0) {
    // Unsplittable: the leader dissects it alone (it becomes a leaf).
    if (comm.rank() == 0) return dissect_alone(A, comm, dis, verts);
    return {};
  }
  const int root = c > 1 ? static_cast<int>(header[3]) : 0;
  std::vector<real_t> payload;
  if (comm.rank() == root) {
    payload = encode_verts(split->a);
    const auto eb = encode_verts(split->b);
    const auto es = encode_verts(split->sep);
    payload.insert(payload.end(), eb.begin(), eb.end());
    payload.insert(payload.end(), es.begin(), es.end());
  } else {
    payload.resize(static_cast<std::size_t>(header[0] + header[1] + header[2]));
  }
  comm.bcast(root, kSplitTag + 4 * depth + 1, payload, CommPlane::XY);
  const auto na = static_cast<std::size_t>(header[0]);
  const auto nb = static_cast<std::size_t>(header[1]);
  const std::vector<index_t> va =
      decode_verts(std::span<const real_t>(payload).subspan(0, na));
  const std::vector<index_t> vb =
      decode_verts(std::span<const real_t>(payload).subspan(na, nb));
  const std::vector<index_t> vsep = decode_verts(
      std::span<const real_t>(payload).subspan(na + nb));

  // Halve the communicator: lower ranks take side A, upper ranks side B.
  const int half = comm.size() / 2;
  const bool lower = comm.rank() < half;
  const int first = lower ? 0 : half;
  const int last = lower ? half : comm.size();
  std::vector<int> side(static_cast<std::size_t>(last - first));
  std::iota(side.begin(), side.end(), first);
  sim::Comm sub = comm.sub(std::move(side));
  SubTree mine = dissect_group(A, sub, dis, lower ? va : vb, opts, depth + 1);

  // Merge on the group leader: the upper half's leader ships its subtree.
  if (comm.rank() == half) {
    comm.send(0, kMergeTag + 4 * depth, encode_subtree(mine), CommPlane::XY);
    return {};
  }
  if (comm.rank() == 0) {
    SubTree right =
        decode_subtree(comm.recv(half, kMergeTag + 4 * depth, CommPlane::XY));
    return splice(std::move(mine), std::move(right), vsep);
  }
  return {};
}

}  // namespace

SeparatorTree parallel_nested_dissection(const CsrMatrix& A, sim::Comm& comm,
                                         const NdOptions& opts) {
  // Resolved on every rank before the first message, so a bad leaf throws
  // on all of them rather than on a leader that the others then wait for.
  NdOptions resolved = opts;
  resolved.leaf_size = order_detail::resolve_leaf_size(opts);
  SLU3D_CHECK(A.n_rows() == A.n_cols(), "nested dissection needs square A");
  SLU3D_CHECK(A.n_rows() > 0, "empty matrix");
  std::vector<index_t> all(static_cast<std::size_t>(A.n_rows()));
  for (index_t i = 0; i < A.n_rows(); ++i)
    all[static_cast<std::size_t>(i)] = i;

  GeneralDissector dis(A, *resolved.leaf_size, resolved.algorithm);
  SubTree mine = dissect_group(A, comm, dis, std::move(all), resolved, 0);

  // Broadcast the final tree from the global leader to everyone.
  std::vector<real_t> size1(1, 0.0);
  std::vector<real_t> encoded;
  if (comm.rank() == 0) {
    encoded = encode_subtree(mine);
    size1[0] = static_cast<real_t>(encoded.size());
  }
  comm.bcast(0, kTreeTag, size1, CommPlane::XY);
  if (comm.rank() != 0) encoded.resize(static_cast<std::size_t>(size1[0]));
  comm.bcast(0, kTreeTag + 1, encoded, CommPlane::XY);
  SubTree full = decode_subtree(encoded);
  return SeparatorTree(std::move(full.perm), std::move(full.nodes), full.root);
}

}  // namespace slu3d
