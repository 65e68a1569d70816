#include "analysis/dist_analysis.hpp"

#include <algorithm>
#include <utility>

#include "order/parallel_nd.hpp"
#include "support/check.hpp"

namespace slu3d {

namespace {

using sim::CommPlane;

/// Flop-equivalents per symbolic-analysis operation (an edge scan or a
/// rowset merge step — irregular pointer-chasing work). gamma in the
/// machine model is calibrated to streaming dense flops; latency-bound
/// graph operations run ~100x slower per touched element, so each counted
/// op is charged this many model flops. The same calibration drives the
/// dissection work model (kNdWorkFactor in order/parallel_nd.cpp).
constexpr offset_t kGraphOpFlops = 100;

void charge_ops(sim::Comm& comm, offset_t ops) {
  comm.add_compute(ops * kGraphOpFlops, sim::ComputeKind::Other);
}

// Tag layout (disjoint from parallel_nd's 100/300/500 channels):
constexpr int kSymTag = 800;  // + stack level
constexpr int kGatherRowsTag = 901;

// ---- flat real_t codec for the simulated wire ------------------------

void encode_rowset(int s, std::span<const index_t> rows,
                   std::vector<real_t>& out) {
  out.push_back(static_cast<real_t>(s));
  out.push_back(static_cast<real_t>(rows.size()));
  for (index_t r : rows) out.push_back(static_cast<real_t>(r));
}

// ---- subtree-to-rank ownership ---------------------------------------

/// One entry of a rank's path through the dissection recursion: the group
/// [lo, lo+cnt) responsible for the subtree rooted at tree node `node`.
struct GroupLevel {
  int lo = 0;
  int cnt = 0;
  int node = -1;
};

/// Gives every piece of tree node `node` to `rank`.
void own_pieces(const SnodeNumbering& num, int node, int rank,
                std::vector<int>& owner) {
  for (int s = num.first_piece(node); s < num.beyond_piece(node); ++s)
    owner[static_cast<std::size_t>(s)] = rank;
}

void mark_subtree(const SeparatorTree& tree, const SnodeNumbering& num,
                  int node, int rank, std::vector<int>& owner) {
  own_pieces(num, node, rank, owner);
  const SepTreeNode& nd = tree.node(node);
  if (nd.left >= 0) mark_subtree(tree, num, nd.left, rank, owner);
  if (nd.right >= 0) mark_subtree(tree, num, nd.right, rank, owner);
}

/// Statically computable owner map mirroring dissect_group's leader
/// mapping: a group of one rank (or an unsplittable leaf) owns its whole
/// subtree; otherwise the halves recurse and the separator belongs to the
/// group leader.
void assign_owners(const SeparatorTree& tree, const SnodeNumbering& num,
                   int node, int lo, int cnt, std::vector<int>& owner) {
  const SepTreeNode& nd = tree.node(node);
  if (cnt == 1 || nd.is_leaf()) {
    mark_subtree(tree, num, node, lo, owner);
    return;
  }
  const int half = cnt / 2;
  assign_owners(tree, num, nd.left, lo, half, owner);
  assign_owners(tree, num, nd.right, lo + half, cnt - half, owner);
  own_pieces(num, node, lo, owner);
}

/// This rank's root-to-terminal path through the recursion. Every rank of
/// a group shares the group's entry, so send/recv pairings derived from
/// the stack line up across ranks.
std::vector<GroupLevel> descent_stack(const SeparatorTree& tree, int rank,
                                      int n_ranks) {
  std::vector<GroupLevel> stack;
  int node = tree.root(), lo = 0, cnt = n_ranks;
  while (true) {
    stack.push_back({lo, cnt, node});
    const SepTreeNode& nd = tree.node(node);
    if (cnt == 1 || nd.is_leaf()) break;
    const int half = cnt / 2;
    if (rank < lo + half) {
      cnt = half;
      node = nd.left;
    } else {
      lo += half;
      cnt -= half;
      node = nd.right;
    }
  }
  return stack;
}

// ---- distributed supernodal symbolic (boolean SpGEMM upward merge) ---

/// The same first-ancestor merging BlockStructure's primary constructor
/// performs, restructured so each rank can run it over just the supernodes
/// it owns. Candidates come from scanning the rank's own block columns of
/// the replicated symmetric pattern (equivalent to the row scan by
/// symmetry); finished row sets whose first row escapes the rank's
/// ownership are exported up the leader chain instead of registered in a
/// local pending list. Final row sets are sorted deduplicated unions, so
/// the distributed merge order cannot change the result.
struct SymState {
  const CsrMatrix& S;
  const SnodeNumbering& num;
  const std::vector<int>& owner;
  int me;
  std::vector<std::vector<index_t>> rowsets;
  std::vector<std::vector<int>> pending;
  std::vector<int> exports;  ///< finished snodes awaiting the next send
  std::vector<int> mark;
  offset_t ops = 0;

  SymState(const CsrMatrix& pattern, const SnodeNumbering& numbering,
           const std::vector<int>& owner_map, int rank)
      : S(pattern),
        num(numbering),
        owner(owner_map),
        me(rank),
        rowsets(static_cast<std::size_t>(numbering.n_snodes)),
        pending(static_cast<std::size_t>(numbering.n_snodes)),
        mark(static_cast<std::size_t>(numbering.n), -1) {}

  /// Registers a finished row set: merge locally if this rank owns the
  /// first ancestor, else queue it for export.
  void route(int s) {
    const auto& rs = rowsets[static_cast<std::size_t>(s)];
    if (rs.empty()) return;
    const int ep = num.snode_of_col(rs.front());
    if (owner[static_cast<std::size_t>(ep)] == me)
      pending[static_cast<std::size_t>(ep)].push_back(s);
    else
      exports.push_back(s);
  }

  /// Computes the final row set of owned snode `s` (all contributing
  /// children must have been routed to pending[s] already).
  void process(int s) {
    auto& rs = rowsets[static_cast<std::size_t>(s)];
    // A-pattern candidates: rows adjacent to this snode's columns, in
    // later snodes (column-symmetric form of the sequential row scan).
    for (index_t c = num.first_col(s); c < num.beyond_col(s); ++c)
      for (index_t j : S.row_cols(c)) {
        ++ops;
        if (num.snode_of_col(j) > s) rs.push_back(j);
      }
    std::sort(rs.begin(), rs.end());
    rs.erase(std::unique(rs.begin(), rs.end()), rs.end());
    ops += static_cast<offset_t>(rs.size());
    for (index_t r : rs) mark[static_cast<std::size_t>(r)] = s;
    const index_t beyond = num.beyond_col(s);
    for (int c : pending[static_cast<std::size_t>(s)]) {
      for (index_t r : rowsets[static_cast<std::size_t>(c)]) {
        ++ops;
        if (r >= beyond && mark[static_cast<std::size_t>(r)] != s) {
          mark[static_cast<std::size_t>(r)] = s;
          rs.push_back(r);
        }
      }
    }
    std::sort(rs.begin(), rs.end());
    route(s);
  }

  std::vector<real_t> encode_exports() {
    std::vector<real_t> out;
    out.push_back(static_cast<real_t>(exports.size()));
    for (int s : exports)
      encode_rowset(s, rowsets[static_cast<std::size_t>(s)], out);
    exports.clear();
    return out;
  }

  void decode_imports(std::span<const real_t> v) {
    std::size_t pos = 0;
    const auto cnt = static_cast<std::size_t>(v[pos++]);
    for (std::size_t e = 0; e < cnt; ++e) {
      const int s = static_cast<int>(v[pos++]);
      const auto len = static_cast<std::size_t>(v[pos++]);
      auto& rs = rowsets[static_cast<std::size_t>(s)];
      rs.clear();
      rs.reserve(len);
      for (std::size_t k = 0; k < len; ++k)
        rs.push_back(static_cast<index_t>(v[pos++]));
      route(s);
    }
    SLU3D_CHECK(pos == v.size(), "rowset stream not fully consumed");
  }
};

/// Snode ids under `node` (every piece of every node), ascending — the
/// processing order of a rank that owns the whole subtree.
std::vector<int> subtree_snodes(const SeparatorTree& tree,
                                const SnodeNumbering& num, int node) {
  std::vector<int> out;
  const auto walk = [&](auto&& self, int v) -> void {
    for (int s = num.first_piece(v); s < num.beyond_piece(v); ++s)
      out.push_back(s);
    const SepTreeNode& nd = tree.node(v);
    if (nd.left >= 0) self(self, nd.left);
    if (nd.right >= 0) self(self, nd.right);
  };
  walk(walk, node);
  std::sort(out.begin(), out.end());
  return out;
}

/// Decodes a concatenated (snode, rowset) stream into the full rowset
/// table, asserting each of the `n_snodes` snodes appears exactly once.
std::vector<std::vector<index_t>> decode_all_rowsets(
    std::span<const real_t> v, int n_snodes) {
  std::vector<std::vector<index_t>> rowsets(
      static_cast<std::size_t>(n_snodes));
  std::vector<char> seen(static_cast<std::size_t>(n_snodes), 0);
  std::size_t pos = 0;
  while (pos < v.size()) {
    const int s = static_cast<int>(v[pos++]);
    const auto len = static_cast<std::size_t>(v[pos++]);
    SLU3D_CHECK(!seen[static_cast<std::size_t>(s)],
                "snode contributed by two ranks");
    seen[static_cast<std::size_t>(s)] = 1;
    auto& rs = rowsets[static_cast<std::size_t>(s)];
    rs.reserve(len);
    for (std::size_t k = 0; k < len; ++k)
      rs.push_back(static_cast<index_t>(v[pos++]));
  }
  SLU3D_CHECK(pos == v.size(), "rowset stream not fully consumed");
  for (const char c : seen) SLU3D_CHECK(c, "snode never contributed");
  return rowsets;
}

AnalysisResult distributed(const CsrMatrix& A, sim::Comm& comm,
                           const NdOptions& opts) {
  AnalysisResult out;
  const int me = comm.rank();

  // Phase A: cooperative nested dissection (charges its own compute).
  out.tree = std::make_unique<SeparatorTree>(
      parallel_nested_dissection(A, comm, opts));
  const SeparatorTree& tree = *out.tree;

  // Replicated setup, paid concurrently by every rank: permuted symmetric
  // pattern + the supernode numbering.
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  const CsrMatrix S = Ap.pattern_is_symmetric() ? Ap : Ap.symmetrized_pattern();
  const SnodeNumbering num = SnodeNumbering::from_tree(tree);
  charge_ops(comm, Ap.nnz() + S.nnz() + A.n_rows());

  std::vector<int> owner(static_cast<std::size_t>(num.n_snodes), -1);
  assign_owners(tree, num, tree.root(), 0, comm.size(), owner);
  const std::vector<GroupLevel> stack = descent_stack(tree, me, comm.size());
  const GroupLevel& term = stack.back();
  const bool own_terminal = me == term.lo;

  // Phase B: distributed supernodal symbolic.
  SymState sym(S, num, owner, me);
  std::vector<int> owned;  // everything this rank finalized, for the gather
  if (own_terminal) {
    owned = subtree_snodes(tree, num, term.node);
    for (int s : owned) sym.process(s);
    charge_ops(comm, sym.ops);
    sym.ops = 0;
  }
  for (int i = static_cast<int>(stack.size()) - 2; i >= 0; --i) {
    const GroupLevel& e = stack[static_cast<std::size_t>(i)];
    const int half = e.cnt / 2;
    if (me == e.lo + half) {
      comm.send(e.lo, kSymTag + i, sym.encode_exports(), CommPlane::XY);
      break;
    }
    if (me != e.lo) break;
    const auto payload = comm.recv(e.lo + half, kSymTag + i, CommPlane::XY);
    sym.decode_imports(payload);
    // The separator's pieces, bottom of the chain first: each piece's row
    // set is routed to the next before that one is processed.
    for (int sp = num.first_piece(e.node); sp < num.beyond_piece(e.node); ++sp) {
      sym.process(sp);
      owned.push_back(sp);
    }
    charge_ops(comm, sym.ops);
    sym.ops = 0;
  }
  SLU3D_CHECK(sym.exports.empty() || me != 0,
              "rank 0 must consume every export");

  // Final exchange: everyone assembles the identical full rowset table.
  std::vector<real_t> mine;
  for (int s : owned)
    encode_rowset(s, sym.rowsets[static_cast<std::size_t>(s)], mine);
  const std::vector<real_t> all =
      comm.allgatherv(kGatherRowsTag, mine, CommPlane::XY);
  std::vector<std::vector<index_t>> rowsets =
      decode_all_rowsets(all, num.n_snodes);
  offset_t layout = num.n_snodes;
  for (const auto& rs : rowsets) layout += static_cast<offset_t>(rs.size());
  charge_ops(comm, layout);
  out.bs = std::make_unique<BlockStructure>(tree, std::move(rowsets));
  return out;
}

}  // namespace

AnalysisResult analyze_host(const CsrMatrix& A, const NdOptions& opts) {
  AnalysisResult out;
  out.tree = std::make_unique<SeparatorTree>(nested_dissection(A, opts));
  out.bs = std::make_unique<BlockStructure>(A, *out.tree);
  return out;
}

AnalysisResult analyze_in_sim(const CsrMatrix& A, sim::Comm& comm,
                              const NdOptions& opts, AnalysisMode mode) {
  SLU3D_CHECK(mode != AnalysisMode::Host, "host analysis is not in-sim");
  const sim::RankStats before = comm.stats();
  AnalysisResult out = distributed(A, comm, opts);
  sim::RankStats& after = comm.stats();
  after.analysis_seconds += after.clock - before.clock;
  for (std::size_t pl = 0; pl < sim::kNumPlanes; ++pl) {
    after.analysis_bytes_received +=
        after.bytes_received[pl] - before.bytes_received[pl];
    after.analysis_messages_sent +=
        after.messages_sent[pl] - before.messages_sent[pl];
  }
  return out;
}

}  // namespace slu3d
