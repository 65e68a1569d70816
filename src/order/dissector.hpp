// The general-graph dissector behind nested_dissection and the parallel
// dissection (order/parallel_nd.cpp): BFS level-set or multilevel
// separators on the pattern of A + Aᵀ. One object holds the adjacency, the
// per-vertex marks and the tree builder, and serves every split, seed and
// recursion its owner runs, so the whole-matrix adjacency is built once.
#pragma once

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "order/graph.hpp"
#include "order/multilevel.hpp"
#include "order/nested_dissection.hpp"
#include "support/check.hpp"

namespace slu3d::order_detail {

/// Builder shared by the recursive dissections: accumulates the permutation
/// and tree nodes bottom-up.
class TreeBuilder {
 public:
  explicit TreeBuilder(index_t n) { perm_.reserve(static_cast<std::size_t>(n)); }

  /// Appends `verts` as a block and returns the new-index range it occupies.
  std::pair<index_t, index_t> emit(std::span<const index_t> verts) {
    const index_t first = static_cast<index_t>(perm_.size());
    perm_.insert(perm_.end(), verts.begin(), verts.end());
    return {first, static_cast<index_t>(perm_.size())};
  }

  int add_leaf(std::span<const index_t> verts) {
    auto [first, last] = emit(verts);
    nodes_.push_back({first, first, last, -1, -1, -1});
    return static_cast<int>(nodes_.size()) - 1;
  }

  int add_internal(int left, int right, std::span<const index_t> sep) {
    auto [sfirst, slast] = emit(sep);
    const index_t subtree_first = nodes_[static_cast<std::size_t>(left)].subtree_first;
    SLU3D_CHECK(nodes_[static_cast<std::size_t>(right)].sep_last == sfirst,
                "children not contiguous with separator");
    nodes_.push_back({subtree_first, sfirst, slast, left, right, -1});
    const int id = static_cast<int>(nodes_.size()) - 1;
    nodes_[static_cast<std::size_t>(left)].parent = id;
    nodes_[static_cast<std::size_t>(right)].parent = id;
    return id;
  }

  SeparatorTree finish(int root) {
    return SeparatorTree(std::move(perm_), std::move(nodes_), root);
  }

 private:
  std::vector<index_t> perm_;
  std::vector<SepTreeNode> nodes_;
};

/// One dissection step on the subgraph induced by a vertex list: two halves
/// and the separator between them (empty when the halves are disconnected).
struct TopSplit {
  std::vector<index_t> a;
  std::vector<index_t> b;
  std::vector<index_t> sep;
};

/// A level-set split with its score (lower is better) and the index of its
/// seed in the seed list.
struct ScoredSplit {
  TopSplit split;
  double score = 0;
  std::size_t seed = 0;
};

class GeneralDissector {
 public:
  GeneralDissector(const CsrMatrix& A, index_t leaf, NdAlgorithm algorithm)
      : g_(build_adjacency(A)),
        leaf_(leaf),
        algorithm_(algorithm),
        mark_(static_cast<std::size_t>(A.n_rows()), kOutside),
        level_(static_cast<std::size_t>(A.n_rows()), -1) {}

  /// Number of BFS seeds the level-set split of an n-vertex subgraph
  /// tries: every max(1, n/3)-th entry of its vertex list, so 3 or 4 from
  /// n >= 3.
  static std::size_t level_set_seed_count(std::size_t n) {
    const std::size_t stride = seed_stride(n);
    return (n + stride - 1) / stride;
  }

  SeparatorTree run() {
    std::vector<index_t> all(mark_.size());
    std::iota(all.begin(), all.end(), 0);
    return run_on(all);
  }

  /// Dissects only the given (global-id) vertex subset into a fresh tree.
  SeparatorTree run_on(std::span<const index_t> verts) {
    builder_ = TreeBuilder(static_cast<index_t>(verts.size()));
    const int root = dissect(verts);
    return builder_.finish(root);
  }

  /// One split step: nullopt at or below the leaf size or when
  /// unsplittable.
  std::optional<TopSplit> split_top(std::span<const index_t> verts) {
    if (static_cast<index_t>(verts.size()) <= leaf_) return std::nullopt;
    if (auto split = components_split(verts)) return split;
    std::optional<TopSplit> split;
    if (algorithm_ == NdAlgorithm::Multilevel)
      split = multilevel_separator(verts);
    if (!split.has_value()) {
      auto best = level_set_separator(verts, 0, 1);
      if (best.has_value()) split = std::move(best->split);
    }
    return split;
  }

  /// The components sweep that opens every split. It makes `verts` the
  /// current subproblem (`mark_[v] == stamp_`), and a disconnected subgraph
  /// splits for free (empty separator), which is also how elimination
  /// *forests* arise (§III-C). nullopt when `verts` is connected.
  std::optional<TopSplit> components_split(std::span<const index_t> verts) {
    stamp_++;
    for (index_t v : verts) mark_[static_cast<std::size_t>(v)] = stamp_;
    auto comps = components(verts);
    if (comps.size() == 1) return std::nullopt;
    auto [ga, gb] = balance_components(comps);
    return TopSplit{std::move(ga), std::move(gb), {}};
  }

  /// The best level-set split over seeds first, first + step, ... of the
  /// current subproblem's seed list, by the usual quality measure
  /// |S| * (1 + imbalance); ties keep the lowest seed. Call after
  /// components_split found `verts` connected. (first, step) = (0, 1) is
  /// the whole list; a group of c ranks splits it into the residues mod c.
  std::optional<ScoredSplit> level_set_separator(std::span<const index_t> verts,
                                                 std::size_t first,
                                                 std::size_t step) {
    // A few BFS sources: cheap and noticeably better than a single
    // pseudo-peripheral sweep on irregular graphs.
    std::optional<ScoredSplit> best;
    const std::size_t stride = seed_stride(verts.size());
    const std::size_t seeds = level_set_seed_count(verts.size());
    for (std::size_t j = first; j < seeds; j += step) {
      auto cand = level_set_separator_from(verts, verts[j * stride]);
      if (!cand.has_value()) continue;
      const double total = static_cast<double>(verts.size());
      const double imbalance =
          std::abs(static_cast<double>(cand->a.size()) -
                   static_cast<double>(cand->b.size())) / total;
      const double score =
          (static_cast<double>(cand->sep.size()) + 1.0) * (1.0 + 2.0 * imbalance);
      if (!best.has_value() || score < best->score)
        best = ScoredSplit{std::move(*cand), score, j};
    }
    return best;
  }

 private:
  static constexpr int kOutside = -1;

  static std::size_t seed_stride(std::size_t n) {
    return std::max<std::size_t>(1, n / 3);
  }

  int dissect(std::span<const index_t> verts) {
    const auto split = split_top(verts);
    if (!split.has_value()) return builder_.add_leaf(verts);
    const int left = dissect(split->a);
    const int right = dissect(split->b);
    return builder_.add_internal(left, right, split->sep);
  }

  std::vector<std::vector<index_t>> components(std::span<const index_t> verts) {
    std::vector<std::vector<index_t>> comps;
    const int seen_stamp = ++stamp_;  // reuse mark_ to track visitation
    // Vertices in this subproblem have mark_ == seen_stamp - 1.
    for (index_t s : verts) {
      if (mark_[static_cast<std::size_t>(s)] != seen_stamp - 1) continue;
      comps.emplace_back();
      auto& comp = comps.back();
      std::vector<index_t> q{s};
      mark_[static_cast<std::size_t>(s)] = seen_stamp;
      while (!q.empty()) {
        const index_t v = q.back();
        q.pop_back();
        comp.push_back(v);
        for (index_t w : g_.neighbors(v)) {
          if (mark_[static_cast<std::size_t>(w)] == seen_stamp - 1) {
            mark_[static_cast<std::size_t>(w)] = seen_stamp;
            q.push_back(w);
          }
        }
      }
    }
    return comps;
  }

  /// Greedy LPT split of components into two groups of similar total size.
  static std::pair<std::vector<index_t>, std::vector<index_t>> balance_components(
      std::vector<std::vector<index_t>>& comps) {
    std::sort(comps.begin(), comps.end(),
              [](const auto& x, const auto& y) { return x.size() > y.size(); });
    std::vector<index_t> a, b;
    for (auto& c : comps) {
      auto& dst = a.size() <= b.size() ? a : b;
      dst.insert(dst.end(), c.begin(), c.end());
    }
    return {std::move(a), std::move(b)};
  }

  /// BFS from `root` over the current subproblem (mark_ == stamp);
  /// fills level_ and returns vertices in BFS order.
  std::vector<index_t> bfs(index_t root, int stamp) {
    std::vector<index_t> order;
    std::queue<index_t> q;
    q.push(root);
    level_[static_cast<std::size_t>(root)] = 0;
    while (!q.empty()) {
      const index_t v = q.front();
      q.pop();
      order.push_back(v);
      for (index_t w : g_.neighbors(v)) {
        if (mark_[static_cast<std::size_t>(w)] == stamp &&
            level_[static_cast<std::size_t>(w)] < 0) {
          level_[static_cast<std::size_t>(w)] = level_[static_cast<std::size_t>(v)] + 1;
          q.push(w);
        }
      }
    }
    return order;
  }

  std::optional<TopSplit> level_set_separator_from(std::span<const index_t> verts,
                                                   index_t seed) {
    const int stamp = stamp_;
    // Pseudo-peripheral root: BFS twice from the far end.
    index_t root = seed;
    for (int pass = 0; pass < 2; ++pass) {
      for (index_t v : verts) level_[static_cast<std::size_t>(v)] = -1;
      auto order = bfs(root, stamp);
      root = order.back();
    }
    for (index_t v : verts) level_[static_cast<std::size_t>(v)] = -1;
    auto order = bfs(root, stamp);
    const int max_level = level_[static_cast<std::size_t>(order.back())];
    if (max_level < 2) return std::nullopt;  // diameter too small to split

    // Choose the cut level closest to the size median.
    std::vector<index_t> level_count(static_cast<std::size_t>(max_level) + 1, 0);
    for (index_t v : verts) ++level_count[static_cast<std::size_t>(level_[static_cast<std::size_t>(v)])];
    const index_t half = static_cast<index_t>(verts.size()) / 2;
    index_t cum = 0;
    int cut = 1;
    for (int L = 0; L < max_level; ++L) {
      cum += level_count[static_cast<std::size_t>(L)];
      if (cum >= half) {
        cut = std::max(1, std::min(L + 1, max_level - 0));
        break;
      }
      cut = L + 1;
    }
    cut = std::min(cut, max_level);  // keep B = {level > cut - ...} nonempty
    if (cut >= max_level) cut = max_level - 0;
    // Partition: A = levels < cut, S = level cut, B = levels > cut.
    TopSplit s;
    for (index_t v : verts) {
      const int L = level_[static_cast<std::size_t>(v)];
      if (L < cut)
        s.a.push_back(v);
      else if (L == cut)
        s.sep.push_back(v);
      else
        s.b.push_back(v);
    }
    if (s.a.empty() || s.b.empty()) {
      // Degenerate shape (e.g. everything on two levels): fall back to an
      // unbalanced but valid cut one level lower/higher.
      if (s.b.empty() && cut > 1) {
        s = {};
        for (index_t v : verts) {
          const int L = level_[static_cast<std::size_t>(v)];
          if (L < cut - 1)
            s.a.push_back(v);
          else if (L == cut - 1)
            s.sep.push_back(v);
          else
            s.b.push_back(v);
        }
      }
      if (s.a.empty() || s.b.empty()) return std::nullopt;
    }

    thin_separator(s, stamp);
    return s;
  }

  /// Multilevel edge bisection, then a vertex separator extracted from
  /// the cut (boundary vertices of the smaller side), thinned as usual.
  std::optional<TopSplit> multilevel_separator(std::span<const index_t> verts) {
    auto bis = multilevel_bisect(g_, verts);
    if (!bis.has_value()) return std::nullopt;
    TopSplit s;
    s.a = std::move(bis->a);
    s.b = std::move(bis->b);
    // Tag sides, then peel the B-side boundary into the separator.
    const int stamp = stamp_;
    for (index_t v : s.a) level_[static_cast<std::size_t>(v)] = 0;
    for (index_t v : s.b) level_[static_cast<std::size_t>(v)] = 1;
    std::vector<index_t> keep_b;
    for (index_t v : s.b) {
      bool touches_a = false;
      for (index_t w : g_.neighbors(v)) {
        if (mark_[static_cast<std::size_t>(w)] != stamp) continue;
        if (level_[static_cast<std::size_t>(w)] == 0) {
          touches_a = true;
          break;
        }
      }
      (touches_a ? s.sep : keep_b).push_back(v);
    }
    s.b = std::move(keep_b);
    if (s.a.empty() || s.b.empty()) return std::nullopt;
    thin_separator(s, stamp);
    return s;
  }

  /// Moves separator vertices that touch only one side into that side.
  /// Keeps the invariant that S disconnects A from B.
  void thin_separator(TopSplit& s, int stamp) {
    // Tag sides: reuse level_ as side tag (0 = A, 1 = B, 2 = S).
    for (index_t v : s.a) level_[static_cast<std::size_t>(v)] = 0;
    for (index_t v : s.b) level_[static_cast<std::size_t>(v)] = 1;
    for (index_t v : s.sep) level_[static_cast<std::size_t>(v)] = 2;
    std::vector<index_t> kept;
    for (index_t v : s.sep) {
      bool touch_a = false, touch_b = false;
      for (index_t w : g_.neighbors(v)) {
        if (mark_[static_cast<std::size_t>(w)] != stamp) continue;
        if (level_[static_cast<std::size_t>(w)] == 0) touch_a = true;
        if (level_[static_cast<std::size_t>(w)] == 1) touch_b = true;
      }
      if (touch_a && touch_b) {
        kept.push_back(v);
      } else if (touch_a) {
        s.a.push_back(v);
        level_[static_cast<std::size_t>(v)] = 0;
      } else {
        s.b.push_back(v);
        level_[static_cast<std::size_t>(v)] = 1;
      }
    }
    s.sep = std::move(kept);
  }

  Adjacency g_;
  index_t leaf_;
  NdAlgorithm algorithm_;
  TreeBuilder builder_{0};
  std::vector<int> mark_;
  std::vector<int> level_;
  int stamp_ = 0;
};

}  // namespace slu3d::order_detail
