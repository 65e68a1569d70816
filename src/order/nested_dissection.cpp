#include "order/nested_dissection.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <queue>
#include <string>

#include "order/graph.hpp"
#include "order/multilevel.hpp"
#include "support/check.hpp"

namespace slu3d {

namespace {

using order_detail::Adjacency;
using order_detail::build_adjacency;

/// Builder shared by the recursive dissection: accumulates the permutation
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

class GeneralDissector {
 public:
  GeneralDissector(const CsrMatrix& A, index_t leaf, NdAlgorithm algorithm)
      : g_(build_adjacency(A)),
        leaf_(leaf),
        algorithm_(algorithm),
        n_(A.n_rows()),
        builder_(A.n_rows()),
        mark_(static_cast<std::size_t>(A.n_rows()), kOutside),
        level_(static_cast<std::size_t>(A.n_rows()), -1) {}

  SeparatorTree run() {
    std::vector<index_t> all(static_cast<std::size_t>(n_));
    std::iota(all.begin(), all.end(), 0);
    return run_on(all);
  }

  /// Dissects only the given (global-id) vertex subset.
  SeparatorTree run_on(std::span<const index_t> verts) {
    const int root = dissect(verts);
    return builder_.finish(root);
  }

  /// One split step, shared by the recursion below and the parallel
  /// dissection: nullopt at or below the leaf size or when unsplittable.
  /// `mark_[v] == stamp_` identifies vertices inside the current subproblem.
  std::optional<order_detail::TopSplit> split_top(
      std::span<const index_t> verts) {
    if (static_cast<index_t>(verts.size()) <= leaf_) return std::nullopt;
    stamp_++;
    for (index_t v : verts) mark_[static_cast<std::size_t>(v)] = stamp_;
    // Components first: a disconnected subgraph splits for free (empty
    // separator), which is also how elimination *forests* arise (§III-C).
    auto comps = components(verts);
    if (comps.size() > 1) {
      auto [ga, gb] = balance_components(comps);
      return order_detail::TopSplit{std::move(ga), std::move(gb), {}};
    }
    std::optional<Split> split;
    if (algorithm_ == NdAlgorithm::Multilevel)
      split = multilevel_separator(verts);
    if (!split.has_value()) split = level_set_separator(verts);
    if (!split.has_value()) return std::nullopt;
    return order_detail::TopSplit{std::move(split->a), std::move(split->b),
                                  std::move(split->sep)};
  }

 private:
  static constexpr int kOutside = -1;

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

  struct Split {
    std::vector<index_t> a;
    std::vector<index_t> b;
    std::vector<index_t> sep;
  };

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

  std::optional<Split> level_set_separator(std::span<const index_t> verts) {
    // Try a few BFS sources and keep the best separator by the usual
    // quality measure |S| * (1 + imbalance); cheap and noticeably better
    // than a single pseudo-peripheral sweep on irregular graphs.
    std::optional<Split> best;
    double best_score = 1e300;
    const std::size_t stride = std::max<std::size_t>(1, verts.size() / 3);
    for (std::size_t k = 0; k < verts.size(); k += stride) {
      auto cand = level_set_separator_from(verts, verts[k]);
      if (!cand.has_value()) continue;
      const double total = static_cast<double>(verts.size());
      const double imbalance =
          std::abs(static_cast<double>(cand->a.size()) -
                   static_cast<double>(cand->b.size())) / total;
      const double score =
          (static_cast<double>(cand->sep.size()) + 1.0) * (1.0 + 2.0 * imbalance);
      if (score < best_score) {
        best_score = score;
        best = std::move(cand);
      }
    }
    return best;
  }

  std::optional<Split> level_set_separator_from(std::span<const index_t> verts,
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
    Split s;
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
  std::optional<Split> multilevel_separator(std::span<const index_t> verts) {
    auto bis = order_detail::multilevel_bisect(g_, verts);
    if (!bis.has_value()) return std::nullopt;
    Split s;
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
  void thin_separator(Split& s, int stamp) {
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
  index_t n_;
  TreeBuilder builder_;
  std::vector<int> mark_;
  std::vector<int> level_;
  int stamp_ = 0;
};

/// Recursive coordinate bisection over grid boxes.
class GeometricDissector {
 public:
  GeometricDissector(const GridGeometry& geom, index_t leaf)
      : geom_(geom), leaf_(leaf), builder_(geom.n()) {}

  SeparatorTree run() {
    const int root = dissect(0, geom_.nx, 0, geom_.ny, 0, geom_.nz);
    return builder_.finish(root);
  }

 private:
  std::vector<index_t> box_vertices(index_t x0, index_t x1, index_t y0,
                                    index_t y1, index_t z0, index_t z1) const {
    std::vector<index_t> out;
    out.reserve(static_cast<std::size_t>((x1 - x0) * (y1 - y0) * (z1 - z0)));
    for (index_t z = z0; z < z1; ++z)
      for (index_t y = y0; y < y1; ++y)
        for (index_t x = x0; x < x1; ++x) out.push_back(geom_.vertex(x, y, z));
    return out;
  }

  int dissect(index_t x0, index_t x1, index_t y0, index_t y1, index_t z0,
              index_t z1) {
    const index_t vol = (x1 - x0) * (y1 - y0) * (z1 - z0);
    const index_t dx = x1 - x0, dy = y1 - y0, dz = z1 - z0;
    const index_t longest = std::max({dx, dy, dz});
    if (vol <= leaf_ || longest < 3)
      return builder_.add_leaf(box_vertices(x0, x1, y0, y1, z0, z1));

    int left, right;
    std::vector<index_t> sep;
    if (dx == longest) {
      const index_t m = x0 + dx / 2;
      left = dissect(x0, m, y0, y1, z0, z1);
      right = dissect(m + 1, x1, y0, y1, z0, z1);
      sep = box_vertices(m, m + 1, y0, y1, z0, z1);
    } else if (dy == longest) {
      const index_t m = y0 + dy / 2;
      left = dissect(x0, x1, y0, m, z0, z1);
      right = dissect(x0, x1, m + 1, y1, z0, z1);
      sep = box_vertices(x0, x1, m, m + 1, z0, z1);
    } else {
      const index_t m = z0 + dz / 2;
      left = dissect(x0, x1, y0, y1, z0, m);
      right = dissect(x0, x1, y0, y1, m + 1, z1);
      sep = box_vertices(x0, x1, y0, y1, m, m + 1);
    }
    return builder_.add_internal(left, right, sep);
  }

  GridGeometry geom_;
  index_t leaf_;
  TreeBuilder builder_;
};

}  // namespace

index_t relaxed_leaf_size(int Px, int Py, int Pz) {
  SLU3D_CHECK(Px >= 1 && Py >= 1 && Pz >= 1, "process grid must be positive");
  return Px * Py >= std::max(16, 4 * Pz) ? 64 : 32;
}

namespace order_detail {
index_t resolve_leaf_size(const NdOptions& opts) {
  const index_t leaf = opts.leaf_size.value_or(relaxed_leaf_size(1, 1, 1));
  SLU3D_CHECK(leaf >= 1, "leaf_size " + std::to_string(leaf) + " is below 1");
  return leaf;
}
}  // namespace order_detail

SeparatorTree nested_dissection(const CsrMatrix& A, const NdOptions& opts) {
  const index_t leaf = order_detail::resolve_leaf_size(opts);
  SLU3D_CHECK(A.n_rows() == A.n_cols(), "nested dissection needs square A");
  SLU3D_CHECK(A.n_rows() > 0, "empty matrix");
  return GeneralDissector(A, leaf, opts.algorithm).run();
}

SeparatorTree nested_dissection_subgraph(const CsrMatrix& A,
                                         std::span<const index_t> verts,
                                         const NdOptions& opts) {
  const index_t leaf = order_detail::resolve_leaf_size(opts);
  SLU3D_CHECK(A.n_rows() == A.n_cols(), "nested dissection needs square A");
  SLU3D_CHECK(!verts.empty(), "empty vertex subset");
  return GeneralDissector(A, leaf, opts.algorithm).run_on(verts);
}

namespace order_detail {
std::optional<TopSplit> single_split(const CsrMatrix& A,
                                     std::span<const index_t> verts,
                                     const NdOptions& opts) {
  const index_t leaf = resolve_leaf_size(opts);
  SLU3D_CHECK(!verts.empty(), "empty vertex subset");
  return GeneralDissector(A, leaf, opts.algorithm).split_top(verts);
}
}  // namespace order_detail

SeparatorTree geometric_nd(const GridGeometry& geom, const NdOptions& opts) {
  const index_t leaf = order_detail::resolve_leaf_size(opts);
  SLU3D_CHECK(geom.n() > 0, "empty grid");
  return GeometricDissector(geom, leaf).run();
}

std::vector<index_t> rcm_ordering(const CsrMatrix& A) {
  SLU3D_CHECK(A.n_rows() == A.n_cols(), "RCM needs square A");
  const Adjacency g = build_adjacency(A);
  const index_t n = A.n_rows();
  std::vector<index_t> degree(static_cast<std::size_t>(n));
  for (index_t v = 0; v < n; ++v)
    degree[static_cast<std::size_t>(v)] =
        static_cast<index_t>(g.neighbors(v).size());

  std::vector<bool> visited(static_cast<std::size_t>(n), false);
  std::vector<index_t> order;
  order.reserve(static_cast<std::size_t>(n));
  for (index_t start = 0; start < n; ++start) {
    if (visited[static_cast<std::size_t>(start)]) continue;
    // Min-degree start vertex of this component.
    std::queue<index_t> q;
    q.push(start);
    visited[static_cast<std::size_t>(start)] = true;
    std::vector<index_t> nbrs;
    while (!q.empty()) {
      const index_t v = q.front();
      q.pop();
      order.push_back(v);
      nbrs.clear();
      for (index_t w : g.neighbors(v))
        if (!visited[static_cast<std::size_t>(w)]) {
          visited[static_cast<std::size_t>(w)] = true;
          nbrs.push_back(w);
        }
      std::sort(nbrs.begin(), nbrs.end(), [&](index_t x, index_t y) {
        return degree[static_cast<std::size_t>(x)] < degree[static_cast<std::size_t>(y)];
      });
      for (index_t w : nbrs) q.push(w);
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

}  // namespace slu3d
