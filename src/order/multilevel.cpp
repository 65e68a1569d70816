#include "order/multilevel.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "support/check.hpp"

namespace slu3d::order_detail {

namespace {

/// One level of the coarsening hierarchy: the graph plus the mapping of
/// its vertices onto the next-coarser graph.
struct Level {
  WeightedGraph graph;
  std::vector<index_t> coarse_of;  // per fine vertex: coarse vertex id
};

/// Heavy-edge matching: visit vertices in ascending id order, match each
/// unmatched vertex with its unmatched neighbour of maximum edge weight,
/// breaking equal weights towards the smaller neighbour id. Fully
/// deterministic — the bisection is a function of the graph alone, so the
/// sequential and distributed dissection paths can never diverge on
/// equal-weight ties. Returns the coarse vertex count.
index_t heavy_edge_matching(const WeightedGraph& g,
                            std::vector<index_t>* coarse_of) {
  const index_t n = g.n();
  coarse_of->assign(static_cast<std::size_t>(n), -1);

  index_t nc = 0;
  for (index_t v = 0; v < n; ++v) {
    if ((*coarse_of)[static_cast<std::size_t>(v)] != -1) continue;
    index_t best = -1;
    index_t best_w = -1;
    for (offset_t e = g.begin(v); e < g.end(v); ++e) {
      const index_t u = g.adj[static_cast<std::size_t>(e)];
      if ((*coarse_of)[static_cast<std::size_t>(u)] != -1) continue;
      const index_t w = g.eweight[static_cast<std::size_t>(e)];
      if (w > best_w || (w == best_w && u < best)) {
        best_w = w;
        best = u;
      }
    }
    (*coarse_of)[static_cast<std::size_t>(v)] = nc;
    if (best != -1) (*coarse_of)[static_cast<std::size_t>(best)] = nc;
    ++nc;
  }
  return nc;
}

WeightedGraph contract(const WeightedGraph& g, std::span<const index_t> coarse_of,
                       index_t nc) {
  WeightedGraph c;
  c.vweight.assign(static_cast<std::size_t>(nc), 0);
  for (index_t v = 0; v < g.n(); ++v)
    c.vweight[static_cast<std::size_t>(coarse_of[static_cast<std::size_t>(v)])] +=
        g.vweight[static_cast<std::size_t>(v)];

  // Accumulate coarse edges per coarse vertex via a stamped scratch map.
  std::vector<index_t> stamp(static_cast<std::size_t>(nc), -1);
  std::vector<index_t> slot(static_cast<std::size_t>(nc), 0);
  c.ptr.assign(static_cast<std::size_t>(nc) + 1, 0);

  // Group fine vertices by coarse id.
  std::vector<index_t> bucket_ptr(static_cast<std::size_t>(nc) + 1, 0);
  for (index_t v = 0; v < g.n(); ++v)
    ++bucket_ptr[static_cast<std::size_t>(coarse_of[static_cast<std::size_t>(v)]) + 1];
  std::partial_sum(bucket_ptr.begin(), bucket_ptr.end(), bucket_ptr.begin());
  std::vector<index_t> members(static_cast<std::size_t>(g.n()));
  {
    std::vector<index_t> fill(bucket_ptr.begin(), bucket_ptr.end() - 1);
    for (index_t v = 0; v < g.n(); ++v)
      members[static_cast<std::size_t>(
          fill[static_cast<std::size_t>(coarse_of[static_cast<std::size_t>(v)])]++)] = v;
  }

  for (index_t cv = 0; cv < nc; ++cv) {
    const auto lo = static_cast<std::size_t>(bucket_ptr[static_cast<std::size_t>(cv)]);
    const auto hi = static_cast<std::size_t>(bucket_ptr[static_cast<std::size_t>(cv) + 1]);
    const auto edge_start = c.adj.size();
    for (std::size_t k = lo; k < hi; ++k) {
      const index_t v = members[k];
      for (offset_t e = g.begin(v); e < g.end(v); ++e) {
        const index_t cu =
            coarse_of[static_cast<std::size_t>(g.adj[static_cast<std::size_t>(e)])];
        if (cu == cv) continue;  // internal edge collapses
        if (stamp[static_cast<std::size_t>(cu)] != cv) {
          stamp[static_cast<std::size_t>(cu)] = cv;
          slot[static_cast<std::size_t>(cu)] = static_cast<index_t>(c.adj.size());
          c.adj.push_back(cu);
          c.eweight.push_back(g.eweight[static_cast<std::size_t>(e)]);
        } else {
          c.eweight[static_cast<std::size_t>(slot[static_cast<std::size_t>(cu)])] +=
              g.eweight[static_cast<std::size_t>(e)];
        }
      }
    }
    (void)edge_start;
    c.ptr[static_cast<std::size_t>(cv) + 1] = static_cast<offset_t>(c.adj.size());
  }
  return c;
}

/// Greedy graph growing: BFS from a pseudo-peripheral seed, absorbing
/// vertices until half the total weight is on side 0. The starting vertex
/// is fixed (vertex 0, pushed to the periphery by one BFS sweep) so the
/// partition is a deterministic function of the graph.
std::vector<char> initial_partition(const WeightedGraph& g) {
  const index_t n = g.n();
  offset_t total = 0;
  for (index_t w : g.vweight) total += w;

  index_t seed = 0;
  // One BFS sweep to push the seed to the periphery.
  {
    std::vector<index_t> q{seed};
    std::vector<char> seen(static_cast<std::size_t>(n), 0);
    seen[static_cast<std::size_t>(seed)] = 1;
    for (std::size_t h = 0; h < q.size(); ++h) {
      const index_t v = q[h];
      for (offset_t e = g.begin(v); e < g.end(v); ++e) {
        const index_t u = g.adj[static_cast<std::size_t>(e)];
        if (!seen[static_cast<std::size_t>(u)]) {
          seen[static_cast<std::size_t>(u)] = 1;
          q.push_back(u);
        }
      }
    }
    seed = q.back();
  }

  std::vector<char> side(static_cast<std::size_t>(n), 1);
  std::vector<index_t> q{seed};
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  seen[static_cast<std::size_t>(seed)] = 1;
  offset_t grown = 0;
  for (std::size_t h = 0; h < q.size() && 2 * grown < total; ++h) {
    const index_t v = q[h];
    side[static_cast<std::size_t>(v)] = 0;
    grown += g.vweight[static_cast<std::size_t>(v)];
    for (offset_t e = g.begin(v); e < g.end(v); ++e) {
      const index_t u = g.adj[static_cast<std::size_t>(e)];
      if (!seen[static_cast<std::size_t>(u)]) {
        seen[static_cast<std::size_t>(u)] = 1;
        q.push_back(u);
      }
    }
  }
  return side;
}

/// FM-style refinement: repeated passes moving the best-gain boundary
/// vertex subject to balance, keeping the best cut seen in each pass.
void refine(const WeightedGraph& g, std::vector<char>& side, int max_passes) {
  const index_t n = g.n();
  offset_t total = 0;
  for (index_t w : g.vweight) total += w;
  offset_t w0 = 0;
  for (index_t v = 0; v < n; ++v)
    if (side[static_cast<std::size_t>(v)] == 0)
      w0 += g.vweight[static_cast<std::size_t>(v)];

  auto gain_of = [&](index_t v) {
    offset_t ext = 0, internal = 0;
    const char s = side[static_cast<std::size_t>(v)];
    for (offset_t e = g.begin(v); e < g.end(v); ++e) {
      const index_t u = g.adj[static_cast<std::size_t>(e)];
      if (side[static_cast<std::size_t>(u)] == s)
        internal += g.eweight[static_cast<std::size_t>(e)];
      else
        ext += g.eweight[static_cast<std::size_t>(e)];
    }
    return ext - internal;
  };

  // Keep both sides at least a third of the weight — and never empty
  // (total/3 truncates to 0 on tiny graphs).
  const offset_t min_side = std::max<offset_t>(total / 3, 1);
  std::vector<char> locked(static_cast<std::size_t>(n), 0);
  std::vector<char> in_boundary(static_cast<std::size_t>(n), 0);
  std::vector<index_t> boundary;

  auto is_boundary = [&](index_t v) {
    const char s = side[static_cast<std::size_t>(v)];
    for (offset_t e = g.begin(v); e < g.end(v); ++e)
      if (side[static_cast<std::size_t>(g.adj[static_cast<std::size_t>(e)])] != s)
        return true;
    return false;
  };

  for (int pass = 0; pass < max_passes; ++pass) {
    std::fill(locked.begin(), locked.end(), 0);
    std::fill(in_boundary.begin(), in_boundary.end(), 0);
    boundary.clear();
    for (index_t v = 0; v < n; ++v)
      if (is_boundary(v)) {
        in_boundary[static_cast<std::size_t>(v)] = 1;
        boundary.push_back(v);
      }
    // FM only ever profits from moving boundary vertices; bound the pass.
    const std::size_t max_moves = 2 * boundary.size() + 4;
    bool improved = false;
    for (std::size_t step = 0; step < max_moves; ++step) {
      index_t best = -1;
      offset_t best_gain = 0;  // only strictly improving moves
      for (index_t v : boundary) {
        if (locked[static_cast<std::size_t>(v)]) continue;
        const char s = side[static_cast<std::size_t>(v)];
        const offset_t nw0 =
            s == 0 ? w0 - g.vweight[static_cast<std::size_t>(v)]
                   : w0 + g.vweight[static_cast<std::size_t>(v)];
        if (nw0 < min_side || total - nw0 < min_side) continue;
        const offset_t gv = gain_of(v);
        if (gv > best_gain) {
          best_gain = gv;
          best = v;
        }
      }
      if (best < 0) break;
      const char s = side[static_cast<std::size_t>(best)];
      side[static_cast<std::size_t>(best)] = s == 0 ? 1 : 0;
      w0 += s == 0 ? -g.vweight[static_cast<std::size_t>(best)]
                   : g.vweight[static_cast<std::size_t>(best)];
      locked[static_cast<std::size_t>(best)] = 1;
      improved = true;
      // The move can promote neighbours into the boundary.
      for (offset_t e = g.begin(best); e < g.end(best); ++e) {
        const index_t u = g.adj[static_cast<std::size_t>(e)];
        if (!in_boundary[static_cast<std::size_t>(u)]) {
          in_boundary[static_cast<std::size_t>(u)] = 1;
          boundary.push_back(u);
        }
      }
    }
    if (!improved) break;
  }
}

}  // namespace

std::optional<Bisection> multilevel_bisect(const Adjacency& g,
                                           std::span<const index_t> verts) {
  const auto nv = static_cast<index_t>(verts.size());
  if (nv < 2) return std::nullopt;
  // Every stage below breaks ties by vertex id, so the bisection is a pure
  // function of (g, verts) — the determinism contract distributed analysis
  // relies on (see DESIGN.md, "Distributed analysis").

  // Build the induced local weighted graph.
  std::unordered_map<index_t, index_t> local;
  local.reserve(verts.size() * 2);
  for (index_t i = 0; i < nv; ++i) local[verts[static_cast<std::size_t>(i)]] = i;
  WeightedGraph fine;
  fine.vweight.assign(static_cast<std::size_t>(nv), 1);
  fine.ptr.assign(static_cast<std::size_t>(nv) + 1, 0);
  for (index_t i = 0; i < nv; ++i) {
    for (index_t u : g.neighbors(verts[static_cast<std::size_t>(i)])) {
      const auto it = local.find(u);
      if (it == local.end()) continue;
      fine.adj.push_back(it->second);
      fine.eweight.push_back(1);
    }
    fine.ptr[static_cast<std::size_t>(i) + 1] = static_cast<offset_t>(fine.adj.size());
  }

  // Coarsening hierarchy.
  std::vector<Level> levels;
  levels.push_back({std::move(fine), {}});
  while (levels.back().graph.n() > 48) {
    Level& top = levels.back();
    std::vector<index_t> coarse_of;
    const index_t nc = heavy_edge_matching(top.graph, &coarse_of);
    if (nc > top.graph.n() * 9 / 10) break;  // not shrinking: stop
    WeightedGraph cg = contract(top.graph, coarse_of, nc);
    top.coarse_of = std::move(coarse_of);
    levels.push_back({std::move(cg), {}});
  }

  // Initial partition on the coarsest graph, refine, then project down.
  std::vector<char> side = initial_partition(levels.back().graph);
  refine(levels.back().graph, side, 8);
  for (std::size_t lvl = levels.size() - 1; lvl-- > 0;) {
    const Level& fine_level = levels[lvl];
    std::vector<char> fine_side(static_cast<std::size_t>(fine_level.graph.n()));
    for (index_t v = 0; v < fine_level.graph.n(); ++v)
      fine_side[static_cast<std::size_t>(v)] =
          side[static_cast<std::size_t>(
              fine_level.coarse_of[static_cast<std::size_t>(v)])];
    side = std::move(fine_side);
    refine(fine_level.graph, side, 4);
  }

  Bisection out;
  const WeightedGraph& g0 = levels.front().graph;
  for (index_t i = 0; i < nv; ++i)
    (side[static_cast<std::size_t>(i)] == 0 ? out.a : out.b)
        .push_back(verts[static_cast<std::size_t>(i)]);
  for (index_t v = 0; v < nv; ++v)
    for (offset_t e = g0.begin(v); e < g0.end(v); ++e)
      if (side[static_cast<std::size_t>(v)] !=
          side[static_cast<std::size_t>(g0.adj[static_cast<std::size_t>(e)])])
        out.cut_weight += g0.eweight[static_cast<std::size_t>(e)];
  out.cut_weight /= 2;  // each cut edge counted from both ends
  if (out.a.empty() || out.b.empty()) return std::nullopt;
  return out;
}

}  // namespace slu3d::order_detail
