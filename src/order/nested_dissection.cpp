#include "order/nested_dissection.hpp"

#include <algorithm>
#include <queue>
#include <string>

#include "order/dissector.hpp"
#include "support/check.hpp"

namespace slu3d {

namespace {

using order_detail::Adjacency;
using order_detail::build_adjacency;
using order_detail::GeneralDissector;
using order_detail::TreeBuilder;

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
