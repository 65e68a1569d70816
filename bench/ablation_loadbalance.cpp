// Ablation for §III-C / Fig. 8: the greedy inter-grid load-balancing
// heuristic versus the plain nested-dissection split, on deliberately
// unbalanced elimination trees. The classic bad case (exactly the paper's
// Fig. 8) is an elimination forest whose top-level split yields children
// of very different factorization cost; here: one big grid plus small
// disconnected islands, and an L-shaped domain.
#include <iostream>

#include "bench_common.hpp"

namespace {

using namespace slu3d;

/// One na x na 5-point grid plus `k` disconnected nb x nb islands
/// (independent subdomains): the component split of the elimination tree
/// is maximally unbalanced in cost when na >> nb — the paper's Fig. 8
/// scenario, where the plain ND mapping leaves one grid owning almost all
/// the work and the greedy heuristic descends into the big subtree.
CsrMatrix unbalanced_islands(index_t na, index_t nb, index_t k) {
  const index_t n = na * na + k * nb * nb;
  CooMatrix coo(n, n);
  std::vector<real_t> diag(static_cast<std::size_t>(n), 0.0);
  auto edge = [&](index_t u, index_t v) {
    coo.add(u, v, -1.0);
    coo.add(v, u, -1.0);
    diag[static_cast<std::size_t>(u)] += 1.0;
    diag[static_cast<std::size_t>(v)] += 1.0;
  };
  auto va = [&](index_t x, index_t y) { return x + na * y; };
  for (index_t y = 0; y < na; ++y)
    for (index_t x = 0; x < na; ++x) {
      if (x + 1 < na) edge(va(x, y), va(x + 1, y));
      if (y + 1 < na) edge(va(x, y), va(x, y + 1));
    }
  for (index_t isl = 0; isl < k; ++isl) {
    const index_t off = na * na + isl * nb * nb;
    auto vb = [&](index_t x, index_t y) { return off + x + nb * y; };
    for (index_t y = 0; y < nb; ++y)
      for (index_t x = 0; x < nb; ++x) {
        if (x + 1 < nb) edge(vb(x, y), vb(x + 1, y));
        if (y + 1 < nb) edge(vb(x, y), vb(x, y + 1));
      }
  }
  for (index_t i = 0; i < n; ++i)
    coo.add(i, i, diag[static_cast<std::size_t>(i)] * 1.05 + 0.05);
  return CsrMatrix::from_coo(coo);
}

/// L-shaped domain: an nx x ny grid with the (x >= nx/2, y >= ny/2)
/// quadrant removed. General ND splits it unevenly in cost.
CsrMatrix lshaped2d(index_t nx, index_t ny) {
  std::vector<index_t> id(static_cast<std::size_t>(nx * ny), -1);
  index_t n = 0;
  for (index_t y = 0; y < ny; ++y)
    for (index_t x = 0; x < nx; ++x)
      if (!(x >= nx / 2 && y >= ny / 2))
        id[static_cast<std::size_t>(x + nx * y)] = n++;
  CooMatrix coo(n, n);
  std::vector<real_t> diag(static_cast<std::size_t>(n), 0.0);
  auto edge = [&](index_t u, index_t v) {
    coo.add(u, v, -1.0);
    coo.add(v, u, -1.0);
    diag[static_cast<std::size_t>(u)] += 1.0;
    diag[static_cast<std::size_t>(v)] += 1.0;
  };
  for (index_t y = 0; y < ny; ++y)
    for (index_t x = 0; x < nx; ++x) {
      const index_t u = id[static_cast<std::size_t>(x + nx * y)];
      if (u < 0) continue;
      if (x + 1 < nx && id[static_cast<std::size_t>(x + 1 + nx * y)] >= 0)
        edge(u, id[static_cast<std::size_t>(x + 1 + nx * y)]);
      if (y + 1 < ny && id[static_cast<std::size_t>(x + nx * (y + 1))] >= 0)
        edge(u, id[static_cast<std::size_t>(x + nx * (y + 1))]);
    }
  for (index_t i = 0; i < n; ++i)
    coo.add(i, i, diag[static_cast<std::size_t>(i)] * 1.05 + 0.05);
  return CsrMatrix::from_coo(coo);
}

}  // namespace

int main(int argc, char** argv) {
  slu3d::bench::bench_platform(argc, argv);
  const int s = bench::bench_scale();
  const index_t base = s == 0 ? 16 : (s == 1 ? 48 : 96);

  struct Case {
    std::string name;
    CsrMatrix A;
  };
  std::vector<Case> cases;
  cases.push_back({"islands_big+4small", unbalanced_islands(base, base / 4, 4)});
  cases.push_back({"islands_big+2mid", unbalanced_islands(base, base / 2, 2)});
  cases.push_back({"lshaped", lshaped2d(2 * base, base)});

  TextTable table({"matrix", "Pz", "cp_flops(nd)", "cp_flops(greedy)",
                   "flops_gain", "T_nd(s)", "T_greedy(s)", "time_gain"});
  for (const auto& c : cases) {
    const SeparatorTree tree = nested_dissection(c.A, {.leaf_size = 16});
    const BlockStructure bs(c.A, tree);
    const CsrMatrix Ap = c.A.permuted_symmetric(tree.perm());

    for (int Pz : {2, 4}) {
      const ForestPartition nd(bs, Pz, PartitionStrategy::NdSplit);
      const ForestPartition greedy(bs, Pz, PartitionStrategy::Greedy);
      const auto mnd =
          bench::run_dist_lu(bs, Ap, 2, 2, Pz, {}, PartitionStrategy::NdSplit);
      const auto mgr =
          bench::run_dist_lu(bs, Ap, 2, 2, Pz, {}, PartitionStrategy::Greedy);
      table.add_row(
          {c.name, std::to_string(Pz),
           TextTable::sci(static_cast<double>(nd.critical_path_flops())),
           TextTable::sci(static_cast<double>(greedy.critical_path_flops())),
           TextTable::num(static_cast<double>(nd.critical_path_flops()) /
                          static_cast<double>(greedy.critical_path_flops()), 2) + "x",
           TextTable::sci(mnd.time), TextTable::sci(mgr.time),
           TextTable::num(mnd.time / mgr.time, 2) + "x"});
    }
  }
  std::cout << "Load-balance ablation (Fig. 8): greedy heuristic vs plain ND "
               "split on unbalanced trees\n";
  table.print(std::cout);
  return 0;
}
