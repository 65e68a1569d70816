// Supernode-relaxation ablation: the evidence for relaxed_leaf_size. The
// ND leaf size sets the granularity of the supernodes: a wider leaf costs
// flops and fill on the rank that owns it, and saves the diagonal and panel
// messages of the supernodes it absorbs. Which side wins depends on the
// process grid, so this sweeps leaves {32, 48, 64, 96, 128} at every grid
// shape of the Fig. 9 sweep (P in {16, 64, 128}, each P_z in {1, ..., 16}
// dividing P, square-ish planes) for K2D5pt and dielfilter3d, the matrix
// on which the rule's leaf of 64 loses most, on both wires.
//
// Each time is the simulated factorization time over that shape's leaf-32
// time; `*` marks the leaf relaxed_leaf_size(Px, Py, Pz) picks, and `best`
// names the fastest leaf of the five.
//
//   $ ./ablation_leafsize [--platform SPEC]
#include <algorithm>
#include <array>
#include <iostream>

#include "bench_common.hpp"

namespace {

using namespace slu3d;

/// The swept leaves; the first is the reference the others are divided by.
constexpr std::array<index_t, 5> kLeaves{32, 48, 64, 96, 128};

}  // namespace

int main(int argc, char** argv) {
  bench::bench_platform(argc, argv);
  const std::vector<bench::GridShape> shapes = bench::fig9_shapes();
  std::cout << "Relaxed-supernode (leaf size) ablation: simulated "
               "factorization time over the leaf-32 time at each Fig. 9 "
               "grid; * marks relaxed_leaf_size(Px, Py, Pz)\n";
  for (const auto& t : paper_test_suite(bench::bench_scale())) {
    if (t.name != "K2D5pt" && t.name != "dielfilter3d") continue;
    std::cout << "\n=== " << t.name << " ("
              << (t.planar ? "planar" : "non-planar")
              << ", n=" << t.A.n_rows() << ") ===\n";
    TextTable sizes({"leaf", "#snodes", "nnz(L+U)", "flops"});
    // time[w][i][l]: wire w (Dense, Targeted), shape i, leaf kLeaves[l].
    std::vector<std::array<double, kLeaves.size()>> time[2];
    time[0].resize(shapes.size());
    time[1].resize(shapes.size());
    for (std::size_t l = 0; l < kLeaves.size(); ++l) {
      const SeparatorTree tree = bench::order_matrix(t, kLeaves[l]);
      const BlockStructure bs(t.A, tree);
      const CsrMatrix Ap = t.A.permuted_symmetric(tree.perm());
      sizes.add_row({std::to_string(kLeaves[l]), std::to_string(bs.n_snodes()),
                     TextTable::sci(static_cast<double>(bs.total_nnz())),
                     TextTable::sci(static_cast<double>(bs.total_flops()))});
      for (std::size_t i = 0; i < shapes.size(); ++i) {
        const bench::GridShape& s = shapes[i];
        time[0][i][l] = bench::run_dist_lu(bs, Ap, s.Px, s.Py, s.Pz).time;
        time[1][i][l] = bench::run_dist_lu(bs, Ap, s.Px, s.Py, s.Pz,
                                           {.wire = Wire::Targeted})
                            .time;
      }
    }
    sizes.print(std::cout);
    for (int w = 0; w < 2; ++w) {
      std::cout << "\n" << (w == 0 ? "Dense" : "Targeted") << " wire\n";
      std::vector<std::string> head{"P", "Pz", "PXY", "T@32(s)"};
      for (std::size_t l = 1; l < kLeaves.size(); ++l)
        head.push_back(std::to_string(kLeaves[l]) + "/32");
      head.push_back("best");
      TextTable table(std::move(head));
      for (std::size_t i = 0; i < shapes.size(); ++i) {
        const bench::GridShape& s = shapes[i];
        const auto& ti = time[w][i];
        const index_t rule = relaxed_leaf_size(s.Px, s.Py, s.Pz);
        const auto mark = [&](std::size_t l) {
          return std::string(kLeaves[l] == rule ? "*" : "");
        };
        std::vector<std::string> row{
            std::to_string(s.P), std::to_string(s.Pz),
            std::to_string(s.Px) + "x" + std::to_string(s.Py),
            TextTable::sci(ti[0], 3) + mark(0)};
        for (std::size_t l = 1; l < kLeaves.size(); ++l)
          row.push_back(TextTable::num(ti[l] / ti[0]) + mark(l));
        const auto best = std::min_element(ti.begin(), ti.end()) - ti.begin();
        row.push_back(std::to_string(kLeaves[static_cast<std::size_t>(best)]));
        table.add_row(std::move(row));
      }
      table.print(std::cout);
    }
  }
  return 0;
}
