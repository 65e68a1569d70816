// Reproduces Fig. 11: relative memory overhead (%) of the 3D algorithm
// over the 2D baseline, per matrix, for P_z in {2, 4, 8, 16} at fixed
// total P. Planar matrices should stay at tens of percent; non-planar
// (large top separators) grow quickly — ~200% at P_z = 16 for the
// nlpkkt class.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace slu3d;
  bench::bench_platform(argc, argv);
  const auto suite = paper_test_suite(bench::bench_scale());
  const int P = 64;

  TextTable table({"Name", "Class", "Pz=2", "Pz=4", "Pz=8", "Pz=16"});
  // The replication that costs this memory is also what the targeted
  // z-reduction exploits (replicated ancestor accumulators that stay
  // mostly zero); report the W_red volume it eliminates alongside.
  TextTable saved({"Name", "Class", "Pz=2", "Pz=4", "Pz=8", "Pz=16"});
  for (const auto& t : suite) {
    const SeparatorTree tree = bench::order_matrix(t);
    const BlockStructure bs(t.A, tree);
    const CsrMatrix Ap = t.A.permuted_symmetric(tree.perm());

    std::vector<std::string> row{t.name, t.planar ? "planar" : "non-planar"};
    std::vector<std::string> srow = row;
    const auto base = bench::run_dist_lu(bs, Ap, 8, 8, 1);
    for (int Pz : {2, 4, 8, 16}) {
      const auto [Px, Py] = bench::square_ish(P / Pz);
      const auto m = bench::run_dist_lu(bs, Ap, Px, Py, Pz, 8,
                                        PartitionStrategy::Greedy,
                                        ZRedPacking::Targeted);
      const double overhead = 100.0 * (static_cast<double>(m.mem_total) /
                                           static_cast<double>(base.mem_total) -
                                       1.0);
      row.push_back(TextTable::num(overhead, 1) + "%");
      const offset_t dense_eq = m.z_bytes_sent + m.zred_saved;
      const double pct = dense_eq > 0
                             ? 100.0 * static_cast<double>(m.zred_saved) /
                                   static_cast<double>(dense_eq)
                             : 0.0;
      srow.push_back(std::to_string(m.zred_saved) + " (" +
                     TextTable::num(pct, 1) + "%)");
    }
    table.add_row(std::move(row));
    saved.add_row(std::move(srow));
  }
  std::cout << "Fig. 11 — relative memory overhead of 3D over 2D, P=" << P
            << "\n";
  table.print(std::cout);
  std::cout << "\nTargeted z-reduction: W_red bytes saved (share of "
               "dense-equivalent volume)\n";
  saved.print(std::cout);
  return 0;
}
