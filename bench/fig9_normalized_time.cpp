// Reproduces Fig. 9: factorization time of every test matrix for
// P_z in {1, 2, 4, 8, 16} at two machine sizes, normalized to the 2D
// baseline (P_z = 1) at the smaller machine, split into T_scu (Schur
// compute on the critical path) and T_comm (non-overlapped communication
// and synchronization). Paper machines: 96 and 384 ranks; scaled here to
// 64 and 128 simulated ranks.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace slu3d;
  bench::bench_platform(argc, argv);
  // --panel-packing / --zred-packing select the wire formats of the packed
  // re-run (default: targeted panel delivery, dense z-reduction).
  const auto pk = bench::parse_packing_flags(argc, argv,
                                             PanelPacking::Targeted,
                                             ZRedPacking::Dense);
  const auto suite = paper_test_suite(bench::bench_scale());
  const std::vector<int> machine_sizes{16, 64, 128};
  const std::vector<int> pz_values{1, 2, 4, 8, 16};

  for (const auto& t : suite) {
    const SeparatorTree tree = bench::order_matrix(t);
    const BlockStructure bs(t.A, tree);
    const CsrMatrix Ap = t.A.permuted_symmetric(tree.perm());

    std::cout << "\n=== " << t.name << " (" << (t.planar ? "planar" : "non-planar")
              << ", n=" << t.A.n_rows() << ") ===\n";
    // Normalize everything to the 2D algorithm at P = 64 (the paper
    // normalizes to 2D SuperLU_DIST on 16 nodes).
    const auto base_run = bench::run_dist_lu(bs, Ap, 8, 8, 1, 8,
                                             PartitionStrategy::Greedy,
                                             ZRedPacking::Dense,
                                             PanelPacking::Dense);
    const double baseline = base_run.time;
    // The packed columns re-run each point with the selected wire formats
    // (factors bitwise unchanged): T_pk/T is the re-run's simulated time
    // over the dense run's, Psaved the fraction of XY panel payload it
    // eliminates. `--zred-packing targeted` adds the targeted Z wire to
    // the same re-run.
    TextTable table({"P", "Pz", "PXY", "T/T2d", "T_scu/T2d", "T_comm/T2d",
                     "speedup", "T_pk/T", "Psaved(%)", "wall_s"});
    for (int P : machine_sizes) {
      for (int Pz : pz_values) {
        if (P % Pz != 0) continue;
        const auto [Px, Py] = bench::square_ish(P / Pz);
        const auto m = bench::run_dist_lu(bs, Ap, Px, Py, Pz, 8,
                                          PartitionStrategy::Greedy,
                                          ZRedPacking::Dense,
                                          PanelPacking::Dense);
        const auto pp = bench::run_dist_lu(bs, Ap, Px, Py, Pz, 8,
                                           PartitionStrategy::Greedy,
                                           pk.zred, pk.panel);
        const double psaved =
            pp.panel_dense > 0
                ? 100.0 * static_cast<double>(pp.panel_saved) /
                      static_cast<double>(pp.panel_dense)
                : 0.0;
        table.add_row({std::to_string(P), std::to_string(Pz),
                       std::to_string(Px) + "x" + std::to_string(Py),
                       TextTable::num(m.time / baseline),
                       TextTable::num(m.t_scu / baseline),
                       TextTable::num(m.t_comm / baseline),
                       TextTable::num(baseline / m.time, 2),
                       TextTable::num(pp.time / m.time, 4),
                       TextTable::num(psaved, 1),
                       TextTable::num(m.wall_s, 3)});
      }
    }
    table.print(std::cout);
  }
  return 0;
}
