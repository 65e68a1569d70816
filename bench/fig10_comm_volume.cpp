// Reproduces Fig. 10: per-process communication volume (bytes) on the
// critical path, split into W_fact (2D-grid factorization traffic) and
// W_red (ancestor-reduction traffic along z), for one planar and one
// non-planar matrix at two machine sizes and P_z in {1, 2, 4, 8, 16}.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace slu3d;
  bench::bench_platform(argc, argv);
  const auto suite = paper_test_suite(bench::bench_scale());

  for (const auto& t : suite) {
    if (t.name != "K2D5pt" && t.name != "nlpkkt3d") continue;
    const SeparatorTree tree = bench::order_matrix(t);
    const BlockStructure bs(t.A, tree);
    const CsrMatrix Ap = t.A.permuted_symmetric(tree.perm());

    std::cout << "\n=== " << t.name << " (" << (t.planar ? "planar" : "non-planar")
              << ") ===\n";
    // Dense columns reproduce the paper's W_fact/W_red; the Tsaved and
    // TZsaved columns re-run both planes with the targeted wire (footprint
    // messages on XY, one frame per ancestor along Z) and report the
    // volume it eliminates on each plane (numerics unchanged — see
    // tests/test_comm_equivalence.cpp).
    TextTable table({"P", "Pz", "W_fact(B)", "W_red(B)", "W_total(B)",
                     "vs 2D", "Tsaved(B)", "Tsaved(%)", "TZsaved(%)"});
    for (int P : {64, 128}) {
      offset_t w2d = 0;
      for (int Pz : {1, 2, 4, 8, 16}) {
        const auto [Px, Py] = bench::square_ish(P / Pz);
        const auto m = bench::run_dist_lu(bs, Ap, Px, Py, Pz);
        const auto tg = bench::run_dist_lu(bs, Ap, Px, Py, Pz, 8,
                                           PartitionStrategy::Greedy,
                                           ZRedPacking::Targeted,
                                           PanelPacking::Targeted);
        const offset_t total = m.w_fact + m.w_red;
        if (Pz == 1) w2d = total;
        auto pct = [](offset_t saved, offset_t dense_eq) {
          return dense_eq > 0 ? 100.0 * static_cast<double>(saved) /
                                    static_cast<double>(dense_eq)
                              : 0.0;
        };
        const offset_t tzdense = tg.z_bytes_sent + tg.zred_saved;
        table.add_row({std::to_string(P), std::to_string(Pz),
                       std::to_string(m.w_fact), std::to_string(m.w_red),
                       std::to_string(total),
                       TextTable::num(static_cast<double>(w2d) /
                                      static_cast<double>(total), 2) + "x",
                       std::to_string(tg.panel_saved),
                       TextTable::num(pct(tg.panel_saved, tg.panel_dense), 1) +
                           "%",
                       TextTable::num(pct(tg.zred_saved, tzdense), 1) + "%"});
      }
    }
    table.print(std::cout);
  }
  return 0;
}
