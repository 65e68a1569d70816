// Ablation for §II-F: the elimination-tree lookahead window. SuperLU_DIST
// uses windows of 8-20; this sweeps the window size and reports the
// simulated critical-path time of the 2D baseline at 4x4x1, ordered at the
// relaxed-supernode size a service on that grid picks.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace slu3d;
  bench::bench_platform(argc, argv);
  const auto suite = paper_test_suite(bench::bench_scale());

  TextTable table({"matrix", "window=0", "w=2", "w=8", "w=16", "best gain"});
  for (const auto& t : suite) {
    if (t.name != "K2D5pt" && t.name != "serena3d" && t.name != "circuit2d")
      continue;
    const SeparatorTree tree =
        bench::order_matrix(t, relaxed_leaf_size(4, 4, 1));
    const BlockStructure bs(t.A, tree);
    const CsrMatrix Ap = t.A.permuted_symmetric(tree.perm());

    std::vector<std::string> row{t.name};
    double t0 = 0, best = 1e300;
    for (int w : {0, 2, 8, 16}) {
      const auto m = bench::run_dist_lu(bs, Ap, 4, 4, 1, {.lookahead = w});
      if (w == 0) t0 = m.time;
      best = std::min(best, m.time);
      row.push_back(TextTable::sci(m.time));
    }
    row.push_back(TextTable::num(t0 / best, 3) + "x");
    table.add_row(std::move(row));
  }
  std::cout << "Lookahead-window ablation (SuperLU_DIST pipelining, §II-F)\n";
  table.print(std::cout);
  return 0;
}
