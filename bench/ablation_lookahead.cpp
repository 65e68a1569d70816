// Lookahead-window ablation (§II-F): the evidence for panel_lookahead. The
// window sets how many panel phases a rank issues ahead of the Schur phase
// it is in. A wider one keeps more independent leaves' panel messages in
// flight, which pays when per-message latency dominates the critical path;
// it also queues them ahead of the panels the next Schur phase waits for.
// Which side wins depends on the plane, so this sweeps windows {0, 8, 16,
// 64, open} at every grid shape of the Fig. 9 sweep (P in {16, 64, 128},
// each P_z in {1, ..., 16} dividing P, square-ish planes) on both wires,
// for K2D5pt, circuit2d and serena3d, plus dielfilter3d, whose 4x8 planes
// lose with a wider window. Each point is ordered at relaxed_leaf_size,
// as pz_sweep orders it.
//
// Each time is the simulated factorization time over that shape's
// window-8 time; `*` marks the window panel_lookahead(Px, Py) picks, and
// `best` names the fastest window of the five.
//
//   $ ./ablation_lookahead [--platform SPEC]
#include <algorithm>
#include <array>
#include <iostream>
#include <map>

#include "bench_common.hpp"

namespace {

using namespace slu3d;

/// The swept windows; kRef's is the reference the others are divided by.
constexpr std::array<int, 5> kWindows{0, 8, 16, 64, kMaxPanelLookahead};
constexpr std::size_t kRef = 1;

std::string window_name(int w) {
  return w == kMaxPanelLookahead ? "open" : std::to_string(w);
}

}  // namespace

int main(int argc, char** argv) {
  bench::bench_platform(argc, argv);
  const std::vector<bench::GridShape> shapes = bench::fig9_shapes();
  std::cout << "Lookahead-window ablation: simulated factorization time over "
               "the window-8 time at each Fig. 9 grid; * marks "
               "panel_lookahead(Px, Py)\n";
  for (const auto& t : paper_test_suite(bench::bench_scale())) {
    if (t.name != "K2D5pt" && t.name != "circuit2d" &&
        t.name != "serena3d" && t.name != "dielfilter3d")
      continue;
    std::cout << "\n=== " << t.name << " ("
              << (t.planar ? "planar" : "non-planar")
              << ", n=" << t.A.n_rows() << ") ===\n";
    // time[w][i][l]: wire w (Dense, Targeted), shape i, window kWindows[l].
    std::vector<std::array<double, kWindows.size()>> time[2];
    time[0].resize(shapes.size());
    time[1].resize(shapes.size());
    std::map<index_t, std::pair<BlockStructure, CsrMatrix>> orderings;
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const bench::GridShape& s = shapes[i];
      const index_t leaf = relaxed_leaf_size(s.Px, s.Py, s.Pz);
      auto it = orderings.find(leaf);
      if (it == orderings.end()) {
        const SeparatorTree tree = bench::order_matrix(t, leaf);
        it = orderings
                 .try_emplace(leaf, BlockStructure(t.A, tree),
                              t.A.permuted_symmetric(tree.perm()))
                 .first;
      }
      const auto& [bs, Ap] = it->second;
      for (std::size_t l = 0; l < kWindows.size(); ++l)
        for (const Wire wire : {Wire::Dense, Wire::Targeted})
          time[wire == Wire::Dense ? 0 : 1][i][l] =
              bench::run_dist_lu(bs, Ap, s.Px, s.Py, s.Pz,
                                 {.lookahead = kWindows[l], .wire = wire})
                  .time;
    }
    for (int w = 0; w < 2; ++w) {
      std::cout << "\n" << (w == 0 ? "Dense" : "Targeted") << " wire\n";
      std::vector<std::string> head{"P", "Pz", "PXY", "leaf", "T@8(s)"};
      for (std::size_t l = 0; l < kWindows.size(); ++l)
        if (l != kRef) head.push_back(window_name(kWindows[l]) + "/8");
      head.push_back("best");
      TextTable table(std::move(head));
      for (std::size_t i = 0; i < shapes.size(); ++i) {
        const bench::GridShape& s = shapes[i];
        const auto& ti = time[w][i];
        const int rule = panel_lookahead(s.Px, s.Py);
        const auto mark = [&](std::size_t l) {
          return std::string(kWindows[l] == rule ? "*" : "");
        };
        std::vector<std::string> row{
            std::to_string(s.P), std::to_string(s.Pz),
            std::to_string(s.Px) + "x" + std::to_string(s.Py),
            std::to_string(relaxed_leaf_size(s.Px, s.Py, s.Pz)),
            TextTable::sci(ti[kRef], 3) + mark(kRef)};
        for (std::size_t l = 0; l < kWindows.size(); ++l)
          if (l != kRef)
            row.push_back(TextTable::num(ti[l] / ti[kRef]) + mark(l));
        const auto best = std::min_element(ti.begin(), ti.end()) - ti.begin();
        row.push_back(window_name(kWindows[static_cast<std::size_t>(best)]));
        table.add_row(std::move(row));
      }
      table.print(std::cout);
    }
  }
  return 0;
}
