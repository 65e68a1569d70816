// Reproduces Fig. 12: performance (GFLOP/s under the machine model) over
// the P_XY x P_z plane for a planar and a non-planar matrix, executed up
// to 256 simulated ranks and extrapolated to larger machines with the
// §IV analytical model. Also prints the §V-F best-case speedup (best 3D
// configuration over best 2D configuration).
//
// `--platform SPEC` selects the network the heatmap is executed under
// (preset name or platform file; default `edison`). Run once per preset —
// the flat Edison-like machine, the oversubscribed fat tree, the torus —
// it shows where the paper's (P_XY, P_z) sweet spot moves once
// z-reduction and panel broadcasts contend for shared uplinks: the what-if
// axis the paper's flat-machine extrapolation cannot see.
//
// Writes results/fig12_<platform name>.csv under the working directory,
// with the per-run link-queueing total alongside GFLOP/s so the
// Pz-dependent divergence under contention is visible in one file;
// tools/plot_results.py draws fig12_edison.csv.
#include <filesystem>
#include <fstream>
#include <iostream>

#include "bench_common.hpp"
#include "model/cost_model.hpp"

int main(int argc, char** argv) {
  using namespace slu3d;
  const auto& platform = bench::bench_platform(argc, argv);
  std::filesystem::create_directories("results");
  std::ofstream csv("results/fig12_" + platform.name + ".csv");
  csv << "matrix,class,Pxy,Pz,platform,gflops,time_s,link_queue_s\n";
  const auto suite = paper_test_suite(bench::bench_scale());

  for (const auto& t : suite) {
    if (t.name != "K2D5pt" && t.name != "nlpkkt3d") continue;
    const SeparatorTree tree = bench::order_matrix(t);
    const BlockStructure bs(t.A, tree);
    const CsrMatrix Ap = t.A.permuted_symmetric(tree.perm());
    const double flops = static_cast<double>(bs.total_flops());

    const char* cls = t.planar ? "planar" : "nonplanar";
    std::cout << "\n=== " << t.name << " ("
              << (t.planar ? "planar" : "non-planar")
              << "), GFLOP/s (executed) on " << platform.describe()
              << " ===\n";
    const std::vector<int> pxy_values{4, 8, 16, 32};
    const std::vector<int> pz_values{1, 2, 4, 8};

    std::vector<std::string> headers{"Pz \\ PXY"};
    for (int pxy : pxy_values) headers.push_back(std::to_string(pxy));
    TextTable table(headers);

    double best2d = 0, best3d = 0;
    std::string best3d_cfg;
    for (int pz : pz_values) {
      std::vector<std::string> row{std::to_string(pz)};
      for (int pxy : pxy_values) {
        const auto [Px, Py] = bench::square_ish(pxy);
        const auto m = bench::run_dist_lu(bs, Ap, Px, Py, pz);
        const double gflops = flops / m.time / 1e9;
        csv << t.name << ',' << cls << ',' << pxy << ',' << pz << ','
            << platform.name << ',' << gflops << ',' << m.time << ','
            << m.link_queue_s << '\n';
        row.push_back(TextTable::num(gflops, 2));
        if (pz == 1) best2d = std::max(best2d, gflops);
        if (gflops > best3d) {
          best3d = gflops;
          best3d_cfg = std::to_string(pxy) + "x" + std::to_string(pz);
        }
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
    std::cout << "best 2D: " << TextTable::num(best2d, 2)
              << " GFLOP/s;  best 3D (" << best3d_cfg
              << "): " << TextTable::num(best3d, 2)
              << " GFLOP/s;  best-case speedup: "
              << TextTable::num(best3d / best2d, 2) << "x\n";

    // Model extrapolation to the paper's machine sizes (up to 24k cores),
    // evaluated at the *paper-scale* problem size for this matrix class.
    // The analytical model is flat alpha-beta by construction — that is
    // exactly the blind spot the executed heatmap above fills on a
    // hierarchical platform — so it uses the platform's machine constants.
    const double n = t.name == "K2D5pt" ? 16.7e6 : 1.06e6;
    std::cout << "\n--- model extrapolation (" << t.name
              << " at paper n=" << n << "), GFLOP/s ---\n";
    const auto machine = platform.machine;
    TextTable ext({"Pz \\ P", "96", "384", "1536", "6144", "24576"});
    for (int pz : {1, 4, 16, 64}) {
      std::vector<std::string> row{std::to_string(pz)};
      for (int P : {96, 384, 1536, 6144, 24576}) {
        if (pz > P / 4) {
          row.push_back("-");
          continue;
        }
        const auto cost = t.planar
                              ? model::planar_3d_alg(n, P, pz)
                              : model::nonplanar_3d_alg(n, P, pz);
        const double mflops = t.planar ? model::planar_flops(n)
                                       : model::nonplanar_flops(n);
        const double seconds = model::predicted_seconds(machine, mflops, P, cost);
        row.push_back(TextTable::num(mflops / seconds / 1e9, 2));
      }
      ext.add_row(std::move(row));
    }
    ext.print(std::cout);
  }
  return 0;
}
