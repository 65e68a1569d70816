// Reproduces Figs. 9, 10 and 11 from one sweep: every test matrix factored
// at each P_z in {1, 2, 4, 8, 16} that divides P, for P in {16, 64, 128}
// simulated ranks (the paper's 96- and 384-rank machines, scaled down).
// Each point runs twice: on the Dense wires, and Targeted on both planes
// (footprint messages on XY, one frame per ancestor along Z). The factors
// are bitwise equal across wires; only the traffic differs, so the Dense
// run's received volume minus the Targeted run's is what the Targeted wire
// saves.
//
//   Fig. 9  — factorization time per matrix, normalized to the 2D run
//             (P_z = 1) at P = 64 (the paper normalizes to 2D
//             SuperLU_DIST on 16 nodes), split into T_scu (Schur compute
//             on the critical path) and T_comm (non-overlapped
//             communication and synchronization);
//   Fig. 10 — per-process critical-path communication volume, W_fact (XY)
//             and W_red (Z), for one planar and one non-planar matrix at
//             P in {64, 128};
//   Fig. 11 — relative memory overhead of 3D over 2D at P = 64: tens of
//             percent for planar matrices, ~200% at P_z = 16 for the
//             nlpkkt class.
//
// Each point is ordered at relaxed_leaf_size(Px, Py, Pz), the relaxed
// supernode size a SolverService on that grid picks, so the figures and
// their 2D baseline report what the service runs. A matrix gets at most
// two orderings, one per leaf the rule picks. The in-sim analysis runs
// once per (matrix, P, leaf); its split is reported alongside every fig9
// CSV row that factors that ordering. Fig. 9 divides every point by the
// 2D run at P = 64, whatever its leaf: the service's 2D time. Figs. 10 and
// 11 divide each point by the 2D run at its own P and leaf, so their
// ratios measure replication alone; where the rule picks another leaf for
// a 3D point than for the 2D one, that 2D run is one more Dense run.
//
//   $ ./pz_sweep [--platform SPEC]
//
// Writes results/fig9_normalized_time.csv, results/fig10_comm_volume.csv
// and results/fig11_memory.csv under the working directory (plot them with
// tools/plot_results.py). Any other argument exits with status 2.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "analysis/dist_analysis.hpp"
#include "bench_common.hpp"

namespace {

using namespace slu3d;

constexpr auto kXY = static_cast<std::size_t>(sim::CommPlane::XY);
constexpr auto kZ = static_cast<std::size_t>(sim::CommPlane::Z);

struct Point {
  int P = 0, Pz = 0, Px = 0, Py = 0;
  index_t leaf = 0;             ///< relaxed_leaf_size(Px, Py, Pz)
  bench::DistMetrics dense;     ///< Dense on both planes
  bench::DistMetrics targeted;  ///< Targeted on both planes

  /// Bytes received on `plane`: Dense run minus Targeted run.
  offset_t saved_bytes(std::size_t plane) const {
    return dense.bytes_received[plane] - targeted.bytes_received[plane];
  }
  /// Share of the Dense run's volume on `plane` the Targeted wire saves.
  double saved_pct(std::size_t plane) const {
    const offset_t all = dense.bytes_received[plane];
    return all > 0 ? 100.0 * static_cast<double>(saved_bytes(plane)) /
                         static_cast<double>(all)
                   : 0.0;
  }
};

/// One ordering of a matrix at one leaf size, and what a factorization
/// of it reads.
struct Ordering {
  SeparatorTree tree;
  BlockStructure bs;
  CsrMatrix Ap;

  Ordering(const TestMatrix& t, index_t leaf)
      : tree(bench::order_matrix(t, leaf)),
        bs(t.A, tree),
        Ap(t.A.permuted_symmetric(tree.perm())) {}
};

/// The in-sim analysis split of one (matrix, P, leaf).
struct AnalysisSplit {
  double t = 0;
  offset_t w = 0;
  offset_t msgs = 0;
};

/// One matrix's points, in sweep order (P outer, P_z inner).
struct MatrixSweep {
  std::string name;
  bool planar = false;
  std::vector<Point> points;
  /// The Dense 2D (P_z = 1) run at each (P, leaf) a point of this P uses.
  std::map<std::pair<int, index_t>, bench::DistMetrics> runs_2d;

  const Point& at(int P, int Pz) const {
    for (const Point& p : points)
      if (p.P == P && p.Pz == Pz) return p;
    throw Error("pz_sweep: no point at P=" + std::to_string(P) +
                ", Pz=" + std::to_string(Pz));
  }
  /// The 2D run at p's own P and leaf, the baseline of Figs. 10 and 11.
  const bench::DistMetrics& base_2d(const Point& p) const {
    return runs_2d.at({p.P, p.leaf});
  }
};

/// T_pk/T is the Targeted run's simulated time over the Dense run's, and
/// Psaved the share of the Dense run's XY volume the footprint messages
/// eliminate.
void print_fig9(const MatrixSweep& s, index_t n) {
  std::cout << "\n=== " << s.name << " ("
            << (s.planar ? "planar" : "non-planar") << ", n=" << n
            << ") ===\n";
  const double baseline = s.at(64, 1).dense.time;
  TextTable table({"P", "Pz", "PXY", "leaf", "T/T2d", "T_scu/T2d",
                   "T_comm/T2d", "speedup", "T_pk/T", "Psaved(%)", "wall_s"});
  for (const Point& p : s.points) {
    const bench::DistMetrics& m = p.dense;
    table.add_row({std::to_string(p.P), std::to_string(p.Pz),
                   std::to_string(p.Px) + "x" + std::to_string(p.Py),
                   std::to_string(p.leaf),
                   TextTable::num(m.time / baseline),
                   TextTable::num(m.t_scu / baseline),
                   TextTable::num(m.t_comm / baseline),
                   TextTable::num(baseline / m.time, 2),
                   TextTable::num(p.targeted.time / m.time, 4),
                   TextTable::num(p.saved_pct(kXY), 1),
                   TextTable::num(m.wall_s, 3)});
  }
  table.print(std::cout);
}

/// Dense columns reproduce the paper's W_fact / W_red; Tsaved and TZsaved
/// report the volume the Targeted wire eliminates on each plane.
void print_fig10(const MatrixSweep& s) {
  std::cout << "\n=== " << s.name << " ("
            << (s.planar ? "planar" : "non-planar") << ") ===\n";
  TextTable table({"P", "Pz", "W_fact(B)", "W_red(B)", "W_total(B)",
                   "vs 2D", "Tsaved(B)", "Tsaved(%)", "TZsaved(%)"});
  for (int P : {64, 128}) {
    for (int Pz : {1, 2, 4, 8, 16}) {
      const Point& p = s.at(P, Pz);
      const bench::DistMetrics& m2d = s.base_2d(p);
      const offset_t w2d = m2d.w_fact + m2d.w_red;
      const bench::DistMetrics& m = p.dense;
      const offset_t total = m.w_fact + m.w_red;
      table.add_row({std::to_string(P), std::to_string(Pz),
                     std::to_string(m.w_fact), std::to_string(m.w_red),
                     std::to_string(total),
                     TextTable::num(static_cast<double>(w2d) /
                                    static_cast<double>(total), 2) + "x",
                     std::to_string(p.saved_bytes(kXY)),
                     TextTable::num(p.saved_pct(kXY), 1) + "%",
                     TextTable::num(p.saved_pct(kZ), 1) + "%"});
    }
  }
  table.print(std::cout);
}

/// The replication that costs this memory is also what the Targeted
/// z-reduction exploits (replicated ancestor accumulators that stay mostly
/// zero), so the W_red volume it eliminates is reported alongside.
void print_fig11(const std::vector<MatrixSweep>& sweeps) {
  const int P = 64;
  TextTable table({"Name", "Class", "Pz=2", "Pz=4", "Pz=8", "Pz=16"});
  TextTable saved({"Name", "Class", "Pz=2", "Pz=4", "Pz=8", "Pz=16"});
  for (const MatrixSweep& s : sweeps) {
    std::vector<std::string> row{s.name, s.planar ? "planar" : "non-planar"};
    std::vector<std::string> srow = row;
    for (int Pz : {2, 4, 8, 16}) {
      const Point& p = s.at(P, Pz);
      const offset_t base = s.base_2d(p).mem_total;
      const double overhead =
          100.0 * (static_cast<double>(p.dense.mem_total) /
                       static_cast<double>(base) -
                   1.0);
      row.push_back(TextTable::num(overhead, 1) + "%");
      srow.push_back(std::to_string(p.saved_bytes(kZ)) + " (" +
                     TextTable::num(p.saved_pct(kZ), 1) + "%)");
    }
    table.add_row(std::move(row));
    saved.add_row(std::move(srow));
  }
  std::cout << "\nFig. 11 — relative memory overhead of 3D over 2D, P=" << P
            << "\n";
  table.print(std::cout);
  std::cout << "\nTargeted z-reduction: Z bytes saved (share of the Dense "
               "run's Z volume)\n";
  saved.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--platform=", 11) == 0) continue;
    if (std::strcmp(argv[i], "--platform") == 0 && i + 1 < argc) {
      ++i;  // skip the value
      continue;
    }
    std::fprintf(stderr,
                 "pz_sweep: unknown argument '%s'; expected --platform SPEC\n",
                 argv[i]);
    return 2;
  }
  bench::bench_platform(argc, argv);

  std::filesystem::create_directories("results");
  std::ofstream f9("results/fig9_normalized_time.csv");
  f9 << "matrix,class,P,Pz,Px,Py,time_s,t_scu_s,t_comm_s,wall_s,"
        "t_analysis_s,w_analysis_bytes,msg_analysis\n";
  std::ofstream f10("results/fig10_comm_volume.csv");
  f10 << "matrix,class,P,Pz,w_fact_bytes,w_red_bytes,targeted_saved_bytes,"
         "dense_xy_bytes,targeted_saved_msgs,targeted_zred_saved_bytes\n";
  std::ofstream f11("results/fig11_memory.csv");
  f11 << "matrix,class,P,Pz,mem_total_bytes,mem_max_bytes,"
         "mem_2d_total_bytes\n";

  std::cout << "Fig. 9 — factorization time normalized to the 2D run at "
               "P=64\n";
  std::vector<MatrixSweep> sweeps;
  for (const auto& t : paper_test_suite(bench::bench_scale())) {
    std::map<index_t, Ordering> orderings;
    const char* cls = t.planar ? "planar" : "nonplanar";
    MatrixSweep& s = sweeps.emplace_back(MatrixSweep{t.name, t.planar, {}, {}});
    for (int P : {16, 64, 128}) {
      // The analysis depends on the world size and the leaf, not the P_z
      // split.
      std::map<index_t, AnalysisSplit> analyses;
      for (int Pz : {1, 2, 4, 8, 16}) {
        if (P % Pz != 0) continue;
        const auto [Px, Py] = bench::square_ish(P / Pz);
        const index_t leaf = relaxed_leaf_size(Px, Py, Pz);
        const Ordering& o = orderings.try_emplace(leaf, t, leaf).first->second;
        auto [it, fresh] = analyses.try_emplace(leaf);
        if (fresh) {
          const auto ares = sim::run_ranks(
              P, bench::platform(), [&](sim::Comm& world) {
                analyze_in_sim(t.A, world, {.leaf_size = leaf},
                               AnalysisMode::Distributed);
              });
          it->second = {ares.max_analysis_seconds(),
                        ares.max_analysis_bytes_received(),
                        ares.total_analysis_messages_sent()};
        }
        const AnalysisSplit& a = it->second;
        Point& p = s.points.emplace_back(Point{P, Pz, Px, Py, leaf, {}, {}});
        p.dense = bench::run_dist_lu(o.bs, o.Ap, Px, Py, Pz);
        p.targeted = bench::run_dist_lu(o.bs, o.Ap, Px, Py, Pz,
                                        {.wire = Wire::Targeted});
        if (!s.runs_2d.contains({P, leaf})) {
          const auto [Px2d, Py2d] = bench::square_ish(P);
          s.runs_2d[{P, leaf}] =
              Pz == 1 ? p.dense
                      : bench::run_dist_lu(o.bs, o.Ap, Px2d, Py2d, 1);
        }
        const bench::DistMetrics& m = p.dense;
        f9 << t.name << ',' << cls << ',' << P << ',' << Pz << ',' << Px
           << ',' << Py << ',' << m.time << ',' << m.t_scu << ',' << m.t_comm
           << ',' << m.wall_s << ',' << a.t << ',' << a.w << ',' << a.msgs
           << '\n';
        f10 << t.name << ',' << cls << ',' << P << ',' << Pz << ','
            << m.w_fact << ',' << m.w_red << ',' << p.saved_bytes(kXY) << ','
            << m.bytes_received[kXY] << ','
            << m.messages_received[kXY] - p.targeted.messages_received[kXY]
            << ',' << p.saved_bytes(kZ) << '\n';
        f11 << t.name << ',' << cls << ',' << P << ',' << Pz << ','
            << m.mem_total << ',' << m.mem_max << ','
            << s.base_2d(p).mem_total << '\n';
      }
    }
    print_fig9(s, t.A.n_rows());
  }

  std::cout << "\nFig. 10 — per-process communication volume on the "
               "critical path\n";
  for (const MatrixSweep& s : sweeps)
    if (s.name == "K2D5pt" || s.name == "nlpkkt3d") print_fig10(s);
  print_fig11(sweeps);
  std::cout << "\nwrote results/fig9_normalized_time.csv, "
               "results/fig10_comm_volume.csv and results/fig11_memory.csv; "
               "plot with tools/plot_results.py\n";
  return 0;
}
