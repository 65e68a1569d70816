// Exports the paper's figure data as CSV files (one per figure), so the
// plots can be regenerated with tools/plot_results.py or any spreadsheet.
//
//   $ ./export_csv [output_dir]                (default: ./results)
//   $ ./export_csv --fleet-only [output_dir]   (fleet throughput sweep only)
//   $ ./export_csv --fig12-only [output_dir]   (fig12 platform sweep only:
//                                               one fig12_<platform>.csv
//                                               per preset — the CI
//                                               artifacts)
//
// --seed and --platform take a value as in every bench driver; any other
// argument starting with `--` exits with status 2.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "fleet_common.hpp"

namespace {

using namespace slu3d;

void export_fig9_fig10_fig11(const std::string& dir) {
  const auto suite = paper_test_suite(bench::bench_scale());
  std::ofstream f9(dir + "/fig9_normalized_time.csv");
  f9 << "matrix,class,P,Pz,Px,Py,time_s,t_scu_s,t_comm_s,wall_s,"
        "t_analysis_s,w_analysis_bytes,msg_analysis\n";
  std::ofstream f10(dir + "/fig10_comm_volume.csv");
  f10 << "matrix,class,P,Pz,w_fact_bytes,w_red_bytes,targeted_saved_bytes,"
         "targeted_dense_bytes,targeted_saved_msgs,targeted_zred_saved_bytes"
         "\n";
  std::ofstream f11(dir + "/fig11_memory.csv");
  f11 << "matrix,class,P,Pz,mem_total_bytes,mem_max_bytes\n";

  for (const auto& t : suite) {
    const SeparatorTree tree = bench::order_matrix(t);
    const BlockStructure bs(t.A, tree);
    const CsrMatrix Ap = t.A.permuted_symmetric(tree.perm());
    const char* cls = t.planar ? "planar" : "nonplanar";
    for (int P : {16, 64, 128}) {
      // The cold-start analysis split at this rank count: the distributed
      // ordering + symbolic phase run once per (matrix, P) on the
      // simulated machine (it depends on the world size, not the Pz
      // split), reported alongside every fig9 row at this P.
      const auto ares = sim::run_ranks(
          P, bench::platform(), [&](sim::Comm& world) {
            analyze_in_sim(t.A, world, {.leaf_size = 16},
                           AnalysisMode::Distributed);
          });
      const double t_analysis = ares.max_analysis_seconds();
      const offset_t w_analysis = ares.max_analysis_bytes_received();
      const offset_t msg_analysis = ares.total_analysis_messages_sent();
      for (int Pz : {1, 2, 4, 8, 16}) {
        if (P % Pz != 0) continue;
        const auto [Px, Py] = bench::square_ish(P / Pz);
        const auto m = bench::run_dist_lu(bs, Ap, Px, Py, Pz, 8,
                                          PartitionStrategy::Greedy,
                                          ZRedPacking::Dense,
                                          PanelPacking::Dense);
        // Targeted re-run (footprint messages on XY + frames along Z)
        // for the targeted_* columns — factors bitwise unchanged; only the
        // wire formats differ.
        const auto tg = bench::run_dist_lu(bs, Ap, Px, Py, Pz, 8,
                                           PartitionStrategy::Greedy,
                                           ZRedPacking::Targeted,
                                           PanelPacking::Targeted);
        f9 << t.name << ',' << cls << ',' << P << ',' << Pz << ',' << Px
           << ',' << Py << ',' << m.time << ',' << m.t_scu << ',' << m.t_comm
           << ',' << m.wall_s << ',' << t_analysis << ',' << w_analysis
           << ',' << msg_analysis << '\n';
        f10 << t.name << ',' << cls << ',' << P << ',' << Pz << ','
            << m.w_fact << ',' << m.w_red << ',' << tg.panel_saved << ','
            << tg.panel_dense << ',' << tg.panel_saved_msgs << ','
            << tg.zred_saved << '\n';
        f11 << t.name << ',' << cls << ',' << P << ',' << Pz << ','
            << m.mem_total << ',' << m.mem_max << '\n';
      }
    }
    std::cout << "exported " << t.name << "\n";
  }
}

/// One fig12 heatmap CSV per platform preset, `results/fig12_<platform>.csv`,
/// with the per-run link-queueing total alongside GFLOP/s so the
/// Pz-dependent divergence under contention is visible in one file.
/// `fig12_edison.csv` is the flat Edison-like heatmap tools/plot_results.py
/// draws.
void export_fig12(const std::string& dir) {
  const auto suite = paper_test_suite(bench::bench_scale());
  struct Sheet {
    sim::Platform platform;
    std::ofstream file;
  };
  std::vector<Sheet> sheets;
  for (const char* name : {"edison", "fattree-2to1", "torus"}) {
    sheets.push_back({sim::Platform::preset(name),
                      std::ofstream(dir + "/fig12_" + name + ".csv")});
    sheets.back().file
        << "matrix,class,Pxy,Pz,platform,gflops,time_s,link_queue_s\n";
  }
  for (const auto& t : suite) {
    if (t.name != "K2D5pt" && t.name != "nlpkkt3d") continue;
    const SeparatorTree tree = bench::order_matrix(t);
    const BlockStructure bs(t.A, tree);
    const CsrMatrix Ap = t.A.permuted_symmetric(tree.perm());
    const double flops = static_cast<double>(bs.total_flops());
    for (int pz : {1, 2, 4, 8}) {
      for (int pxy : {4, 8, 16, 32}) {
        const auto [Px, Py] = bench::square_ish(pxy);
        for (auto& sheet : sheets) {
          const auto m = bench::run_dist_lu(
              bs, Ap, Px, Py, pz, /*lookahead=*/8, PartitionStrategy::Greedy,
              ZRedPacking::Dense, PanelPacking::Dense, &sheet.platform);
          const double gflops = flops / m.time / 1e9;
          sheet.file << t.name << ','
                     << (t.planar ? "planar" : "nonplanar") << ',' << pxy
                     << ',' << pz << ',' << sheet.platform.name << ','
                     << gflops << ',' << m.time << ',' << m.link_queue_s
                     << '\n';
        }
      }
    }
    std::cout << "exported heatmap " << t.name << " (platforms: edison, "
                 "fattree-2to1, torus)\n";
  }
}

/// Sharded-fleet throughput sweep: the seeded open-loop trace from
/// bench/fleet_common.hpp replayed at shard counts {1, 2, 4, 8}. The CSV
/// is the tracked acceptance artifact for the fleet subsystem — latency
/// percentiles, wall throughput, hit/coalesce/shed rates per shard count.
void export_fleet_throughput(const std::string& dir, std::uint64_t seed) {
  service::ServiceOptions so;
  so.platform = bench::platform();
  so.Px = 2;
  so.Py = 2;
  so.Pz = 2;
  so.refinement_steps = 1;
  // Shard misses run their analysis on the simulated ranks, so the fleet's
  // cold-start bill (the analysis_* columns) is on the simulated clock.
  so.analysis = AnalysisMode::Distributed;
  const bench::FleetTrace trace =
      bench::make_fleet_trace(bench::bench_scale(), seed);
  const bench::FleetFlags flags;  // bench defaults: window x1, depth 16

  std::ofstream f(dir + "/fleet_throughput.csv");
  f << "shards,seed,requests,completed,shed,coalesced,batches,migrations,"
       "p50_s,p90_s,p99_s,wall_s,req_per_s,hit_rate,coalesce_rate,shed_rate,"
       "analyses,analysis_s,analysis_bytes,analysis_msgs\n";
  for (const int shards : {1, 2, 4, 8}) {
    const bench::FleetRunResult r = bench::run_fleet_trace(
        trace, bench::fleet_bench_options(so, trace, flags, shards));
    f << r.shards << ',' << seed << ',' << r.submitted << ',' << r.completed
      << ',' << r.shed << ',' << r.coalesced << ',' << r.batches << ','
      << r.migrations << ',' << r.p50 << ',' << r.p90 << ',' << r.p99 << ','
      << r.wall_s << ',' << r.wall_rps << ',' << r.hit_rate << ','
      << r.coalesce_rate << ',' << r.shed_rate << ',' << r.analyses << ','
      << r.analysis_s << ',' << r.analysis_bytes << ',' << r.analysis_msgs
      << '\n';
    std::cout << "fleet shards=" << r.shards << ": " << r.completed
              << " done, " << r.shed << " shed, p99 " << r.p99 << " sim s\n";
  }
  std::cout << "wrote " << dir << "/fleet_throughput.csv\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool fleet_only = false;
  bool fig12_only = false;
  std::string dir = "results";
  const std::uint64_t seed = slu3d::bench::bench_seed(argc, argv);
  slu3d::bench::bench_platform(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fleet-only") == 0) {
      fleet_only = true;
    } else if (std::strcmp(argv[i], "--fig12-only") == 0) {
      fig12_only = true;
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0 ||
               std::strncmp(argv[i], "--platform=", 11) == 0) {
      // parsed by bench_seed / bench_platform
    } else if (std::strcmp(argv[i], "--seed") == 0 ||
               std::strcmp(argv[i], "--platform") == 0) {
      ++i;  // skip the value
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr,
                   "export_csv: unknown flag '%s'; expected --fleet-only, "
                   "--fig12-only, --seed N, --platform SPEC or an output "
                   "directory\n",
                   argv[i]);
      return 2;
    } else {
      dir = argv[i];
    }
  }
  std::filesystem::create_directories(dir);
  if (fleet_only) {
    export_fleet_throughput(dir, seed);
    return 0;
  }
  if (fig12_only) {
    export_fig12(dir);
    return 0;
  }
  export_fleet_throughput(dir, seed);
  export_fig9_fig10_fig11(dir);
  export_fig12(dir);
  std::cout << "CSV files written to " << dir
            << "; plot with tools/plot_results.py\n";
  return 0;
}
