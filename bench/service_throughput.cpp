// Open-loop load generator for the sharded SolverFleet: one seeded trace
// of Poisson-scheduled mixed traffic (six patterns with a skewed
// popularity mix, values-version bumps, panel widths 1/4/16, eight
// tenants) replayed bit-identically against shard counts {1, 2, 4, 8}.
// The arrival rate is fixed per SLU3D_SCALE at 3x one shard's capacity at
// a frozen reference service time, so no flag moves the offered load: the
// single-shard run saturates its admission queue and sheds while the
// wider fleets absorb the same trace.
//
//   --shards N            pin one shard count (default: sweep 1, 2, 4, 8)
//   --coalesce-window W   batch window, in reference service times
//                         (default 1)
//   --queue-depth N       per-shard admission bound (default 16)
//   --seed N              traffic trace seed (default 2026)
//   --out F               CSV to write (default results/fleet_throughput.csv,
//                         or results/cold_start.csv with --cold-only)
//   --cold-only           skip the traffic replay; sweep the cold-start
//                         (cache-miss) critical path over shards x P x
//                         analysis mode — the acceptance artifact for the
//                         distributed analysis phase
//
// Reports per shard count: simulated latency p50/p90/p99 of completed
// requests, wall-clock throughput, fleet cache hit rate, coalesce rate,
// shed rate, and cache-warm migrations, and writes them with the fleet's
// cold-start analysis bill to the CSV. Shard misses run their analysis
// inside the simulated machine (AnalysisMode::Distributed), so cold
// starts pay their ordering + symbolic cost on the simulated clock.
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "fleet_common.hpp"

namespace {

using namespace slu3d;

/// Opens `path` for writing, creating its parent directories.
std::ofstream open_csv(const std::string& path) {
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  return std::ofstream(path);
}

// Cold-start sweep: every (shards, P, analysis mode) point factors
// `shards` *distinct* patterns cold, one per shard service — the bill a
// fleet pays before any cache hit can exist. The fleet-level cold
// critical path is the slowest shard (they miss concurrently); the
// analysis split columns isolate the phase the Distributed mode moves
// onto the ranks. Host rows keep the legacy behavior (analysis on host
// wall time, zero simulated split) as the reference; the 1x1x1 dist rows
// are the serial in-sim baseline.
void run_cold_sweep(service::ServiceOptions so, const std::string& out) {
  const index_t g = bench::bench_scale() == 0 ? 32 : 40;
  struct GridShape {
    int Px, Py, Pz;
  };
  const GridShape shapes[] = {{1, 1, 1}, {2, 2, 2}, {4, 2, 2}, {4, 4, 4}};
  struct Mode {
    const char* name;
    AnalysisMode mode;
  };
  const Mode modes[] = {{"host", AnalysisMode::Host},
                        {"dist", AnalysisMode::Distributed}};

  so.nd.leaf_size = 8;
  so.nd.algorithm = NdAlgorithm::Multilevel;

  std::ofstream f = open_csv(out);
  f << "shards,P,Px,Py,Pz,mode,n,cold_path_s,t_analysis_s,"
       "w_analysis_bytes,msg_analysis,analysis_frac\n";
  TextTable tab({"shards", "P", "mode", "cold path(sim s)", "t_analysis(s)",
                 "analysis frac"});
  for (const GridShape& gs : shapes) {
    const int P = gs.Px * gs.Py * gs.Pz;
    for (const int shards : {1, 2, 4}) {
      for (const Mode& m : modes) {
        so.Px = gs.Px;
        so.Py = gs.Py;
        so.Pz = gs.Pz;
        so.analysis = m.mode;
        double cold_path = 0, t_analysis = 0;
        offset_t w_analysis = 0, msg_analysis = 0;
        index_t n = 0;
        for (int s = 0; s < shards; ++s) {
          // Distinct pattern per shard, as affinity routing would spread
          // a cold mixed workload.
          const CsrMatrix A = grid2d_laplacian(
              {g + static_cast<index_t>(s), g, 1}, Stencil2D::FivePoint);
          n = A.n_rows();
          service::SolverService svc(so);
          const service::FactorReport fr = svc.factor(A);
          cold_path = std::max(cold_path, fr.factor_time);
          t_analysis = std::max(t_analysis, fr.t_analysis);
          w_analysis = std::max(w_analysis, fr.w_analysis);
          msg_analysis += fr.msg_analysis;
        }
        const double frac = cold_path > 0 ? t_analysis / cold_path : 0;
        f << shards << ',' << P << ',' << gs.Px << ',' << gs.Py << ','
          << gs.Pz << ',' << m.name << ',' << n << ',' << cold_path << ','
          << t_analysis << ',' << w_analysis << ',' << msg_analysis << ','
          << frac << '\n';
        tab.add_row({std::to_string(shards), std::to_string(P), m.name,
                     TextTable::num(cold_path, 6), TextTable::num(t_analysis, 6),
                     TextTable::num(frac, 3)});
      }
    }
  }
  tab.print(std::cout);
  std::cout << "wrote " << out << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace slu3d;

  const int scale = bench::bench_scale();
  bench::bench_platform(argc, argv);
  const std::uint64_t seed = bench::bench_seed(argc, argv);
  const bench::FleetFlags flags = bench::parse_fleet_flags(argc, argv);

  bool cold_only = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cold-only") == 0)
      cold_only = true;
    else if (std::strncmp(argv[i], "--out=", 6) == 0)
      out_path = argv[i] + 6;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
  }
  if (out_path.empty())
    out_path = cold_only ? "results/cold_start.csv"
                         : "results/fleet_throughput.csv";

  service::ServiceOptions so;
  so.platform = bench::platform();
  so.Px = 2;
  so.Py = 2;
  so.Pz = 2;
  so.refinement_steps = 1;
  // Cold misses pay their analysis on the simulated clock, distributed
  // over the shard's ranks — the honest cold-start accounting.
  so.analysis = AnalysisMode::Distributed;

  if (cold_only) {
    run_cold_sweep(so, out_path);
    return 0;
  }

  const bench::FleetTrace trace = bench::make_fleet_trace(scale, seed);

  std::cout << "=== SolverFleet open-loop traffic (seed " << seed << ", "
            << trace.items.size() << " requests, " << trace.patterns
            << " patterns, 8 tenants) ===\n";
  TextTable setup({"metric", "value"});
  setup.add_row({"reference service time (sim s)",
                 TextTable::num(trace.probe_seconds, 6)});
  setup.add_row({"arrival rate (req/sim s)", TextTable::num(trace.rate, 1)});
  setup.add_row({"coalesce window (sim s)",
                 TextTable::num(flags.window_mult * trace.probe_seconds, 6)});
  setup.add_row({"queue depth / shard", std::to_string(flags.queue_depth)});
  setup.print(std::cout);

  std::vector<int> sweep;
  if (flags.shards > 0)
    sweep.push_back(flags.shards);
  else
    sweep = {1, 2, 4, 8};

  std::ofstream f = open_csv(out_path);
  f << "shards,seed,requests,completed,shed,coalesced,batches,migrations,"
       "p50_s,p90_s,p99_s,wall_s,req_per_s,hit_rate,coalesce_rate,shed_rate,"
       "analyses,analysis_s,analysis_bytes,analysis_msgs\n";
  TextTable out({"shards", "done", "shed", "p50(sim s)", "p90(sim s)",
                 "p99(sim s)", "req/s(wall)", "hit", "coalesce", "shed rate",
                 "migr"});
  for (const int shards : sweep) {
    const bench::FleetRunResult r = bench::run_fleet_trace(
        trace, bench::fleet_bench_options(so, trace, flags, shards));
    f << r.shards << ',' << seed << ',' << r.submitted << ',' << r.completed
      << ',' << r.shed << ',' << r.coalesced << ',' << r.batches << ','
      << r.migrations << ',' << r.p50 << ',' << r.p90 << ',' << r.p99 << ','
      << r.wall_s << ',' << r.wall_rps << ',' << r.hit_rate << ','
      << r.coalesce_rate << ',' << r.shed_rate << ',' << r.analyses << ','
      << r.analysis_s << ',' << r.analysis_bytes << ',' << r.analysis_msgs
      << '\n';
    out.add_row({std::to_string(r.shards), std::to_string(r.completed),
                 std::to_string(r.shed), TextTable::num(r.p50, 6),
                 TextTable::num(r.p90, 6), TextTable::num(r.p99, 6),
                 TextTable::num(r.wall_rps, 1), TextTable::num(r.hit_rate, 3),
                 TextTable::num(r.coalesce_rate, 3),
                 TextTable::num(r.shed_rate, 3),
                 std::to_string(r.migrations)});
  }
  out.print(std::cout);
  std::cout << "same seed => same trace: rerun with --shards/--queue-depth/"
               "--coalesce-window to move only the fleet, never the load\n"
            << "wrote " << out_path << "\n";
  return 0;
}
