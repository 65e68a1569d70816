// Shared harness for the per-table / per-figure benchmark binaries. Each
// experiment runs the *distributed algorithms for real* inside the simmpi
// runtime and reports:
//   time    — simulated critical-path seconds (max logical clock),
//   t_scu   — Schur-complement compute seconds on the critical-path rank,
//   t_comm  — non-overlapped communication + synchronization on that rank,
//   w_fact  — max per-rank bytes received in the XY plane (paper W_fact),
//   w_red   — max per-rank bytes received along Z (paper W_red),
//   memory  — numeric block bytes, total and max per rank.
#pragma once

#include <array>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "lu3d/factor3d.hpp"
#include "order/nested_dissection.hpp"
#include "sparse/generators.hpp"
#include "support/table.hpp"

namespace slu3d::bench {

struct DistMetrics {
  double time = 0;
  double t_scu = 0;
  double t_comm = 0;
  offset_t w_fact = 0;
  offset_t w_red = 0;
  offset_t mem_total = 0;
  offset_t mem_max = 0;
  /// Bytes and messages received, summed over all ranks, per plane
  /// (indexed by sim::CommPlane). A Dense run minus a Targeted run of the
  /// same point is the traffic the Targeted wire eliminates.
  std::array<offset_t, sim::kNumPlanes> bytes_received{};
  std::array<offset_t, sim::kNumPlanes> messages_received{};
  /// Total seconds transfers spent queued behind busy platform links
  /// (zero means the run never contended for a wire; grows with shared
  /// uplinks on hierarchical platforms).
  double link_queue_s = 0;
  /// Host wall-clock seconds of the whole run_ranks call. Unlike every
  /// simulated counter above, wall_s measures the real machine.
  double wall_s = 0;
};

/// Parses `--seed N` / `--seed=N` from argv. One seed drives the whole
/// traffic trace of the fleet bench: arrivals, pattern mix, values-version
/// bumps, panel widths, and right-hand sides all derive from it, so a
/// `--shards` sweep replays the identical workload per configuration. The
/// documented default is 2026.
inline std::uint64_t bench_seed(int argc, char** argv,
                                std::uint64_t def = 2026) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--seed=", 7) == 0)
      def = std::strtoull(a + 7, nullptr, 10);
    else if (std::strcmp(a, "--seed") == 0 && i + 1 < argc)
      def = std::strtoull(argv[++i], nullptr, 10);
  }
  return def;
}

/// Fleet load-generator knobs: `--shards N` pins one shard count (0 keeps
/// the default {1, 2, 4, 8} sweep), `--coalesce-window W` sets the batch
/// window in units of the reference request service time (simulated
/// seconds vary with the machine model, service times don't lie about
/// ratios), and `--queue-depth N` bounds each shard's admission queue.
struct FleetFlags {
  int shards = 0;
  double window_mult = 1.0;
  std::size_t queue_depth = 16;
};

inline FleetFlags parse_fleet_flags(int argc, char** argv) {
  FleetFlags f;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--shards=", 9) == 0)
      f.shards = std::atoi(a + 9);
    else if (std::strcmp(a, "--shards") == 0 && i + 1 < argc)
      f.shards = std::atoi(argv[++i]);
    else if (std::strncmp(a, "--coalesce-window=", 18) == 0)
      f.window_mult = std::atof(a + 18);
    else if (std::strcmp(a, "--coalesce-window") == 0 && i + 1 < argc)
      f.window_mult = std::atof(argv[++i]);
    else if (std::strncmp(a, "--queue-depth=", 14) == 0)
      f.queue_depth = static_cast<std::size_t>(std::atoi(a + 14));
    else if (std::strcmp(a, "--queue-depth") == 0 && i + 1 < argc)
      f.queue_depth = static_cast<std::size_t>(std::atoi(argv[++i]));
  }
  return f;
}

/// The ambient platform every bench charges against. Defaults to the
/// Edison-like flat preset (the historical hardcoded machine model);
/// `bench_platform(argc, argv)` swaps it for whatever `--platform` names.
/// Mutable process-global on purpose: the bench mains are single-threaded
/// at flag-parse time, and threading a platform through every helper
/// signature would churn all drivers for no isolation benefit.
inline sim::Platform& platform_storage() {
  static sim::Platform p = sim::Platform::preset("edison");
  return p;
}

inline const sim::Platform& platform() { return platform_storage(); }

/// Parses `--platform SPEC` / `--platform=SPEC` (a preset name — edison |
/// flat | fattree-2to1 | torus — or a path to a platform file), installs
/// it as the ambient bench platform, and returns it. Every driver calls
/// this from main(), so one flag spelling works across the whole bench/
/// directory; no flag keeps the Edison-like default.
inline const sim::Platform& bench_platform(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const char* spec = nullptr;
    if (std::strncmp(a, "--platform=", 11) == 0)
      spec = a + 11;
    else if (std::strcmp(a, "--platform") == 0 && i + 1 < argc)
      spec = argv[++i];
    if (spec) platform_storage() = sim::Platform::load(spec);
  }
  return platform();
}

/// Runs the 3D algorithm (Pz == 1 gives exactly the 2D baseline schedule)
/// on a Px x Py x Pz grid and collects the metrics above. Charges against
/// `platform` when given, else the ambient bench platform.
inline DistMetrics run_dist_lu(const BlockStructure& bs, const CsrMatrix& Ap,
                               int Px, int Py, int Pz,
                               const LuOptions& options = {},
                               PartitionStrategy strategy = PartitionStrategy::Greedy,
                               const sim::Platform* platform = nullptr) {
  const ForestPartition part(bs, Pz, strategy);
  const int P = Px * Py * Pz;
  std::vector<offset_t> mem(static_cast<std::size_t>(P), 0);
  const auto wall0 = std::chrono::steady_clock::now();
  const sim::RunResult res = sim::run_ranks(
      P, platform != nullptr ? *platform : bench::platform(),
      [&](sim::Comm& world) {
        auto grid = sim::ProcessGrid3D::create(world, Px, Py, Pz);
        Dist2dFactors F = make_3d_factors(bs, grid, part, Ap);
        mem[static_cast<std::size_t>(world.rank())] = F.allocated_bytes();
        factorize_3d(F, grid, part, options);
      });
  const auto wall1 = std::chrono::steady_clock::now();

  DistMetrics m;
  m.wall_s = std::chrono::duration<double>(wall1 - wall0).count();
  m.time = res.max_clock();
  const sim::RankStats& crit = res.critical();
  m.t_scu = crit.compute_seconds[static_cast<int>(sim::ComputeKind::SchurUpdate)];
  m.t_comm = crit.comm_seconds();
  m.w_fact = res.max_bytes_received(sim::CommPlane::XY);
  m.w_red = res.max_bytes_received(sim::CommPlane::Z);
  for (const sim::RankStats& r : res.ranks)
    for (std::size_t pl = 0; pl < sim::kNumPlanes; ++pl) {
      m.bytes_received[pl] += r.bytes_received[pl];
      m.messages_received[pl] += r.messages_received[pl];
    }
  m.link_queue_s = res.total_link_queue_seconds();
  for (offset_t b : mem) {
    m.mem_total += b;
    m.mem_max = std::max(m.mem_max, b);
  }
  return m;
}

/// Ordering used everywhere: exact geometric ND when the generator left a
/// grid geometry, general BFS dissection otherwise.
inline SeparatorTree order_matrix(const TestMatrix& t, index_t leaf_size = 32) {
  if (t.geom.nx > 0 && t.geom.n() == t.A.n_rows())
    return geometric_nd(t.geom, {.leaf_size = leaf_size});
  return nested_dissection(t.A, {.leaf_size = leaf_size});
}

/// Benchmark problem scale: 0 (tiny) to 2 (large), from SLU3D_SCALE.
inline int bench_scale() {
  if (const char* s = std::getenv("SLU3D_SCALE")) return std::atoi(s);
  return 1;
}

/// Splits P into the most balanced Px x Py with Px <= Py.
inline std::pair<int, int> square_ish(int P) {
  int best = 1;
  for (int d = 1; d * d <= P; ++d)
    if (P % d == 0) best = d;
  return {best, P / best};
}

/// One process grid of the Fig. 9 sweep.
struct GridShape {
  int P, Pz, Px, Py;
};

/// The Fig. 9 sweep's grids: P in {16, 64, 128}, each P_z in {1, ..., 16}
/// dividing P, square-ish planes.
inline std::vector<GridShape> fig9_shapes() {
  std::vector<GridShape> out;
  for (int P : {16, 64, 128})
    for (int Pz : {1, 2, 4, 8, 16}) {
      if (P % Pz != 0) continue;
      const auto [Px, Py] = square_ish(P / Pz);
      out.push_back({P, Pz, Px, Py});
    }
  return out;
}

}  // namespace slu3d::bench
