// The distributed-analysis contract (src/analysis/): the analysis run
// inside the simulated machine must be *bitwise* interchangeable with the
// host path.
//
//  * DistAnalysisSweep.*: oracle equality. analyze_host is the oracle; the
//    in-sim analysis must reproduce its permutation, separator tree, and
//    BlockStructure exactly, on every rank, swept over the fig9/fig10
//    problem classes x grid shapes {1x1x1, 2x2x1, 2x2x2, 4x2x2} x both ND
//    variants.
//  * DistAnalysisFuzz.*: randomized graphs (>= 12 seeds), asserting the
//    full pipeline (analysis -> 3D factorization -> 3D solve) from the
//    in-sim analysis yields bitwise-equal factors end-to-end — equal
//    symbolic flops, equal factor bytes, and a bitwise-equal solution
//    panel — vs. the host-analysis run.
//  * DistAnalysisColdStart.*: the regression pin for the cold-start
//    critical path. At P = 64 the analysis must beat the serial baseline
//    (the same analysis on a 1x1x1 grid) measurably in simulated seconds,
//    and warm cache hits must run no analysis at all.
//  * The ParallelNdRanks tie-break pin rides in DistAnalysis.NdTieBreak*:
//    sequential and parallel ND agree on the *whole* tree (not just the
//    top separator), which is what makes the oracle equality possible.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <vector>

#include "analysis/dist_analysis.hpp"
#include "order/parallel_nd.hpp"
#include "service/solver_service.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"

namespace slu3d {
namespace {

using sim::MachineModel;
using sim::run_ranks;

const MachineModel kModel{};

// Connected random graph: a Hamiltonian path plus `extra` random chords,
// diagonally dominant so downstream LU is stable without pivot growth.
CsrMatrix random_graph(index_t n, index_t extra, std::uint64_t seed) {
  Rng rng(seed);
  CooMatrix coo(n, n);
  for (index_t i = 0; i + 1 < n; ++i) {
    coo.add(i, i + 1, -1.0);
    coo.add(i + 1, i, -1.0);
  }
  for (index_t e = 0; e < extra; ++e) {
    const auto a = static_cast<index_t>(rng.next_index(n));
    const auto b = static_cast<index_t>(rng.next_index(n));
    if (a == b) continue;
    coo.add(a, b, -1.0);
    coo.add(b, a, -1.0);
  }
  for (index_t i = 0; i < n; ++i) coo.add(i, i, 8.0);
  return CsrMatrix::from_coo(coo);
}

bool same_tree(const SeparatorTree& a, const SeparatorTree& b) {
  if (a.n_nodes() != b.n_nodes() || a.root() != b.root()) return false;
  if (!std::equal(a.perm().begin(), a.perm().end(), b.perm().begin(),
                  b.perm().end()))
    return false;
  for (int i = 0; i < a.n_nodes(); ++i) {
    const auto &x = a.node(i), &y = b.node(i);
    if (x.subtree_first != y.subtree_first || x.sep_first != y.sep_first ||
        x.sep_last != y.sep_last || x.left != y.left || x.right != y.right ||
        x.parent != y.parent)
      return false;
  }
  return true;
}

bool same_bs(const BlockStructure& a, const BlockStructure& b) {
  if (a.n_snodes() != b.n_snodes() || a.n() != b.n()) return false;
  if (a.total_flops() != b.total_flops() || a.total_nnz() != b.total_nnz())
    return false;
  for (int s = 0; s < a.n_snodes(); ++s) {
    if (a.first_col(s) != b.first_col(s) || a.nd_parent(s) != b.nd_parent(s) ||
        a.panel_rows(s) != b.panel_rows(s) ||
        a.snode_flops(s) != b.snode_flops(s))
      return false;
    const auto pa = a.lpanel(s), pb = b.lpanel(s);
    if (pa.size() != pb.size()) return false;
    for (std::size_t k = 0; k < pa.size(); ++k)
      if (pa[k].snode != pb[k].snode || pa[k].rows != pb[k].rows) return false;
  }
  return true;
}

// One sweep point: a fig9/fig10 problem class at one simulated grid shape.
struct SweepCase {
  const char* cls;
  int Px, Py, Pz;
};

/// gtest's default printer dumps the raw bytes of the case, `cls` pointer
/// included, into the listed test names, so they would change from run to
/// run under address-space randomisation.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << c.cls << ' ' << c.Px << 'x' << c.Py << 'x' << c.Pz;
}

CsrMatrix make_class(const std::string& cls) {
  // The paper's problem families: K2D5pt-class planar grid (fig9/fig10
  // planar), Serena-class 3D grid (fig9/fig10 nonplanar), G3_circuit-class
  // irregular, and nlpkkt-class saddle point.
  if (cls == "planar") return grid2d_laplacian({14, 13, 1}, Stencil2D::FivePoint);
  if (cls == "grid3d") return grid3d_laplacian({7, 6, 5}, Stencil3D::SevenPoint);
  if (cls == "circuit") return circuit2d({12, 12, 1}, 30, 42);
  return kkt3d({5, 4, 3}, 7);
}

class DistAnalysisSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(DistAnalysisSweep, InSimMatchesHostOracleBitwise) {
  const SweepCase c = GetParam();
  const CsrMatrix A = make_class(c.cls);
  const int P = c.Px * c.Py * c.Pz;
  for (const NdAlgorithm alg :
       {NdAlgorithm::LevelSet, NdAlgorithm::Multilevel}) {
    const NdOptions opts{.leaf_size = 8, .algorithm = alg};
    const AnalysisResult oracle = analyze_host(A, opts);
    std::vector<int> ok(static_cast<std::size_t>(P), -1);
    const auto res = run_ranks(P, kModel, [&](sim::Comm& world) {
      const AnalysisResult r =
          analyze_in_sim(A, world, opts, AnalysisMode::Distributed);
      const bool good =
          same_tree(*oracle.tree, *r.tree) && same_bs(*oracle.bs, *r.bs);
      ok[static_cast<std::size_t>(world.rank())] = good ? 1 : 0;
    });
    for (int r = 0; r < P; ++r)
      EXPECT_EQ(ok[static_cast<std::size_t>(r)], 1)
          << c.cls << " alg=" << static_cast<int>(alg) << " P=" << P
          << " rank=" << r;
    // The phase must have been charged to the simulated clock.
    EXPECT_GT(res.max_analysis_seconds(), 0);
    if (P > 1) {
      EXPECT_GT(res.total_analysis_messages_sent(), 0);
    }
  }
}

const SweepCase kSweep[] = {
    {"planar", 1, 1, 1},  {"planar", 2, 2, 1},  {"planar", 2, 2, 2},
    {"planar", 4, 2, 2},  {"grid3d", 1, 1, 1},  {"grid3d", 2, 2, 1},
    {"grid3d", 2, 2, 2},  {"grid3d", 4, 2, 2},  {"circuit", 1, 1, 1},
    {"circuit", 2, 2, 1}, {"circuit", 2, 2, 2}, {"circuit", 4, 2, 2},
    {"kkt3d", 1, 1, 1},   {"kkt3d", 2, 2, 1},   {"kkt3d", 2, 2, 2},
    {"kkt3d", 4, 2, 2},
};

INSTANTIATE_TEST_SUITE_P(Fig9Fig10Classes, DistAnalysisSweep,
                         ::testing::ValuesIn(kSweep),
                         [](const auto& param_info) {
                           const SweepCase& c = param_info.param;
                           return std::string(c.cls) + "_" +
                                  std::to_string(c.Px) + "x" +
                                  std::to_string(c.Py) + "x" +
                                  std::to_string(c.Pz);
                         });

// SnodeWidthCap: a separator wider than kMaxSnodeWidth becomes a chain of
// supernodes, and the in-sim analysis must give every piece to the rank
// that owns the separator. The 12x12x12 grid's widest separator under the
// default NdOptions is wider than the cap, so its chain has two or more
// pieces, and the in-sim structures must still equal the host oracle's.
// The same holds at the relaxed leaf of 64 that 16- and 64-rank services
// pick, where the grid still dissects into internal nodes.
TEST(SnodeWidthCap, ChainsMatchHostOracle) {
  const CsrMatrix A = grid3d_laplacian({12, 12, 12}, Stencil3D::SevenPoint);
  struct Case {
    NdOptions opts;
    std::vector<int> ranks;
  };
  // The default leaf at the rank counts of the 1x1x1, 2x2x1, 2x2x2 and
  // 4x2x2 grids; leaf 64 at those of the 4x4x1 and 4x4x4 grids.
  const Case cases[] = {{{}, {1, 4, 8, 16}}, {{.leaf_size = 64}, {16, 64}}};
  for (const Case& c : cases) {
    const AnalysisResult oracle = analyze_host(A, c.opts);
    index_t widest = 0;
    int internal = 0;
    for (const SepTreeNode& nd : oracle.tree->nodes()) {
      widest = std::max(widest, nd.block_size());
      internal += nd.is_leaf() ? 0 : 1;
    }
    ASSERT_GT(widest, kMaxSnodeWidth);
    ASSERT_GT(oracle.bs->n_snodes(), oracle.tree->n_nodes());
    ASSERT_GT(internal, 1);
    for (const int P : c.ranks) {
      std::vector<int> ok(static_cast<std::size_t>(P), -1);
      run_ranks(P, kModel, [&](sim::Comm& world) {
        const AnalysisResult r =
            analyze_in_sim(A, world, c.opts, AnalysisMode::Distributed);
        ok[static_cast<std::size_t>(world.rank())] =
            same_tree(*oracle.tree, *r.tree) && same_bs(*oracle.bs, *r.bs);
      });
      for (int r = 0; r < P; ++r)
        EXPECT_EQ(ok[static_cast<std::size_t>(r)], 1)
            << "leaf=" << c.opts.leaf_size.value_or(0) << " P=" << P
            << " rank=" << r;
    }
  }
}

// Full-tree tie-break pin: sequential and parallel ND must agree on the
// ENTIRE tree, bitwise, on irregular graphs full of equal-degree /
// equal-gain ties — the property the distributed analysis' oracle equality
// rests on. (MatchesSerialTopSeparatorChoice in test_parallel_nd only
// checks the root separator.)
TEST(DistAnalysis, NdTieBreakFullTreeMatchesSerial) {
  const CsrMatrix A = circuit2d({13, 11, 1}, 40, 9);
  for (const NdAlgorithm alg :
       {NdAlgorithm::LevelSet, NdAlgorithm::Multilevel}) {
    const NdOptions opts{.leaf_size = 8, .algorithm = alg};
    const SeparatorTree serial = nested_dissection(A, opts);
    for (int P : {2, 4, 8}) {
      std::vector<int> ok(static_cast<std::size_t>(P), -1);
      run_ranks(P, kModel, [&](sim::Comm& world) {
        const SeparatorTree par = parallel_nested_dissection(A, world, opts);
        ok[static_cast<std::size_t>(world.rank())] =
            same_tree(serial, par) ? 1 : 0;
      });
      for (int r = 0; r < P; ++r)
        EXPECT_EQ(ok[static_cast<std::size_t>(r)], 1)
            << "alg=" << static_cast<int>(alg) << " P=" << P << " rank=" << r;
    }
  }
}

// Only analyze_in_sim adds to the analysis split: a run whose traffic all
// happens outside it reports a zero split. analyze_in_sim refuses
// AnalysisMode::Host before it reads the rank's counters.
TEST(DistAnalysis, NoPhaseMeansZeroAnalysisSplit) {
  const CsrMatrix A = grid2d_laplacian({6, 5, 1}, Stencil2D::FivePoint);
  const auto res = run_ranks(4, kModel, [&](sim::Comm& world) {
    const std::vector<real_t> payload(32, 1.0);
    const int peer = world.rank() ^ 1;
    world.send(peer, 7, payload, sim::CommPlane::XY);
    (void)world.recv(peer, 7, sim::CommPlane::XY);
    world.barrier(9, sim::CommPlane::XY);
    EXPECT_THROW(analyze_in_sim(A, world, {}, AnalysisMode::Host), Error);
  });
  EXPECT_EQ(res.max_analysis_seconds(), 0);
  EXPECT_EQ(res.max_analysis_bytes_received(), 0);
  EXPECT_EQ(res.total_analysis_messages_sent(), 0);
}

// >= 12 random graphs: the full pipeline from the distributed analysis
// must equal the host-analysis pipeline bitwise — same symbolic flops,
// same factor memory, the same refactorization traffic and clock, and a
// bitwise-identical solution panel. The numeric phase is deterministic,
// so any deviation here is the analysis producing a different structure.
// The traffic is compared on the cache-hit refactorization: a cache-miss
// report folds the in-sim analysis run's receipts into w_fact / w_red,
// and on graphs this small the analysis run can receive more.
TEST(DistAnalysisFuzz, RandomGraphsFactorBitwiseEqualEndToEnd) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const index_t n = 120 + static_cast<index_t>(seed) * 7;
    const CsrMatrix A =
        random_graph(n, n + static_cast<index_t>(seed) * 11, 5000 + seed);
    const auto un = static_cast<std::size_t>(n);
    Rng rng(77 + seed);
    std::vector<real_t> xref(un), b(un);
    for (auto& v : xref) v = rng.uniform(-1, 1);
    A.spmv(xref, b);

    service::ServiceOptions opt;
    opt.Px = 2;
    opt.Py = 2;
    opt.Pz = 2;
    opt.nd.leaf_size = 8;
    opt.nd.algorithm = NdAlgorithm::Multilevel;
    opt.refinement_steps = 0;

    std::vector<real_t> x_host(un), x_dist(un);
    opt.analysis = AnalysisMode::Host;
    service::SolverService host(opt);
    const auto rep_host = host.factor(A);
    const auto solve_host = host.solve({b, x_host, 1});
    opt.analysis = AnalysisMode::Distributed;
    service::SolverService dist(opt);
    const auto rep_dist = dist.factor(A);
    dist.solve({b, x_dist, 1});

    EXPECT_LT(solve_host.residual, 1e-12) << "seed=" << seed;
    EXPECT_EQ(rep_host.flops, rep_dist.flops) << "seed=" << seed;
    EXPECT_EQ(rep_host.mem_total, rep_dist.mem_total) << "seed=" << seed;
    EXPECT_EQ(rep_host.mem_max, rep_dist.mem_max) << "seed=" << seed;
    const auto hit_host = host.factor(A);
    const auto hit_dist = dist.factor(A);
    ASSERT_TRUE(hit_host.cache_hit && hit_dist.cache_hit) << "seed=" << seed;
    EXPECT_EQ(hit_host.w_fact, hit_dist.w_fact) << "seed=" << seed;
    EXPECT_EQ(hit_host.w_red, hit_dist.w_red) << "seed=" << seed;
    EXPECT_EQ(hit_host.factor_time, hit_dist.factor_time) << "seed=" << seed;
    for (std::size_t i = 0; i < un; ++i)
      ASSERT_EQ(x_host[i], x_dist[i]) << "seed=" << seed << " i=" << i;
    // Only the in-sim run carries an analysis split.
    EXPECT_EQ(rep_host.t_analysis, 0) << "seed=" << seed;
    EXPECT_GT(rep_dist.t_analysis, 0) << "seed=" << seed;
    EXPECT_GT(rep_dist.msg_analysis, 0) << "seed=" << seed;
  }
}

// Cold-start regression pin at P = 64: putting the analysis on the ranks
// subtree-parallel must beat the serial baseline — the same analysis on a
// 1x1x1 grid, which does all of its work on one rank — on the simulated
// clock. Measured headroom is ~2.5x (4x4x4/1x1x1 analysis ratio ~0.40 on
// this problem), so the 0.7x pin has slack without being vacuous. Warm
// hits skip analysis entirely.
TEST(DistAnalysisColdStart, DistributedBeatsSequentialBaselineAtP64) {
  const CsrMatrix A = grid2d_laplacian({40, 40, 1}, Stencil2D::FivePoint);

  auto make_opts = [&](int Px, int Py, int Pz) {
    service::ServiceOptions o;
    o.Px = Px;
    o.Py = Py;
    o.Pz = Pz;
    o.nd.leaf_size = 8;
    o.nd.algorithm = NdAlgorithm::Multilevel;
    o.analysis = AnalysisMode::Distributed;
    return o;
  };

  service::SolverService seq(make_opts(1, 1, 1));
  service::SolverService dist(make_opts(4, 4, 4));

  const service::FactorReport cold_seq = seq.factor(A);
  const service::FactorReport cold_dist = dist.factor(A);

  ASSERT_FALSE(cold_seq.cache_hit);
  ASSERT_FALSE(cold_dist.cache_hit);
  ASSERT_GT(cold_seq.t_analysis, 0);
  ASSERT_GT(cold_dist.t_analysis, 0);
  // Identical structure either way — the rank count only moves where the
  // analysis runs, never what it produces.
  EXPECT_EQ(cold_seq.flops, cold_dist.flops);

  // The pin: the distributed analysis phase is measurably faster.
  EXPECT_LT(cold_dist.t_analysis, 0.7 * cold_seq.t_analysis);
  // The split is consistent: analysis time is part of factor_time.
  EXPECT_LE(cold_dist.t_analysis, cold_dist.factor_time);
  EXPECT_LE(cold_seq.t_analysis, cold_seq.factor_time);

  // Warm hits are unaffected: no analysis runs and no analysis split is
  // reported.
  const service::FactorReport warm_dist = dist.factor(A);
  EXPECT_TRUE(warm_dist.cache_hit);
  EXPECT_EQ(warm_dist.t_analysis, 0);
  EXPECT_EQ(warm_dist.w_analysis, 0);
  EXPECT_EQ(dist.stats().analyses, 1);
}

}  // namespace
}  // namespace slu3d
