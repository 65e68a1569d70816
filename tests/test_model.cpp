#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "lu2d/factor2d.hpp"
#include "model/cost_model.hpp"
#include "numeric/dense_kernels.hpp"
#include "order/nested_dissection.hpp"
#include "sparse/generators.hpp"
#include "support/check.hpp"

namespace slu3d::model {
namespace {

constexpr double kN = 1e6;
constexpr double kP = 1024;

TEST(PlanarModel, MatchesClosedFormsAtReference) {
  const auto c2 = planar_2d_alg(kN, kP);
  EXPECT_NEAR(c2.memory_words, kN / kP * std::log2(kN), 1e-6);
  EXPECT_NEAR(c2.comm_words, kN * std::log2(kN) / std::sqrt(kP), 1e-3);
  EXPECT_DOUBLE_EQ(c2.latency_msgs, kN);
}

TEST(PlanarModel, OptimalPzIsHalfLogN) {
  EXPECT_NEAR(planar_optimal_pz(kN), 0.5 * std::log2(kN), 1e-12);
  // Eq. (8): the optimum really minimizes the xy-communication term
  // f(Pz) = 2 sqrt(Pz) + log n / sqrt(Pz).
  const double opt = planar_optimal_pz(kN);
  auto f = [&](double pz) { return 2 * std::sqrt(pz) + std::log2(kN) / std::sqrt(pz); };
  EXPECT_LT(f(opt), f(opt * 1.3));
  EXPECT_LT(f(opt), f(opt / 1.3));
}

TEST(PlanarModel, ThreeDBeatsTwoDInCommAndLatency) {
  const auto c2 = planar_2d_alg(kN, kP);
  const auto c3 = planar_3d_alg(kN, kP, planar_optimal_pz(kN));
  EXPECT_LT(c3.comm_words, c2.comm_words);
  EXPECT_LT(c3.latency_msgs, c2.latency_msgs / 5.0);  // ~ log n factor
  // Memory grows only by a constant factor (paper §I).
  EXPECT_LT(c3.memory_words, 4.0 * c2.memory_words);
  EXPECT_GT(c3.memory_words, c2.memory_words);
}

TEST(PlanarModel, CommReductionGrowsWithN) {
  // W2d / W3d ~ sqrt(log n): monotone in n.
  auto ratio = [](double n) {
    return planar_2d_alg(n, kP).comm_words /
           planar_3d_alg(n, kP, planar_optimal_pz(n)).comm_words;
  };
  EXPECT_GT(ratio(1e6), ratio(1e4));
  EXPECT_GT(ratio(1e8), ratio(1e6));
}

TEST(NonplanarModel, BestCaseCommReductionNearPaper) {
  const NonplanarConstants k{};
  const double pz = nonplanar_optimal_pz(k);
  const double w2 = nonplanar_2d_alg(kN, kP).comm_words;
  const double w3 = nonplanar_3d_alg(kN, kP, pz, k).comm_words;
  EXPECT_NEAR(w2 / w3, 2.89, 0.15);  // paper: 2.89x
}

TEST(NonplanarModel, OptimalPzIsStationary) {
  const NonplanarConstants k{};
  const double pz = nonplanar_optimal_pz(k);
  auto f = [&](double z) {
    return k.kappa1 * std::sqrt(z) + (1 - k.kappa1) / std::pow(z, 4.0 / 3.0);
  };
  EXPECT_LT(f(pz), f(pz * 1.2));
  EXPECT_LT(f(pz), f(pz / 1.2));
}

TEST(NonplanarModel, LatencyDropsAsPzGrows) {
  const auto c1 = nonplanar_3d_alg(kN, kP, 1);
  const auto c8 = nonplanar_3d_alg(kN, kP, 8);
  EXPECT_LT(c8.latency_msgs, c1.latency_msgs);
  // Memory grows with Pz (large top separators).
  EXPECT_GT(c8.memory_words, c1.memory_words);
}

TEST(Model, FlopCounts) {
  EXPECT_DOUBLE_EQ(planar_flops(1e6), 1e9);
  EXPECT_DOUBLE_EQ(nonplanar_flops(1e6), 1e12);
}

TEST(Model, PredictedSecondsCombinesTerms) {
  const sim::MachineModel m;
  const CostEstimate c{/*memory=*/0, /*comm=*/1e6, /*latency=*/1e3};
  const double t = predicted_seconds(m, /*flops=*/1e9, /*P=*/100, c);
  EXPECT_NEAR(t,
              m.gamma * 1e7 + m.beta * 1e6 * sizeof(real_t) + m.alpha * 1e3,
              1e-12);
}

TEST(Model, RejectsBadArguments) {
  EXPECT_THROW(planar_2d_alg(0.5, 4), slu3d::Error);
  EXPECT_THROW(planar_3d_alg(kN, 4, 8), slu3d::Error);  // Pz > P
}

// ---- flop accounting audit ----------------------------------------------
// The simulator's logical clocks are only meaningful if the flops charged
// via add_compute equal the flops the dense kernels actually perform. Every
// public kernel self-reports its canonical model count to a thread-local
// counter (see dense_kernels.hpp); since each simulated rank is its own
// thread, charged == performed must hold exactly per rank.

namespace {

offset_t charged_factorization_flops(const sim::RankStats& st) {
  using sim::ComputeKind;
  return st.flops[static_cast<std::size_t>(ComputeKind::DiagFactor)] +
         st.flops[static_cast<std::size_t>(ComputeKind::PanelSolve)] +
         st.flops[static_cast<std::size_t>(ComputeKind::SchurUpdate)];
}

}  // namespace

TEST(FlopAccounting, Lu2dChargesExactlyWhatKernelsPerform) {
  const GridGeometry g{8, 8, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = nested_dissection(A, {.leaf_size = 8});
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());

  sim::run_ranks(1, sim::MachineModel{}, [&](sim::Comm& world) {
    auto grid = sim::ProcessGrid2D::create(world, 1, 1);
    Dist2dFactors F(bs, 1, 1, 0, 0);
    F.fill_from(Ap);
    std::vector<int> all(static_cast<std::size_t>(bs.n_snodes()));
    std::iota(all.begin(), all.end(), 0);
    dense::reset_flops_performed();
    factorize_2d(F, grid, all, {});
    EXPECT_EQ(charged_factorization_flops(world.stats()),
              dense::flops_performed());
    EXPECT_GT(dense::flops_performed(), 0);
  });
}

}  // namespace
}  // namespace slu3d::model
