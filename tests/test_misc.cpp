// Breadth tests for small utilities and invariants not covered by the
// module-focused suites.
#include <gtest/gtest.h>

#include <thread>

#include "simmpi/machine_model.hpp"
#include "simmpi/process_grid.hpp"
#include "simmpi/runtime.hpp"
#include "support/check.hpp"
#include "sparse/generators.hpp"
#include "support/timer.hpp"

namespace slu3d {
namespace {

TEST(GridGeometry, VertexIndexingIsLexicographic) {
  const GridGeometry g{4, 3, 2};
  EXPECT_EQ(g.n(), 24);
  EXPECT_EQ(g.vertex(0, 0, 0), 0);
  EXPECT_EQ(g.vertex(1, 0, 0), 1);
  EXPECT_EQ(g.vertex(0, 1, 0), 4);
  EXPECT_EQ(g.vertex(0, 0, 1), 12);
  EXPECT_EQ(g.vertex(3, 2, 1), 23);
  EXPECT_FALSE(g.planar());
  EXPECT_TRUE((GridGeometry{5, 5, 1}).planar());
}

TEST(MachineModel, CostFunctionsAreLinear) {
  const sim::MachineModel m;
  EXPECT_DOUBLE_EQ(m.message_time(0), m.alpha);
  EXPECT_NEAR(m.message_time(1000) - m.message_time(0), 1000 * m.beta, 1e-18);
  EXPECT_DOUBLE_EQ(m.compute_time(0), 0.0);
  EXPECT_NEAR(m.compute_time(1'000'000), 1e6 * m.gamma, 1e-18);
}

TEST(MachineModel, SimulatedTimeRespectsLowerBounds) {
  // Any run's critical path is at least (total flops on the busiest rank)
  // * gamma and at least one message time when messages were exchanged.
  const sim::MachineModel m;
  const auto res = sim::run_ranks(2, m, [&](sim::Comm& w) {
    w.add_compute(5'000'000, sim::ComputeKind::Other);
    if (w.rank() == 0)
      w.send(1, 1, std::vector<real_t>(100), sim::CommPlane::XY);
    else
      w.recv(0, 1, sim::CommPlane::XY);
  });
  EXPECT_GE(res.max_clock(), m.compute_time(5'000'000) + m.alpha);
}

TEST(RunResult, AggregationHelpers) {
  const sim::MachineModel m;
  const auto res = sim::run_ranks(3, m, [&](sim::Comm& w) {
    if (w.rank() == 0) {
      w.send(1, 1, std::vector<real_t>(10), sim::CommPlane::XY);
      w.send(2, 1, std::vector<real_t>(20), sim::CommPlane::Z);
    } else {
      w.recv(0, 1, w.rank() == 1 ? sim::CommPlane::XY : sim::CommPlane::Z);
    }
  });
  EXPECT_EQ(res.total_bytes_sent(sim::CommPlane::XY), 80);
  EXPECT_EQ(res.total_bytes_sent(sim::CommPlane::Z), 160);
  EXPECT_EQ(res.max_bytes_received(sim::CommPlane::XY), 80);
}

TEST(RankStats, CommSecondsIsClockMinusCompute) {
  const sim::MachineModel m;
  const auto res = sim::run_ranks(2, m, [&](sim::Comm& w) {
    if (w.rank() == 0) {
      w.add_compute(10'000'000, sim::ComputeKind::Other);
      w.send(1, 1, std::vector<real_t>(1), sim::CommPlane::XY);
    } else {
      w.recv(0, 1, sim::CommPlane::XY);  // waits for rank 0's compute
      w.add_compute(1000, sim::ComputeKind::Other);
    }
  });
  const auto& r1 = res.ranks[1];
  EXPECT_NEAR(r1.comm_seconds(), r1.clock - m.compute_time(1000), 1e-15);
  EXPECT_GT(r1.comm_seconds(), m.compute_time(5'000'000));  // mostly waiting
}

TEST(Timer, MeasuresElapsedWallTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = t.seconds();
  EXPECT_GE(s, 0.015);
  t.reset();
  EXPECT_LT(t.seconds(), 0.015);
}

TEST(Comm, RejectsBadPeerRanks) {
  const sim::MachineModel m;
  EXPECT_THROW(sim::run_ranks(2, m,
                              [&](sim::Comm& w) {
                                if (w.rank() == 0)
                                  w.send(7, 1, std::vector<real_t>{1},
                                         sim::CommPlane::XY);
                              }),
               Error);
}

TEST(ProcessGrids, RejectMismatchedSizes) {
  const sim::MachineModel m;
  EXPECT_THROW(sim::run_ranks(6, m,
                              [&](sim::Comm& w) {
                                (void)sim::ProcessGrid2D::create(w, 2, 2);
                              }),
               Error);
  EXPECT_THROW(sim::run_ranks(6, m,
                              [&](sim::Comm& w) {
                                (void)sim::ProcessGrid3D::create(w, 2, 2, 2);
                              }),
               Error);
}

}  // namespace
}  // namespace slu3d
