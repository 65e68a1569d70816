#include <gtest/gtest.h>

#include <mutex>

#include "dense25d/dense_lu25d.hpp"
#include "numeric/dense_kernels.hpp"
#include "support/rng.hpp"

namespace slu3d {
namespace {

using sim::CommPlane;
using sim::MachineModel;
using sim::ProcessGrid3D;
using sim::run_ranks;

const MachineModel kModel{};

std::vector<real_t> random_dominant_dense(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<real_t> a(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (index_t i = 0; i < n; ++i)
    a[static_cast<std::size_t>(i) * static_cast<std::size_t>(n + 1)] +=
        static_cast<real_t>(n);
  return a;
}

/// Runs 2.5D LU on a p x p x c grid and compares the gathered packed LU
/// against the sequential dense reference.
void check_25d(index_t n, index_t block, int p, int c) {
  auto a0 = random_dominant_dense(n, 19);
  auto ref = a0;
  dense::getrf_nopiv(n, ref.data(), n);

  Dense25dOptions opt;
  opt.block = block;
  std::vector<real_t> gathered;
  std::mutex mu;
  run_ranks(p * p * c, kModel, [&](sim::Comm& world) {
    auto grid = ProcessGrid3D::create(world, p, p, c);
    Dense25dMatrix A(n, opt, p, grid.plane().px(), grid.plane().py());
    if (grid.pz() == 0) A.fill_from(a0);  // other layers start at zero
    dense_lu_25d(A, world, grid);
    auto full = gather_dense_25d(A, world, grid);
    if (full.has_value()) {
      const std::lock_guard<std::mutex> lock(mu);
      gathered = std::move(*full);
    }
  });

  ASSERT_EQ(gathered.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_NEAR(gathered[i], ref[i], 1e-9)
        << "entry " << i << " p=" << p << " c=" << c;
}

struct Case {
  index_t n, block;
  int p, c;
};

class Dense25dGrids : public ::testing::TestWithParam<Case> {};

TEST_P(Dense25dGrids, MatchesSequentialDenseLU) {
  const auto [n, block, p, c] = GetParam();
  check_25d(n, block, p, c);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Dense25dGrids,
    ::testing::Values(Case{64, 16, 1, 1}, Case{64, 16, 2, 1},
                      Case{64, 16, 2, 2}, Case{64, 8, 2, 4},
                      Case{96, 16, 3, 2}, Case{64, 16, 1, 4},
                      Case{80, 16, 2, 3}),
    [](const auto& pi) {
      std::string name = "n";
      name += std::to_string(pi.param.n);
      name += 'b';
      name += std::to_string(pi.param.block);
      name += 'p';
      name += std::to_string(pi.param.p);
      name += 'c';
      name += std::to_string(pi.param.c);
      return name;
    });

TEST(Dense25d, ExtraLayersCutPlaneTraffic) {
  // The 2.5D claim: per-process XY (panel broadcast) volume drops as c
  // grows at fixed P, paid for with z-reduction traffic and memory.
  const index_t n = 96, b = 8;
  auto a0 = random_dominant_dense(n, 23);
  auto run = [&](int p, int c) {
    Dense25dOptions opt;
    opt.block = b;
    return run_ranks(p * p * c, kModel, [&](sim::Comm& world) {
      auto grid = ProcessGrid3D::create(world, p, p, c);
      Dense25dMatrix A(n, opt, p, grid.plane().px(), grid.plane().py());
      if (grid.pz() == 0) A.fill_from(a0);
      dense_lu_25d(A, world, grid);
    });
  };
  const auto r1 = run(4, 1);   // P = 16, c = 1 (2D)
  const auto r4 = run(2, 4);   // P = 16, c = 4
  EXPECT_EQ(r1.max_bytes_received(CommPlane::Z), 0);
  EXPECT_GT(r4.max_bytes_received(CommPlane::Z), 0);
  EXPECT_LT(r4.max_bytes_received(CommPlane::XY),
            r1.max_bytes_received(CommPlane::XY));
}

TEST(Dense25d, RejectsMisalignedBlockSize) {
  Dense25dOptions opt;
  opt.block = 10;
  EXPECT_THROW(Dense25dMatrix(64, opt, 1, 0, 0), Error);
}

}  // namespace
}  // namespace slu3d
