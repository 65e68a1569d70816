// Tests for the factorization pipeline engines (the 2D panel engine of
// factorize_2d and the z-reduction of factorize_3d):
//  - golden per-plane comm counters and critical-path clocks pinning the
//    Dense and the Targeted (panels and z-reduction) wires on the fig9
//    configs,
//  - the Targeted frame codec both engines share,
//  - targeted z-reduction: bitwise-identical factors, reduced W_red,
//    savings counter,
//  - option validation.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "lu3d/factor3d.hpp"
#include "order/nested_dissection.hpp"
#include "sparse/generators.hpp"

namespace slu3d {
namespace {

using sim::CommPlane;
using sim::MachineModel;
using sim::ProcessGrid3D;
using sim::RunResult;
using sim::run_ranks;

const MachineModel kModel{};

struct PlaneTotals {
  offset_t bytes[2] = {0, 0};
  offset_t msgs[2] = {0, 0};
  offset_t max_recv[2] = {0, 0};
};

PlaneTotals plane_totals(const RunResult& res) {
  PlaneTotals t;
  for (const auto& r : res.ranks)
    for (std::size_t pl = 0; pl < 2; ++pl) {
      t.bytes[pl] += r.bytes_received[pl];
      t.msgs[pl] += r.messages_received[pl];
      t.max_recv[pl] = std::max(t.max_recv[pl], r.bytes_received[pl]);
    }
  return t;
}

struct Problem {
  BlockStructure bs;
  CsrMatrix Ap;
};

Problem fig9_problem(bool planar) {
  if (planar) {
    const GridGeometry g{48, 48, 1};
    const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
    const SeparatorTree tree = geometric_nd(g, {.leaf_size = 16});
    return {BlockStructure(A, tree), A.permuted_symmetric(tree.perm())};
  }
  const GridGeometry g{12, 12, 12};
  const CsrMatrix A = grid3d_laplacian(g, Stencil3D::SevenPoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 24});
  return {BlockStructure(A, tree), A.permuted_symmetric(tree.perm())};
}

RunResult run_lu3d(const Problem& p, int Px, int Py, int Pz,
                   const Lu3dOptions& opt = {}) {
  const ForestPartition part(p.bs, Pz);
  return run_ranks(Px * Py * Pz, kModel, [&](sim::Comm& world) {
    auto grid = ProcessGrid3D::create(world, Px, Py, Pz);
    Dist2dFactors F = make_3d_factors(p.bs, grid, part, p.Ap);
    factorize_3d(F, grid, part, opt);
  });
}

// ---------------------------------------------------------------------------
// Golden communication counters. `lu` pins the engines' default (Dense)
// wire format and schedule to the byte/message counts measured on the fig9
// configs before the pipeline refactor: any change to panel broadcast
// payloads, stash scheduling, ancestor enumeration order, or packed block
// layout shows up here. `targeted` pins the Targeted wire
// (PanelPacking::Targeted + ZRedPacking::Targeted) the same way: the
// targeted accounting identity (wire + saved == dense) still holds when a
// footprint predicate grows wider, so only absolute counts catch that.
// `lu_clock` and `targeted_clock` pin each wire's simulated critical path
// (RunResult::max_clock(), recorded with %a): a transport change that
// moves simulated time fails here even when no byte or message moves.
// ---------------------------------------------------------------------------

struct GoldenCase {
  const char* name;  // fig9 problem class
  int Px, Py, Pz;
  // {XY bytes, Z bytes, XY msgs, Z msgs, max XY recv, max Z recv}, summed /
  // maxed over all ranks.
  offset_t lu[6];
  offset_t targeted[6];
  double lu_clock;
  double targeted_clock;
};

/// gtest's default printer dumps the raw bytes of the case, `name` pointer
/// included, into the listed test names, so they would change from run to
/// run under address-space randomisation.
void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << c.name << ' ' << c.Px << 'x' << c.Py << 'x' << c.Pz;
}

constexpr GoldenCase kGolden[] = {
    {"planar", 4, 4, 1, {3369936, 0, 6840, 0, 295648, 0},
     {2226848, 0, 4118, 0, 217280, 0},
     0x1.57109757c304ap-9, 0x1.93a1cbaad86cap-10},
    {"planar", 2, 4, 2, {2246624, 18432, 4560, 1, 202448, 18432},
     {1589736, 18720, 2588, 1, 147712, 18720},
     0x1.74af2c90703cp-10, 0x1.b2dcb0cd6c49fp-11},
    {"planar", 2, 2, 4, {1123312, 100232, 2280, 7, 127824, 59904},
     {952624, 54616, 1444, 7, 92664, 37040},
     0x1.2ad62537b3503p-11, 0x1.8ac524e997aa6p-12},
    {"planar", 1, 2, 8, {561656, 351088, 1140, 23, 74320, 124416},
     {476312, 97792, 505, 23, 51776, 48416},
     0x1.3316d9bc6e8dfp-12, 0x1.5805690d422d7p-13},
    {"nonplanar", 4, 4, 1, {7146240, 0, 2892, 0, 573736, 0},
     {5119376, 0, 1924, 0, 450200, 0},
     0x1.b1fed6376c417p-10, 0x1.54c395dd47a78p-10},
    {"nonplanar", 2, 4, 2, {4764160, 165888, 1928, 4, 470392, 41472},
     {3602192, 168480, 1104, 4, 386176, 42120},
     0x1.2f16e95a87f07p-10, 0x1.baa559f88e2b1p-11},
    {"nonplanar", 2, 2, 4, {2382080, 872064, 964, 18, 353864, 207360},
     {2085008, 434120, 566, 18, 290672, 127944},
     0x1.8941c7458562p-11, 0x1.3e0e3b53a97a9p-11},
    {"nonplanar", 1, 2, 8, {1191040, 2571848, 482, 41, 344112, 663552},
     {1042504, 695032, 198, 41, 285472, 251712},
     0x1.4b20e2391fd01p-11, 0x1.2520c9c2b7e63p-11},
};

class GoldenCommCounters : public ::testing::TestWithParam<GoldenCase> {};

void expect_totals(const RunResult& res, const offset_t (&want)[6],
                   const char* wire) {
  const PlaneTotals t = plane_totals(res);
  EXPECT_EQ(t.bytes[0], want[0]) << wire << " XY bytes";
  EXPECT_EQ(t.bytes[1], want[1]) << wire << " Z bytes";
  EXPECT_EQ(t.msgs[0], want[2]) << wire << " XY messages";
  EXPECT_EQ(t.msgs[1], want[3]) << wire << " Z messages";
  EXPECT_EQ(t.max_recv[0], want[4]) << wire << " max XY recv";
  EXPECT_EQ(t.max_recv[1], want[5]) << wire << " max Z recv";
}

TEST_P(GoldenCommCounters, DenseModeMatchesPreRefactorBytes) {
  const GoldenCase& c = GetParam();
  const Problem p = fig9_problem(std::string(c.name) == "planar");
  const RunResult dense = run_lu3d(p, c.Px, c.Py, c.Pz);
  expect_totals(dense, c.lu, "Dense");
  EXPECT_EQ(dense.max_clock(), c.lu_clock) << "Dense critical path";
  Lu3dOptions opt;
  opt.lu2d.packing = PanelPacking::Targeted;
  opt.packing = ZRedPacking::Targeted;
  const RunResult targeted = run_lu3d(p, c.Px, c.Py, c.Pz, opt);
  expect_totals(targeted, c.targeted, "Targeted");
  EXPECT_EQ(targeted.max_clock(), c.targeted_clock)
      << "Targeted critical path";
}

INSTANTIATE_TEST_SUITE_P(
    Fig9Configs, GoldenCommCounters, ::testing::ValuesIn(kGolden),
    [](const auto& pi) {
      return std::string(pi.param.name) + "_" + std::to_string(pi.param.Px) +
             "x" + std::to_string(pi.param.Py) + "x" +
             std::to_string(pi.param.Pz);
    });

// ---------------------------------------------------------------------------
// The frame both Targeted wires carry (encode_frame / decode_frame): a round
// trip restores every value bit for bit except zeros of either sign, which
// travel only as clear bitmap bits and decode as +0.0.
// ---------------------------------------------------------------------------

std::uint64_t bits_of(real_t v) { return std::bit_cast<std::uint64_t>(v); }

TEST(TargetedFrame, RoundTripElidesOnlyZeros) {
  const real_t specials[] = {std::numeric_limits<real_t>::quiet_NaN(), 0.0,
                             std::numeric_limits<real_t>::denorm_min(), -0.0,
                             -3.25};
  const std::size_t lengths[] = {1, 63, 64, 65, 130};
  for (const std::size_t n : lengths) {
    const std::size_t words = frame_bitmap_words(n);
    EXPECT_EQ(words, (n + 63) / 64);
    // Trailing slack past the frame must be left alone by both sides.
    std::vector<real_t> frame(words + n + 1, 9.0);
    std::vector<real_t> out(n, 9.0);

    // An all-zero span travels as its bitmap words only.
    const std::vector<real_t> zeros(n, 0.0);
    ASSERT_EQ(encode_frame(zeros, frame), words) << "n = " << n;
    for (std::size_t w = 0; w < words; ++w) EXPECT_EQ(bits_of(frame[w]), 0u);
    EXPECT_EQ(decode_frame(frame, out), words);
    for (const real_t v : out) EXPECT_EQ(bits_of(v), bits_of(0.0));

    std::vector<real_t> src(n);
    std::vector<real_t> nonzeros;
    for (std::size_t i = 0; i < n; ++i) {
      src[i] = i % 6 < 5 ? specials[i % 6] : static_cast<real_t>(i) + 0.5;
      if (src[i] != 0.0) nonzeros.push_back(src[i]);
    }
    const std::size_t len = encode_frame(src, frame);
    ASSERT_EQ(len, words + nonzeros.size()) << "n = " << n;
    for (std::size_t j = 0; j < nonzeros.size(); ++j)
      EXPECT_EQ(bits_of(frame[words + j]), bits_of(nonzeros[j]));
    EXPECT_EQ(bits_of(frame[len]), bits_of(9.0)) << "wrote past the frame";
    EXPECT_EQ(decode_frame(frame, out), len);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(bits_of(out[i]), bits_of(src[i] == 0.0 ? 0.0 : src[i]))
          << "n = " << n << ", i = " << i;
  }
}

// ---------------------------------------------------------------------------
// Targeted z-reduction. Must change no numeric value (the factors are
// compared bitwise against the dense run) while sending strictly fewer
// reduction bytes in the same messages. (The suite keeps the name of the
// retired block-framed Sparse wire it used to test, so its id stays
// stable.)
// ---------------------------------------------------------------------------

Problem fig10_tiny_problem() {
  // Exactly fig10's K2D5pt at tiny scale (32x32 five-point Laplacian,
  // leaf_size 32): with Pz = 4 the shallow subtrees leave many ancestor
  // replica entries untouched, so the targeted wire has zeros to elide.
  const GridGeometry g{32, 32, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 32});
  return {BlockStructure(A, tree), A.permuted_symmetric(tree.perm())};
}

/// Factors with the given options and gathers the result on rank 0.
SupernodalMatrix gather_lu3d(const Problem& p, int Px, int Py, int Pz,
                             const Lu3dOptions& opt, RunResult* res_out = nullptr) {
  const ForestPartition part(p.bs, Pz);
  SupernodalMatrix gathered(p.bs);
  std::mutex mu;
  RunResult res = run_ranks(Px * Py * Pz, kModel, [&](sim::Comm& world) {
    auto grid = ProcessGrid3D::create(world, Px, Py, Pz);
    Dist2dFactors F = make_3d_factors(p.bs, grid, part, p.Ap);
    factorize_3d(F, grid, part, opt);
    auto full = gather_3d_to_root(F, world, grid, part);
    if (full.has_value()) {
      const std::lock_guard<std::mutex> lock(mu);
      gathered = std::move(*full);
    }
  });
  if (res_out) *res_out = std::move(res);
  return gathered;
}

void expect_bitwise_equal(const SupernodalMatrix& a, const SupernodalMatrix& b,
                          index_t n) {
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j <= i; ++j) {
      ASSERT_EQ(a.l_entry(i, j), b.l_entry(i, j)) << "L(" << i << "," << j << ")";
      ASSERT_EQ(a.u_entry(j, i), b.u_entry(j, i)) << "U(" << j << "," << i << ")";
    }
}

TEST(SparseZReduction, BitwiseIdenticalFactorsAndReducedWred) {
  const Problem p = fig10_tiny_problem();
  Lu3dOptions dense, targeted;
  targeted.packing = ZRedPacking::Targeted;

  RunResult rd, rt;
  const SupernodalMatrix fd = gather_lu3d(p, 2, 2, 4, dense, &rd);
  const SupernodalMatrix ft = gather_lu3d(p, 2, 2, 4, targeted, &rt);
  expect_bitwise_equal(fd, ft, p.bs.n());

  // Targeted mode shrinks the reduction plane everywhere it is measured:
  // total sent, per-rank max received (paper W_red), in as many messages.
  EXPECT_LT(rt.total_bytes_sent(CommPlane::Z), rd.total_bytes_sent(CommPlane::Z));
  EXPECT_LT(rt.max_bytes_received(CommPlane::Z),
            rd.max_bytes_received(CommPlane::Z));
  const auto z = static_cast<std::size_t>(CommPlane::Z);
  offset_t z_msgs_dense = 0, z_msgs_targeted = 0;
  for (const auto& r : rd.ranks) z_msgs_dense += r.messages_sent[z];
  for (const auto& r : rt.ranks) z_msgs_targeted += r.messages_sent[z];
  EXPECT_EQ(z_msgs_targeted, z_msgs_dense);
  // The XY (2D factorization) plane is untouched by the packing mode.
  EXPECT_EQ(rt.total_bytes_sent(CommPlane::XY),
            rd.total_bytes_sent(CommPlane::XY));
}

// ---------------------------------------------------------------------------
// Option validation happens once, at engine entry: factorize_3d checks the
// z-reduction packing, factorize_2d the panel options.
// ---------------------------------------------------------------------------

Problem tiny_problem() {
  const GridGeometry g{8, 8, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 8});
  return {BlockStructure(A, tree), A.permuted_symmetric(tree.perm())};
}

TEST(PipelineOptions, EngineRejectsInvalidOptionsForBothVariants) {
  const Problem p = tiny_problem();

  Lu3dOptions bad_lookahead;
  bad_lookahead.lu2d.lookahead = -1;
  EXPECT_THROW(run_lu3d(p, 2, 2, 1, bad_lookahead), Error);

  Lu3dOptions bad_panel;
  bad_panel.lu2d.packing = static_cast<PanelPacking>(2);
  EXPECT_THROW(run_lu3d(p, 2, 2, 1, bad_panel), Error);

  Lu3dOptions bad_zred;
  bad_zred.packing = static_cast<ZRedPacking>(2);
  EXPECT_THROW(run_lu3d(p, 2, 2, 2, bad_zred), Error);
}

TEST(PipelineOptions, ValidationMessagesAreActionable) {
  const Problem p = tiny_problem();
  Lu3dOptions o;
  o.lu2d.lookahead = -3;
  try {
    run_lu3d(p, 2, 2, 1, o);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("lookahead"), std::string::npos);
  }
}

TEST(PipelineOptions, ZeroLookaheadStillFactorsCorrectly) {
  const Problem p = fig10_tiny_problem();
  const SupernodalMatrix ref = gather_lu3d(p, 2, 2, 4, {});
  Lu3dOptions no_la;
  no_la.lu2d.lookahead = 0;
  expect_bitwise_equal(ref, gather_lu3d(p, 2, 2, 4, no_la), p.bs.n());
}

}  // namespace
}  // namespace slu3d
