// Tests for the factorization pipeline engines (the 2D panel engine of
// factorize_2d and the z-reduction of factorize_3d):
//  - golden per-plane comm counters and critical-path clocks pinning both
//    wires, Dense and Targeted, on the fig9 configs,
//  - diagonal delivery: who receives each factored diagonal block, from
//    whom, and in which order its owner sends it,
//  - the factor schedule: every level's node list leaves first, in the
//    forward solve's order,
//  - the Targeted frame codec both engines share,
//  - targeted z-reduction: bitwise-identical factors, reduced W_red in as
//    many messages,
//  - validation of both LuOptions fields.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "lu3d/factor3d.hpp"
#include "lu3d/solve3d.hpp"
#include "numeric/dense_kernels.hpp"
#include "order/nested_dissection.hpp"
#include "sparse/generators.hpp"

namespace slu3d {
namespace {

using sim::CommPlane;
using sim::MachineModel;
using sim::ProcessGrid3D;
using sim::RunResult;
using sim::TraceEvent;
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
                   const LuOptions& opt = {}) {
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
// configs, with each diagonal block sent point to point to the ranks that
// solve against it: any change to panel broadcast payloads, diagonal
// delivery, stash scheduling, ancestor enumeration order, or packed block
// layout shows up here. `targeted` pins Wire::Targeted the same way: a
// footprint predicate that grows wider still factors bitwise alike, so
// only absolute counts catch it.
// `lu_clock` and `targeted_clock` pin each wire's simulated critical path
// (RunResult::max_clock(), recorded with %a): a transport change that
// moves simulated time fails here even when no byte or message moves.
// The default run is the Dense one, so a change of the default fails to
// compile before it moves a counter.
// ---------------------------------------------------------------------------

static_assert(LuOptions{}.wire == Wire::Dense,
              "the engines' default wire must stay Dense");

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
    {"planar", 4, 4, 1, {2823392, 0, 6296, 0, 240904, 0},
     {1680304, 0, 3574, 0, 181568, 0},
     0x1.8b38d8b9950ebp-10, 0x1.24da942e755a9p-10},
    {"planar", 2, 4, 2, {1942104, 18432, 4279, 1, 162400, 18432},
     {1285216, 18720, 2307, 1, 124768, 18720},
     0x1.0490c8b9918c1p-10, 0x1.4dfb1ff05a1fdp-11},
    {"planar", 2, 2, 4, {1060816, 100232, 2262, 7, 96576, 59904},
     {890128, 54616, 1426, 7, 80744, 37040},
     0x1.da1c5ddd14954p-12, 0x1.3769a9e1ee205p-12},
    {"planar", 1, 2, 8, {530408, 351088, 1131, 23, 51536, 124416},
     {445064, 97792, 496, 23, 48200, 48416},
     0x1.db7e8637d0f24p-13, 0x1.221f3a04142bap-13},
    {"nonplanar", 4, 4, 1, {6251920, 0, 2728, 0, 514864, 0},
     {4225056, 0, 1760, 0, 425456, 0},
     0x1.10da141c65666p-10, 0x1.9527aacdf939ap-11},
    {"nonplanar", 2, 4, 2, {4260624, 165888, 1840, 4, 411712, 41472},
     {3098656, 168480, 1016, 4, 327496, 42120},
     0x1.c91f42345dcdfp-11, 0x1.42b2040428a6fp-11},
    {"nonplanar", 2, 2, 4, {2269328, 872064, 952, 18, 297488, 207360},
     {1972256, 434120, 554, 18, 234296, 127944},
     0x1.520ac2595ef44p-11, 0x1.1114ce8edbdfep-11},
    {"nonplanar", 1, 2, 8, {1134664, 2571848, 476, 41, 329208, 663552},
     {986128, 695032, 192, 41, 270568, 251712},
     0x1.34f7bb2e5b045p-11, 0x1.1276be90008e4p-11},
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

TEST_P(GoldenCommCounters, MatchesRecordedCountersOnBothWires) {
  const GoldenCase& c = GetParam();
  const Problem p = fig9_problem(std::string(c.name) == "planar");
  const RunResult dense = run_lu3d(p, c.Px, c.Py, c.Pz);
  expect_totals(dense, c.lu, "Dense");
  EXPECT_EQ(dense.max_clock(), c.lu_clock) << "Dense critical path";
  const RunResult targeted =
      run_lu3d(p, c.Px, c.Py, c.Pz, {.wire = Wire::Targeted});
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
// Diagonal delivery. Supernode k's factored ns_k x ns_k diagonal block
// travels point to point from its owner, and only to the ranks that solve
// against it: the owner of a non-empty L block of k in the owner's process
// column and the owner of a non-empty U block in its process row. The owner
// serves them nearest ancestor first: for each non-empty panel block a in
// ascending order, the L holder a % Px, then the U holder a % Py, each the
// first time it appears. A factorization's only blocking receives are
// these (panels and z-reduction copies drain through requests), so a
// traced run shows them directly. At lookahead 0 every grid runs its panel
// phases in the engine's order — factorize_3d's levels, deepest first,
// each list leaves first by (nd_height, id) — so the trace order is known
// too. Both wires and every window (0, 8 and open) must factor to the
// same bits.
// ---------------------------------------------------------------------------

struct DeliveryCase {
  const char* name;  // fig9 problem class
  int Px, Py, Pz;
};

void PrintTo(const DeliveryCase& c, std::ostream* os) {
  *os << c.name << ' ' << c.Px << 'x' << c.Py << 'x' << c.Pz;
}

/// A 2D grid, a 3D grid, and planes of one process row and of one process
/// column, on both fig9 problems.
constexpr DeliveryCase kDeliveryCases[] = {
    {"planar", 4, 4, 1},    {"planar", 2, 2, 4},    {"planar", 1, 4, 2},
    {"planar", 4, 1, 2},    {"nonplanar", 4, 4, 1}, {"nonplanar", 2, 2, 4},
    {"nonplanar", 1, 4, 2}, {"nonplanar", 4, 1, 2},
};

/// One diagonal transfer as a trace records it: the peer's world rank and
/// the payload bytes.
using Transfer = std::pair<int, offset_t>;

/// The delivery every world rank must show, from the symbolic structure
/// alone and in lookahead-0 panel order: the diagonals it receives, and
/// for each diagonal it owns, its sends plus whether it holds an L or U
/// block of its own (then a panel solve, not another send, follows them).
struct DeliveryPlan {
  std::vector<std::vector<Transfer>> recvs;
  struct Owned {
    std::vector<Transfer> sends;
    bool holds_block = false;
  };
  std::vector<std::vector<Owned>> owned;
};

DeliveryPlan delivery_plan(const Problem& p, const ForestPartition& part,
                           const DeliveryCase& c) {
  const sim::GridLayout grid{c.Px, c.Py, c.Pz};
  const auto P = static_cast<std::size_t>(c.Px * c.Py * c.Pz);
  DeliveryPlan plan{std::vector<std::vector<Transfer>>(P),
                    std::vector<std::vector<DeliveryPlan::Owned>>(P)};
  for (int pz = 0; pz < c.Pz; ++pz)
    for (int lvl = part.n_levels() - 1; lvl >= 0; --lvl)
      for (const int k : p.bs.leaves_first(part.nodes_at(pz, lvl))) {
        const index_t ns = p.bs.snode_size(k);
        if (ns == 0) continue;
        const offset_t bytes = static_cast<offset_t>(ns) * ns *
                               static_cast<offset_t>(sizeof(real_t));
        const int pxk = k % c.Px;
        const int pyk = k % c.Py;
        const int owner = grid.rank_of(pxk, pyk, pz);
        DeliveryPlan::Owned& mine =
            plan.owned[static_cast<std::size_t>(owner)].emplace_back();
        for (const PanelBlock& b : p.bs.lpanel(k)) {
          const int l_holder = grid.rank_of(b.snode % c.Px, pyk, pz);
          const int u_holder = grid.rank_of(pxk, b.snode % c.Py, pz);
          mine.holds_block = mine.holds_block || l_holder == owner ||
                             u_holder == owner;
          if (b.n_rows() == 0) continue;
          for (const int peer : {l_holder, u_holder}) {
            if (peer == owner ||
                std::find(mine.sends.begin(), mine.sends.end(),
                          Transfer{peer, bytes}) != mine.sends.end())
              continue;
            mine.sends.push_back({peer, bytes});
            plan.recvs[static_cast<std::size_t>(peer)].push_back(
                {owner, bytes});
          }
        }
      }
  return plan;
}

/// A traced factorization, plus every rank's whole factor storage
/// (diagonal, L and U blocks of every supernode, replicated copies
/// included) for a bitwise comparison.
struct TracedLu {
  RunResult res;
  std::vector<std::vector<real_t>> storage;  ///< per world rank
};

TracedLu traced_lu3d(const Problem& p, const ForestPartition& part,
                     const DeliveryCase& c, const LuOptions& opt) {
  TracedLu out;
  out.storage.resize(static_cast<std::size_t>(c.Px * c.Py * c.Pz));
  std::mutex mu;
  sim::RunOptions run_opt;
  run_opt.trace = true;
  out.res = run_ranks(
      c.Px * c.Py * c.Pz, kModel,
      [&](sim::Comm& world) {
        auto grid = ProcessGrid3D::create(world, c.Px, c.Py, c.Pz);
        Dist2dFactors F = make_3d_factors(p.bs, grid, part, p.Ap);
        factorize_3d(F, grid, part, opt);
        std::vector<real_t> flat;
        for (int s = 0; s < p.bs.n_snodes(); ++s) {
          flat.insert(flat.end(), F.diag(s).begin(), F.diag(s).end());
          for (const auto blocks : {F.lblocks(s), F.ublocks(s)})
            for (const OwnedBlock& b : blocks)
              flat.insert(flat.end(), b.data.begin(), b.data.end());
        }
        const std::lock_guard<std::mutex> lock(mu);
        out.storage[static_cast<std::size_t>(world.rank())] = std::move(flat);
      },
      run_opt);
  return out;
}

std::vector<Transfer> blocking_receives(const sim::RankTrace& trace) {
  std::vector<Transfer> out;
  for (const TraceEvent& e : trace)
    if (e.kind == TraceEvent::Kind::Recv) out.push_back({e.peer, e.bytes});
  return out;
}

/// Pins the owner's sends: right after each GETRF the owner's next events
/// are exactly its planned sends, in order, and a panel solve follows
/// them whenever it holds a block of that supernode itself. LinkWait
/// events (a send queueing behind the sender's busy wire) are skipped.
void expect_send_order(const sim::RankTrace& trace,
                       const std::vector<DeliveryPlan::Owned>& owned,
                       int rank) {
  std::vector<const TraceEvent*> events;
  for (const TraceEvent& e : trace)
    if (e.kind != TraceEvent::Kind::LinkWait) events.push_back(&e);
  std::size_t next = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i]->kind != TraceEvent::Kind::Compute ||
        events[i]->compute != sim::ComputeKind::DiagFactor)
      continue;
    ASSERT_LT(next, owned.size()) << "rank " << rank << ": extra GETRF";
    const DeliveryPlan::Owned& want = owned[next++];
    std::vector<Transfer> got;
    std::size_t j = i + 1;
    for (; j < events.size() && got.size() < want.sends.size() &&
           events[j]->kind == TraceEvent::Kind::Send;
         ++j)
      got.push_back({events[j]->peer, events[j]->bytes});
    EXPECT_EQ(got, want.sends)
        << "rank " << rank << ", owned diagonal " << next - 1;
    if (want.holds_block && j < events.size()) {
      EXPECT_EQ(events[j]->kind, TraceEvent::Kind::Compute)
          << "rank " << rank << ": a send beyond the plan, owned diagonal "
          << next - 1;
    }
  }
  EXPECT_EQ(next, owned.size()) << "rank " << rank << ": missing GETRF";
}

class DiagonalDelivery : public ::testing::TestWithParam<DeliveryCase> {};

TEST_P(DiagonalDelivery, OnlySolversReceiveNearestAncestorFirst) {
  const DeliveryCase& c = GetParam();
  const Problem p = fig9_problem(std::string(c.name) == "planar");
  const ForestPartition part(p.bs, c.Pz);
  const DeliveryPlan plan = delivery_plan(p, part, c);

  const TracedLu base = traced_lu3d(p, part, c, {});
  for (const Wire wire : {Wire::Dense, Wire::Targeted})
    for (const int lookahead : {0, 8, kMaxPanelLookahead}) {
      SCOPED_TRACE(std::string(wire == Wire::Dense ? "Dense" : "Targeted") +
                   " lookahead " + std::to_string(lookahead));
      const TracedLu run =
          traced_lu3d(p, part, c, {.lookahead = lookahead, .wire = wire});
      ASSERT_EQ(run.res.traces.size(), plan.recvs.size());
      for (std::size_t r = 0; r < plan.recvs.size(); ++r) {
        std::vector<Transfer> got = blocking_receives(run.res.traces[r]);
        std::vector<Transfer> want = plan.recvs[r];
        if (lookahead > 0) {  // the window reorders panel phases
          std::sort(got.begin(), got.end());
          std::sort(want.begin(), want.end());
        } else {
          expect_send_order(run.res.traces[r], plan.owned[r],
                            static_cast<int>(r));
        }
        EXPECT_EQ(got, want) << "blocking receives of rank " << r;
        const auto& a = base.storage[r];
        const auto& b = run.storage[r];
        ASSERT_EQ(a.size(), b.size()) << "rank " << r;
        for (std::size_t i = 0; i < a.size(); ++i)
          ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
                    std::bit_cast<std::uint64_t>(b[i]))
              << "rank " << r << ", value " << i;
      }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Fig9Configs, DiagonalDelivery, ::testing::ValuesIn(kDeliveryCases),
    [](const auto& pi) {
      return std::string(pi.param.name) + "_" + std::to_string(pi.param.Px) +
             "x" + std::to_string(pi.param.Py) + "x" +
             std::to_string(pi.param.Pz);
    });

// ---------------------------------------------------------------------------
// Factor schedule. The panel engine factors every node list leaves first,
// in the forward solve's order, so the factorization and the solve share
// one schedule. On a grid whose one rank owns every diagonal, at lookahead
// 0, a rank's GETRFs follow factorize_3d's levels, deepest first, and
// within a level SolvePlan::forward() filtered to the level's node list. A
// trace records a GETRF's duration, not its supernode, so the sequence is
// compared as GETRF flops: supernodes of one width are interchangeable in
// it, while postorder, which factors each separator right after its
// children, fails it.
// ---------------------------------------------------------------------------

struct ScheduleCase {
  const char* name;  // fig9 problem class
  int Pz;
};

void PrintTo(const ScheduleCase& c, std::ostream* os) {
  *os << c.name << " 1x1x" << c.Pz;
}

constexpr ScheduleCase kScheduleCases[] = {
    {"planar", 1}, {"planar", 4}, {"nonplanar", 1}, {"nonplanar", 4}};

class FactorSchedule : public ::testing::TestWithParam<ScheduleCase> {};

TEST_P(FactorSchedule, EachLevelFactorsInForwardSolveOrder) {
  const ScheduleCase& c = GetParam();
  const Problem p = fig9_problem(std::string(c.name) == "planar");
  const ForestPartition part(p.bs, c.Pz);
  const SolvePlan plan(p.bs, part, 1, 1);
  // The shared order itself: ascending ND height (0 for a leaf, else one
  // more than the tallest child), ties by id.
  for (int s = 0; s < p.bs.n_snodes(); ++s) {
    int height = 0;
    for (const int ch : p.bs.nd_children(s))
      height = std::max(height, p.bs.nd_height(ch) + 1);
    EXPECT_EQ(p.bs.nd_height(s), height) << "supernode " << s;
  }
  EXPECT_TRUE(std::ranges::is_sorted(plan.forward(), {}, [&](int s) {
    return std::pair{p.bs.nd_height(s), s};
  }));
  const TracedLu run =
      traced_lu3d(p, part, {c.name, 1, 1, c.Pz}, {.lookahead = 0});
  ASSERT_EQ(run.res.traces.size(), static_cast<std::size_t>(c.Pz));
  for (int pz = 0; pz < c.Pz; ++pz) {
    std::vector<offset_t> want;
    for (int lvl = part.n_levels() - 1; lvl >= 0; --lvl) {
      const std::vector<int> nodes = part.nodes_at(pz, lvl);
      for (const int k : plan.forward())
        if (std::binary_search(nodes.begin(), nodes.end(), k) &&
            p.bs.snode_size(k) > 0)
          want.push_back(dense::getrf_flops(p.bs.snode_size(k)));
    }
    std::vector<offset_t> got;
    const int rank = sim::GridLayout{1, 1, c.Pz}.rank_of(0, 0, pz);
    for (const TraceEvent& e : run.res.traces[static_cast<std::size_t>(rank)])
      if (e.kind == TraceEvent::Kind::Compute &&
          e.compute == sim::ComputeKind::DiagFactor)
        got.push_back(std::llround((e.t1 - e.t0) / kModel.gamma));
    EXPECT_EQ(got, want) << "GETRF flops of grid " << pz;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fig9Problems, FactorSchedule, ::testing::ValuesIn(kScheduleCases),
    [](const auto& pi) {
      return std::string(pi.param.name) + "_1x1x" +
             std::to_string(pi.param.Pz);
    });

// ---------------------------------------------------------------------------
// The frame Wire::Targeted carries on both planes (encode_frame /
// decode_frame): a round trip restores every value bit for bit except zeros of either sign, which
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
                             const LuOptions& opt, RunResult* res_out = nullptr) {
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
  RunResult rd, rt;
  const SupernodalMatrix fd = gather_lu3d(p, 2, 2, 4, {}, &rd);
  const SupernodalMatrix ft =
      gather_lu3d(p, 2, 2, 4, {.wire = Wire::Targeted}, &rt);
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
}

// ---------------------------------------------------------------------------
// Option validation happens once, at engine entry: factorize_2d checks both
// fields of LuOptions, and factorize_3d hands them to it on every grid
// before any z-axis message moves.
// ---------------------------------------------------------------------------

Problem tiny_problem() {
  const GridGeometry g{8, 8, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 8});
  return {BlockStructure(A, tree), A.permuted_symmetric(tree.perm())};
}

TEST(PipelineOptions, EngineRejectsInvalidOptionsForBothVariants) {
  const Problem p = tiny_problem();

  EXPECT_THROW(run_lu3d(p, 2, 2, 1, {.lookahead = -1}), Error);

  const LuOptions bad_wire{.wire = static_cast<Wire>(2)};
  EXPECT_THROW(run_lu3d(p, 2, 2, 1, bad_wire), Error);
  EXPECT_THROW(run_lu3d(p, 2, 2, 2, bad_wire), Error);
}

TEST(PipelineOptions, ValidationMessagesAreActionable) {
  const Problem p = tiny_problem();
  try {
    run_lu3d(p, 2, 2, 1, {.lookahead = -3});
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("lookahead"), std::string::npos);
  }
}

TEST(PipelineOptions, ZeroLookaheadStillFactorsCorrectly) {
  const Problem p = fig10_tiny_problem();
  const SupernodalMatrix ref = gather_lu3d(p, 2, 2, 4, {});
  expect_bitwise_equal(ref, gather_lu3d(p, 2, 2, 4, {.lookahead = 0}),
                       p.bs.n());
}

}  // namespace
}  // namespace slu3d
