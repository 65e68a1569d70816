#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "simmpi/process_grid.hpp"
#include "simmpi/runtime.hpp"
#include "support/check.hpp"

namespace slu3d::sim {
namespace {

const MachineModel kModel{};  // defaults

TEST(Runtime, SingleRankRuns) {
  const auto result = run_ranks(1, kModel, [](Comm& world) {
    EXPECT_EQ(world.rank(), 0);
    EXPECT_EQ(world.size(), 1);
    world.add_compute(1000, ComputeKind::Other);
  });
  EXPECT_EQ(result.ranks.size(), 1u);
  EXPECT_DOUBLE_EQ(result.ranks[0].clock, kModel.compute_time(1000));
}

TEST(Runtime, PingPongDeliversPayloadAndAdvancesClocks) {
  const auto result = run_ranks(2, kModel, [](Comm& world) {
    if (world.rank() == 0) {
      world.send(1, 5, std::vector<real_t>{1.5, 2.5}, CommPlane::XY);
      const auto back = world.recv(1, 6, CommPlane::XY);
      ASSERT_EQ(back.size(), 1u);
      EXPECT_DOUBLE_EQ(back[0], 4.0);
    } else {
      const auto msg = world.recv(0, 5, CommPlane::XY);
      ASSERT_EQ(msg.size(), 2u);
      world.send(0, 6, std::vector<real_t>{msg[0] + msg[1]}, CommPlane::XY);
    }
  });
  // Rank 1 received 2 doubles after one latency + transfer.
  EXPECT_EQ(result.ranks[0].bytes_sent[0], 16);
  EXPECT_EQ(result.ranks[1].bytes_received[0], 16);
  EXPECT_EQ(result.ranks[0].messages_sent[0], 1);
  // Clock of rank 0 >= two message times (round trip).
  EXPECT_GE(result.max_clock(), 2 * kModel.alpha);
}

TEST(Runtime, MessagesMatchFifoPerTag) {
  run_ranks(2, kModel, [](Comm& world) {
    if (world.rank() == 0) {
      world.send(1, 1, std::vector<real_t>{1}, CommPlane::XY);
      world.send(1, 2, std::vector<real_t>{2}, CommPlane::XY);
      world.send(1, 1, std::vector<real_t>{3}, CommPlane::XY);
    } else {
      // Receive the tag-2 message first; tag-1 messages stay ordered.
      EXPECT_DOUBLE_EQ(world.recv(0, 2, CommPlane::XY)[0], 2);
      EXPECT_DOUBLE_EQ(world.recv(0, 1, CommPlane::XY)[0], 1);
      EXPECT_DOUBLE_EQ(world.recv(0, 1, CommPlane::XY)[0], 3);
    }
  });
}

TEST(Runtime, SelfSendIsRejected) {
  // Data a rank already holds is not a transfer: a message to oneself is
  // a checked error, blocking or not, so no caller pays alpha for it.
  EXPECT_THROW(run_ranks(2, kModel,
                         [](Comm& world) {
                           world.send(world.rank(), 1, std::vector<real_t>{1},
                                      CommPlane::XY);
                         }),
               Error);
  EXPECT_THROW(run_ranks(2, kModel,
                         [](Comm& world) {
                           world.isend(world.rank(), 1,
                                       std::vector<real_t>{1}, CommPlane::Z);
                         }),
               Error);
}

TEST(Runtime, PlanesAreAccountedSeparately) {
  const auto result = run_ranks(2, kModel, [](Comm& world) {
    if (world.rank() == 0) {
      world.send(1, 1, std::vector<real_t>(10), CommPlane::XY);
      world.send(1, 2, std::vector<real_t>(20), CommPlane::Z);
    } else {
      world.recv(0, 1, CommPlane::XY);
      world.recv(0, 2, CommPlane::Z);
    }
  });
  EXPECT_EQ(result.ranks[0].bytes_sent[static_cast<int>(CommPlane::XY)], 80);
  EXPECT_EQ(result.ranks[0].bytes_sent[static_cast<int>(CommPlane::Z)], 160);
}

TEST(BinomialTree, ParentAndChildrenMatchTheDefinition) {
  // The parent clears the lowest set bit; the children are pos + 2^k for
  // every 2^k below that bit (every 2^k at the root) inside the tree,
  // farthest first.
  for (int size = 1; size <= 33; ++size)
    for (int pos = 0; pos < size; ++pos) {
      const BinomialTree t = binomial_tree(pos, size);
      EXPECT_EQ(t.parent, pos == 0 ? -1 : pos & (pos - 1))
          << "pos " << pos << " of " << size;
      std::vector<int> kids;
      for (int m = 32; m > 0; m >>= 1)
        if ((pos == 0 || m < (pos & -pos)) && pos + m < size)
          kids.push_back(pos + m);
      EXPECT_EQ(std::vector<int>(t.children.begin(), t.children.end()), kids)
          << "pos " << pos << " of " << size;
    }
}

TEST(BinomialTree, EveryNonRootIsListedByExactlyItsParent) {
  for (int size = 1; size <= 33; ++size) {
    std::vector<int> listed_by(static_cast<std::size_t>(size), -1);
    for (int pos = 0; pos < size; ++pos)
      for (const int c : binomial_tree(pos, size).children) {
        ASSERT_EQ(listed_by[static_cast<std::size_t>(c)], -1)
            << c << " listed twice in a tree of " << size;
        listed_by[static_cast<std::size_t>(c)] = pos;
      }
    EXPECT_EQ(listed_by[0], -1);
    for (int pos = 1; pos < size; ++pos)
      EXPECT_EQ(listed_by[static_cast<std::size_t>(pos)],
                binomial_tree(pos, size).parent)
          << "pos " << pos << " of " << size;
  }
}

class BcastSizes : public ::testing::TestWithParam<int> {};

TEST_P(BcastSizes, DeliversFromEveryRoot) {
  const int p = GetParam();
  for (int root = 0; root < p; ++root) {
    run_ranks(p, kModel, [root](Comm& world) {
      std::vector<real_t> buf(3, 0.0);
      if (world.rank() == root) buf = {1.0, 2.0, 3.0};
      world.bcast(root, 9, buf, CommPlane::XY);
      EXPECT_DOUBLE_EQ(buf[0], 1.0);
      EXPECT_DOUBLE_EQ(buf[2], 3.0);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(PowersAndOdd, BcastSizes, ::testing::Values(1, 2, 3, 4, 5, 8, 13));

class ReduceSizes : public ::testing::TestWithParam<int> {};

TEST_P(ReduceSizes, SumsOntoRoot) {
  const int p = GetParam();
  for (int root = 0; root < std::min(p, 3); ++root) {
    run_ranks(p, kModel, [root, p](Comm& world) {
      std::vector<real_t> buf{static_cast<real_t>(world.rank() + 1), 1.0};
      world.reduce_sum(root, 11, buf, CommPlane::XY);
      if (world.rank() == root) {
        EXPECT_DOUBLE_EQ(buf[0], p * (p + 1) / 2.0);
        EXPECT_DOUBLE_EQ(buf[1], p);
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(PowersAndOdd, ReduceSizes, ::testing::Values(1, 2, 3, 4, 6, 8, 9));

TEST(Runtime, AllreduceSumAndMax) {
  run_ranks(5, kModel, [](Comm& world) {
    std::vector<real_t> buf{1.0};
    world.allreduce_sum(13, buf, CommPlane::XY);
    EXPECT_DOUBLE_EQ(buf[0], 5.0);
    const double mx = world.allreduce_max(14, world.rank() * 1.5, CommPlane::XY);
    EXPECT_DOUBLE_EQ(mx, 6.0);
  });
}

TEST(Runtime, AllgathervConcatenatesInRankOrder) {
  run_ranks(4, kModel, [](Comm& world) {
    // Rank r contributes r+1 copies of the value r.
    std::vector<real_t> mine(static_cast<std::size_t>(world.rank() + 1),
                             static_cast<real_t>(world.rank()));
    const auto all = world.allgatherv(21, mine, CommPlane::XY);
    ASSERT_EQ(all.size(), 1u + 2u + 3u + 4u);
    std::size_t pos = 0;
    for (int r = 0; r < 4; ++r)
      for (int k = 0; k <= r; ++k) EXPECT_DOUBLE_EQ(all[pos++], r);
  });
}

TEST(Runtime, AllgathervSingleRank) {
  run_ranks(1, kModel, [](Comm& world) {
    const auto all = world.allgatherv(22, std::vector<real_t>{1, 2}, CommPlane::XY);
    ASSERT_EQ(all.size(), 2u);
    EXPECT_DOUBLE_EQ(all[1], 2.0);
  });
}

/// Block length of rank r in the allgatherv sweep: every third rank
/// contributes nothing.
std::size_t sweep_len(int r) {
  return r % 3 == 1 ? 0 : 1 + static_cast<std::size_t>((r * 7) % 5);
}

int ceil_log2(int p) {
  int rounds = 0;
  while ((1 << rounds) < p) ++rounds;
  return rounds;
}

/// Runs one allgatherv over p ranks where rank r contributes len(r)
/// values, checks the rank-order concatenation and the message count on
/// every rank, and returns the run's statistics.
template <class Len>
RunResult check_allgatherv(int p, Len len) {
  std::vector<real_t> expected;
  for (int r = 0; r < p; ++r)
    for (std::size_t k = 0; k < len(r); ++k)
      expected.push_back(100.0 * r + static_cast<real_t>(k));
  std::vector<std::vector<real_t>> got(static_cast<std::size_t>(p));
  auto result = run_ranks(p, kModel, [&](Comm& world) {
    std::vector<real_t> mine(len(world.rank()));
    for (std::size_t k = 0; k < mine.size(); ++k)
      mine[k] = 100.0 * world.rank() + static_cast<real_t>(k);
    got[static_cast<std::size_t>(world.rank())] =
        world.allgatherv(31, mine, CommPlane::Z);
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(got[static_cast<std::size_t>(r)], expected) << "rank " << r;
    EXPECT_EQ(result.ranks[static_cast<std::size_t>(r)]
                  .messages_sent[static_cast<int>(CommPlane::Z)],
              ceil_log2(p))
        << "rank " << r;
  }
  return result;
}

class AllgathervSweep : public ::testing::TestWithParam<int> {};

TEST_P(AllgathervSweep, ConcatenatesInRankOrderInLogRounds) {
  // Flat-platform clocks are exact, so the bounds are tight checks of log
  // depth (one alpha per round) and of bandwidth optimality: every rank
  // receives each other block, with its one-word length header, once.
  const int p = GetParam();
  const int rounds = ceil_log2(p);
  // Equal blocks: the critical path carries at most all payload + headers.
  constexpr std::size_t kLen = 3;
  const auto equal = check_allgatherv(p, [](int) { return kLen; });
  const double total = 8.0 * static_cast<double>(kLen * static_cast<std::size_t>(p) +
                                                 static_cast<std::size_t>(p - 1));
  EXPECT_LE(equal.max_clock(), rounds * kModel.alpha + kModel.beta * total);
  // Unequal and empty blocks: a rank forwards its own block in every round,
  // so the bound is P - 1 of the largest blocks (with headers).
  const auto mixed = check_allgatherv(p, sweep_len);
  std::size_t longest = 0;
  for (int r = 0; r < p; ++r) longest = std::max(longest, sweep_len(r));
  EXPECT_LE(mixed.max_clock(),
            rounds * kModel.alpha +
                kModel.beta * 8.0 * (p - 1) * static_cast<double>(longest + 1));
}

INSTANTIATE_TEST_SUITE_P(OneToSeventeen, AllgathervSweep, ::testing::Range(1, 18));

TEST(AllgathervSweepEdge, AllEmptyContributions) {
  constexpr int kP = 6;
  const auto result = run_ranks(kP, kModel, [](Comm& world) {
    EXPECT_TRUE(world.allgatherv(32, {}, CommPlane::XY).empty());
  });
  for (const auto& r : result.ranks)
    EXPECT_EQ(r.messages_sent[static_cast<int>(CommPlane::XY)], ceil_log2(kP));
  // Only the length headers travel.
  EXPECT_LE(result.max_clock(),
            ceil_log2(kP) * kModel.alpha + kModel.beta * 8.0 * (kP - 1));
}

TEST(Runtime, BarrierSynchronizesClocks) {
  const auto result = run_ranks(4, kModel, [](Comm& world) {
    if (world.rank() == 2) world.add_compute(1000000000, ComputeKind::Other);
    world.barrier(15, CommPlane::XY);
    // Everyone's clock is now at least the slow rank's compute time.
    EXPECT_GE(world.clock(), kModel.compute_time(1000000000));
  });
  EXPECT_GE(result.max_clock(), kModel.compute_time(1000000000));
}

TEST(Runtime, RecvArrivalRaisesReceiverClock) {
  const auto result = run_ranks(2, kModel, [](Comm& world) {
    if (world.rank() == 0) {
      world.add_compute(2000000000, ComputeKind::Other);  // 0.12 s
      world.send(1, 3, std::vector<real_t>(1000), CommPlane::XY);
    } else {
      world.recv(0, 3, CommPlane::XY);
      EXPECT_GE(world.clock(), kModel.compute_time(2000000000));
    }
  });
  (void)result;
}

TEST(Runtime, SplitFormsDisjointGroups) {
  run_ranks(6, kModel, [](Comm& world) {
    const int parity = world.rank() % 2;
    Comm half = world.sub({parity, parity + 2, parity + 4});
    EXPECT_EQ(half.size(), 3);
    // Communicate within the split comm only.
    std::vector<real_t> v{static_cast<real_t>(world.rank())};
    half.allreduce_sum(1, v, CommPlane::XY);
    if (world.rank() % 2 == 0)
      EXPECT_DOUBLE_EQ(v[0], 0 + 2 + 4);
    else
      EXPECT_DOUBLE_EQ(v[0], 1 + 3 + 5);
  });
}

TEST(Runtime, SplitIsFreeOfCharge) {
  const auto result = run_ranks(4, kModel, [](Comm& world) {
    const int lo = world.rank() / 2 * 2;
    (void)world.sub({lo, lo + 1});
  });
  for (const auto& r : result.ranks) {
    EXPECT_EQ(r.total_bytes_sent(), 0);
    EXPECT_DOUBLE_EQ(r.clock, 0.0);
  }
}

TEST(Runtime, SubInvolvesOnlyItsMembers) {
  // Ranks 0 and 2 never call sub(); ranks 1 and 3 still form their
  // communicator and talk over it.
  run_ranks(4, kModel, [](Comm& world) {
    if (world.rank() % 2 == 0) return;
    Comm pair = world.sub({3, 1});
    EXPECT_EQ(pair.size(), 2);
    EXPECT_EQ(pair.rank(), world.rank() == 3 ? 0 : 1);
    EXPECT_EQ(pair.world_rank(), world.rank());
    const int peer = 1 - pair.rank();
    pair.send(peer, 4, std::vector<real_t>{static_cast<real_t>(world.rank())},
              CommPlane::XY);
    EXPECT_DOUBLE_EQ(pair.recv(peer, 4, CommPlane::XY)[0],
                     world.rank() == 1 ? 3.0 : 1.0);
  });
}

TEST(Runtime, SubWithItsParentsMembersMatchesApart) {
  // Parent, child and grandchild hold the same two ranks in the same
  // order; one tag on one (source, destination) pair must still match
  // within each communicator, whatever order the receives run in.
  run_ranks(2, kModel, [](Comm& world) {
    Comm child = world.sub({0, 1});
    Comm grandchild = child.sub({0, 1});
    if (world.rank() == 0) {
      world.send(1, 9, std::vector<real_t>{1}, CommPlane::XY);
      child.send(1, 9, std::vector<real_t>{2}, CommPlane::XY);
      grandchild.send(1, 9, std::vector<real_t>{3}, CommPlane::XY);
    } else {
      EXPECT_DOUBLE_EQ(grandchild.recv(0, 9, CommPlane::XY)[0], 3);
      EXPECT_DOUBLE_EQ(child.recv(0, 9, CommPlane::XY)[0], 2);
      EXPECT_DOUBLE_EQ(world.recv(0, 9, CommPlane::XY)[0], 1);
    }
  });
}

TEST(Runtime, SubRejectsBadMemberLists) {
  run_ranks(2, kModel, [](Comm& world) {
    const int me = world.rank();
    EXPECT_THROW((void)world.sub({1 - me}), Error);  // caller missing
    EXPECT_THROW((void)world.sub({}), Error);        // caller missing
    EXPECT_THROW((void)world.sub({me, 2}), Error);   // out of range
    EXPECT_THROW((void)world.sub({-1, me}), Error);  // out of range
    EXPECT_THROW((void)world.sub({me, me}), Error);  // listed twice
  });
}

TEST(Runtime, RankExceptionPropagatesAndUnblocksOthers) {
  EXPECT_THROW(run_ranks(3, kModel,
                         [](Comm& world) {
                           if (world.rank() == 1) throw Error("rank 1 died");
                           // Other ranks block forever unless aborted.
                           world.recv((world.rank() + 1) % 3, 1, CommPlane::XY);
                         }),
               Error);
}

TEST(ProcessGrid2D, LayoutAndSubComms) {
  run_ranks(6, kModel, [](Comm& world) {
    auto g = ProcessGrid2D::create(world, 2, 3);
    EXPECT_EQ(g.px(), world.rank() / 3);
    EXPECT_EQ(g.py(), world.rank() % 3);
    EXPECT_EQ(g.row().size(), 3);
    EXPECT_EQ(g.col().size(), 2);
    EXPECT_EQ(g.row().rank(), g.py());
    EXPECT_EQ(g.col().rank(), g.px());
    // Block-cyclic ownership: block (i, j) on (i%2, j%3).
    EXPECT_EQ(g.owner(4, 7), (4 % 2) * 3 + (7 % 3));
    EXPECT_EQ(g.owns(g.px(), g.py()), true);
  });
}

TEST(ProcessGrid3D, PlaneAndZLine) {
  run_ranks(12, kModel, [](Comm& world) {
    auto g = ProcessGrid3D::create(world, 2, 2, 3);
    EXPECT_EQ(g.pz(), world.rank() / 4);
    EXPECT_EQ(g.plane().grid().size(), 4);
    EXPECT_EQ(g.zline().size(), 3);
    EXPECT_EQ(g.zline().rank(), g.pz());
    // z-line neighbours share (px, py): verify by exchanging coordinates.
    std::vector<real_t> v{static_cast<real_t>(g.plane().px() * 10 + g.plane().py())};
    std::vector<real_t> mine = v;
    g.zline().allreduce_sum(1, v, CommPlane::Z);
    EXPECT_DOUBLE_EQ(v[0], 3 * mine[0]);
  });
}

// Every communicator of a ProcessGrid3D lists its members, in rank order,
// by the GridLayout arithmetic.
class GridLayoutShapes : public ::testing::TestWithParam<GridLayout> {};

TEST_P(GridLayoutShapes, RoundTripsAndOrdersEveryCommunicator) {
  const GridLayout L = GetParam();
  const int P = L.Px * L.Py * L.Pz;
  int r = 0;
  for (int pz = 0; pz < L.Pz; ++pz)
    for (int px = 0; px < L.Px; ++px)
      for (int py = 0; py < L.Py; ++py, ++r) {
        EXPECT_EQ(L.rank_of(px, py, pz), r);
        EXPECT_EQ(L.px_of(r), px);
        EXPECT_EQ(L.py_of(r), py);
        EXPECT_EQ(L.pz_of(r), pz);
      }
  run_ranks(P, kModel, [&L](Comm& world) {
    auto g = ProcessGrid3D::create(world, L.Px, L.Py, L.Pz);
    auto& plane = g.plane();
    const int me = world.rank();
    EXPECT_EQ(plane.px(), L.px_of(me));
    EXPECT_EQ(plane.py(), L.py_of(me));
    EXPECT_EQ(g.pz(), L.pz_of(me));
    const auto members = [](Comm& c) {
      const std::vector<real_t> mine{static_cast<real_t>(c.world_rank())};
      const auto all = c.allgatherv(1, mine, CommPlane::XY);
      return std::vector<int>(all.begin(), all.end());
    };
    std::vector<int> want;
    for (int q = 0; q < L.Px * L.Py; ++q)
      want.push_back(L.rank_of(q / L.Py, q % L.Py, g.pz()));
    EXPECT_EQ(members(plane.grid()), want);
    want.clear();
    for (int j = 0; j < L.Py; ++j)
      want.push_back(L.rank_of(plane.px(), j, g.pz()));
    EXPECT_EQ(members(plane.row()), want);
    want.clear();
    for (int i = 0; i < L.Px; ++i)
      want.push_back(L.rank_of(i, plane.py(), g.pz()));
    EXPECT_EQ(members(plane.col()), want);
    want.clear();
    for (int k = 0; k < L.Pz; ++k)
      want.push_back(L.rank_of(plane.px(), plane.py(), k));
    EXPECT_EQ(members(g.zline()), want);
  });
}

INSTANTIATE_TEST_SUITE_P(Shapes, GridLayoutShapes,
                         ::testing::Values(GridLayout{2, 3, 1},
                                           GridLayout{1, 4, 2},
                                           GridLayout{4, 4, 4},
                                           GridLayout{1, 1, 1}),
                         [](const auto& pi) {
                           const GridLayout& L = pi.param;
                           return std::to_string(L.Px) + "x" +
                                  std::to_string(L.Py) + "x" +
                                  std::to_string(L.Pz);
                         });

TEST(NonBlocking, IsendIrecvMatchInPostOrderEvenWhenWaitedReversed) {
  // MPI non-overtaking: messages on the same (comm, src, tag) match posted
  // receives in post order, no matter which request is waited first.
  // Waiting the *later* request first is the deadlock regression: matching
  // keyed on "whoever waits first gets the oldest message" would either
  // deliver out of order or stall.
  run_ranks(2, kModel, [](Comm& world) {
    if (world.rank() == 0) {
      world.isend(1, 3, std::vector<real_t>{10}, CommPlane::XY);
      world.isend(1, 3, std::vector<real_t>{20}, CommPlane::XY);
      world.isend(1, 3, std::vector<real_t>{30}, CommPlane::XY);
    } else {
      Request r1 = world.irecv(0, 3, CommPlane::XY);
      Request r2 = world.irecv(0, 3, CommPlane::XY);
      Request r3 = world.irecv(0, 3, CommPlane::XY);
      EXPECT_DOUBLE_EQ(r3.take()[0], 30);  // reversed wait order
      EXPECT_DOUBLE_EQ(r1.take()[0], 10);
      EXPECT_DOUBLE_EQ(r2.take()[0], 20);
    }
  });
}

TEST(NonBlocking, MixedBlockingAndNonblockingShareOneFifo) {
  // Blocking recv and irecv on the same (src, tag) draw tickets from the
  // same queue: interleaving the two forms preserves message order.
  run_ranks(2, kModel, [](Comm& world) {
    if (world.rank() == 0) {
      world.send(1, 9, std::vector<real_t>{1}, CommPlane::XY);
      world.isend(1, 9, std::vector<real_t>{2}, CommPlane::XY);
      world.send(1, 9, std::vector<real_t>{3}, CommPlane::XY);
    } else {
      Request r1 = world.irecv(0, 9, CommPlane::XY);
      const auto mid = world.recv(0, 9, CommPlane::XY);
      Request r3 = world.irecv(0, 9, CommPlane::XY);
      EXPECT_DOUBLE_EQ(r1.take()[0], 1);
      EXPECT_DOUBLE_EQ(mid[0], 2);
      EXPECT_DOUBLE_EQ(r3.take()[0], 3);
    }
  });
}

TEST(NonBlocking, ComputeBetweenPostAndWaitHidesTransfer) {
  // Exact LogGP arithmetic. The sender posts at clock 0, so the payload's
  // completion timestamp is alpha + beta*bytes. A receiver that computes
  // longer than that between irecv and wait absorbs the transfer entirely:
  // its clock is pure compute and wait_seconds stays zero. A receiver that
  // waits immediately pays the full residual.
  constexpr offset_t kBig = 1'000'000'000;  // compute >> transfer
  const double xfer = kModel.message_time(4 * sizeof(real_t));
  const auto result = run_ranks(3, kModel, [&](Comm& world) {
    if (world.rank() == 0) {
      world.isend(1, 1, std::vector<real_t>{1, 2, 3, 4}, CommPlane::XY);
      world.isend(2, 1, std::vector<real_t>{1, 2, 3, 4}, CommPlane::XY);
    } else if (world.rank() == 1) {
      Request r = world.irecv(0, 1, CommPlane::XY);
      world.add_compute(kBig, ComputeKind::Other);
      EXPECT_EQ(r.take().size(), 4u);
    } else {
      Request r = world.irecv(0, 1, CommPlane::XY);
      EXPECT_EQ(r.take().size(), 4u);
    }
  });
  EXPECT_DOUBLE_EQ(result.ranks[0].clock, 2 * kModel.alpha);  // overhead only
  EXPECT_DOUBLE_EQ(result.ranks[1].clock, kModel.compute_time(kBig));
  EXPECT_DOUBLE_EQ(result.ranks[1].wait_seconds, 0.0);
  // Rank 2's payload queues behind rank 1's on the sender's wire:
  // completion = max(post clock, wire free) + transfer = 2 transfers.
  EXPECT_DOUBLE_EQ(result.ranks[2].clock, 2 * xfer);
  EXPECT_DOUBLE_EQ(result.ranks[2].wait_seconds, 2 * xfer);
}

TEST(NonBlocking, BackToBackIsendsSerializeOnSenderWire) {
  // Platform-layer pin: on the default flat platform every outgoing message
  // serializes over the sender's single wire at alpha + beta*bytes each.
  // Two isends posted back to back therefore complete exactly one and two
  // full transfer times after the first post — the second cannot overtake
  // or overlap the first, no matter how eagerly the receiver drains them.
  const std::vector<real_t> payload(64, 3.0);
  const double xfer = kModel.message_time(
      static_cast<offset_t>(payload.size() * sizeof(real_t)));
  double after_first = 0, after_second = 0;
  const auto result = run_ranks(2, kModel, [&](Comm& world) {
    if (world.rank() == 0) {
      world.isend(1, 1, payload, CommPlane::XY);
      world.isend(1, 2, payload, CommPlane::XY);
    } else {
      world.recv(0, 1, CommPlane::XY);
      after_first = world.clock();
      world.recv(0, 2, CommPlane::XY);
      after_second = world.clock();
    }
  });
  EXPECT_DOUBLE_EQ(after_first, xfer);
  EXPECT_DOUBLE_EQ(after_second, 2 * xfer);
  // The sender's CPU clock pays only the two injection overheads; the wire
  // occupancy shows up as queueing attributed to its endpoint link.
  EXPECT_DOUBLE_EQ(result.ranks[0].clock, 2 * kModel.alpha);
  EXPECT_DOUBLE_EQ(result.ranks[0].link_queue_seconds, xfer - kModel.alpha);
}

TEST(NonBlocking, IsendMatchesBlockingArrivalOnIdleWire) {
  // With nothing else on the sender's network queue, an isend's completion
  // timestamp equals the blocking send's arrival: the receiver's clock is
  // the same either way. (This is what keeps the async factorization's
  // per-plane byte counters *and* first-message arrivals aligned with the
  // blocking schedule.)
  for (const bool async : {false, true}) {
    const auto result = run_ranks(2, kModel, [&](Comm& world) {
      if (world.rank() == 0) {
        if (async)
          world.isend(1, 1, std::vector<real_t>{7, 7}, CommPlane::XY);
        else
          world.send(1, 1, std::vector<real_t>{7, 7}, CommPlane::XY);
      } else {
        world.recv(0, 1, CommPlane::XY);
      }
    });
    EXPECT_DOUBLE_EQ(result.ranks[1].clock,
                     kModel.message_time(2 * sizeof(real_t)))
        << (async ? "isend" : "send");
  }
}

TEST(NonBlocking, IbcastMatchesBcastCountersAndOverlaps) {
  // The non-blocking broadcast uses the identical binomial tree: per-rank
  // byte and message counters must match bcast bit-for-bit, while compute
  // inserted between post and wait shortens the critical path.
  constexpr int kP = 5;
  constexpr offset_t kWork = 40'000'000;
  const std::vector<real_t> payload{1, 2, 3, 4, 5, 6, 7, 8};
  const auto blocking = run_ranks(kP, kModel, [&](Comm& world) {
    std::vector<real_t> buf(payload.size());
    if (world.rank() == 2) buf = payload;
    world.bcast(2, 4, buf, CommPlane::XY);
    world.add_compute(kWork, ComputeKind::Other);
    EXPECT_DOUBLE_EQ(buf[7], 8);
  });
  const auto async = run_ranks(kP, kModel, [&](Comm& world) {
    std::vector<real_t> buf(payload.size());
    if (world.rank() == 2) buf = payload;
    Request r = world.ibcast(2, 4, buf, CommPlane::XY);
    world.add_compute(kWork, ComputeKind::Other);
    r.wait();
    EXPECT_DOUBLE_EQ(buf[7], 8);
  });
  for (std::size_t r = 0; r < kP; ++r) {
    for (std::size_t pl = 0; pl < kNumPlanes; ++pl) {
      EXPECT_EQ(blocking.ranks[r].bytes_sent[pl], async.ranks[r].bytes_sent[pl]);
      EXPECT_EQ(blocking.ranks[r].bytes_received[pl],
                async.ranks[r].bytes_received[pl]);
      EXPECT_EQ(blocking.ranks[r].messages_sent[pl],
                async.ranks[r].messages_sent[pl]);
      EXPECT_EQ(blocking.ranks[r].messages_received[pl],
                async.ranks[r].messages_received[pl]);
    }
  }
  EXPECT_LT(async.max_clock(), blocking.max_clock());
}

TEST(NonBlocking, EqualTagIbcastsInFlightNeverAlias) {
  // The panel pipeline's lookahead window keeps several supernode
  // broadcasts in flight at once, and the per-supernode tag space wraps if
  // two live supernodes ever share tag(k, op). This pins the runtime
  // guarantee the stash relies on: two ibcasts posted on the SAME
  // (root, tag) pair FIFO-match in post order — the first wait always
  // receives the first payload, even when the waits are issued in reverse.
  constexpr int kP = 4;
  run_ranks(kP, kModel, [](Comm& world) {
    std::vector<real_t> a(4), b(4);
    if (world.rank() == 1) {
      a = {10, 11, 12, 13};
      b = {20, 21, 22, 23};
    }
    Request ra = world.ibcast(1, 7, a, CommPlane::XY);
    Request rb = world.ibcast(1, 7, b, CommPlane::XY);
    world.add_compute(1000, ComputeKind::Other);
    rb.wait();  // reversed wait order must not swap the payloads
    ra.wait();
    EXPECT_DOUBLE_EQ(a[0], 10) << "rank " << world.rank();
    EXPECT_DOUBLE_EQ(a[3], 13) << "rank " << world.rank();
    EXPECT_DOUBLE_EQ(b[0], 20) << "rank " << world.rank();
    EXPECT_DOUBLE_EQ(b[3], 23) << "rank " << world.rank();
  });
}

TEST(NonBlocking, SymmetricExchangeWithReversedWaitsDoesNotDeadlock) {
  // Both ranks post their receive, send, compute, then wait their own
  // requests last — a schedule that deadlocks under rendezvous blocking
  // sends. Buffered isend + ticketed irecv must complete it.
  const auto result = run_ranks(2, kModel, [](Comm& world) {
    const int peer = 1 - world.rank();
    Request ra = world.irecv(peer, 1, CommPlane::XY);
    Request rb = world.irecv(peer, 2, CommPlane::XY);
    world.isend(peer, 1, std::vector<real_t>{1}, CommPlane::XY);
    world.isend(peer, 2, std::vector<real_t>{2}, CommPlane::XY);
    world.add_compute(1000, ComputeKind::Other);
    EXPECT_DOUBLE_EQ(rb.take()[0], 2);  // reversed: tag-2 first
    EXPECT_DOUBLE_EQ(ra.take()[0], 1);
  });
  EXPECT_EQ(result.ranks[0].bytes_sent[0], result.ranks[1].bytes_sent[0]);
}

// ---- one-sided windows ----------------------------------------------------

TEST(Rma, PutDeliversIntoTargetMemoryAndCharges) {
  const auto result = run_ranks(2, kModel, [](Comm& world) {
    std::vector<real_t> mem(8, 0.0);
    Window win = world.win_create(3, mem, CommPlane::XY);
    if (world.rank() == 0) {
      win.put(1, 2, std::vector<real_t>{1, 2, 3, 4});
    } else {
      win.expect(0).wait();
      EXPECT_DOUBLE_EQ(mem[1], 0);
      EXPECT_DOUBLE_EQ(mem[2], 1);
      EXPECT_DOUBLE_EQ(mem[5], 4);
      EXPECT_DOUBLE_EQ(mem[6], 0);
    }
  });
  // Only the four data words are charged — the offset header rides free.
  EXPECT_EQ(result.ranks[0].bytes_sent[0], 32);
  EXPECT_EQ(result.ranks[0].messages_sent[0], 1);
  EXPECT_EQ(result.ranks[1].bytes_received[0], 32);
  EXPECT_EQ(result.ranks[1].messages_received[0], 1);
  EXPECT_GT(result.ranks[1].clock, 0.0);
}

TEST(Rma, OverlappingPutsApplyInPostOrderUnderReversedWaits) {
  // The RMA analogue of NonBlocking.EqualTagIbcastsInFlightNeverAlias: two
  // puts from one origin to the same region, waited in reverse, must land
  // in post order — waiting the later delivery forces the earlier one in
  // ahead of it, so the final contents are always the second put's.
  run_ranks(2, kModel, [](Comm& world) {
    std::vector<real_t> mem(4, -1.0);
    Window win = world.win_create(3, mem, CommPlane::XY);
    if (world.rank() == 0) {
      win.put(1, 0, std::vector<real_t>{10, 11, 12, 13});
      win.put(1, 0, std::vector<real_t>{20, 21, 22, 23});
    } else {
      WindowDelivery first = win.expect(0);
      WindowDelivery second = win.expect(0);
      world.add_compute(1000, ComputeKind::Other);
      second.wait();
      EXPECT_DOUBLE_EQ(mem[0], 20) << "puts overtook each other";
      first.wait();  // already applied: must not reapply
      EXPECT_DOUBLE_EQ(mem[0], 20);
      EXPECT_DOUBLE_EQ(mem[3], 23);
    }
  });
}

TEST(Rma, PerLevelWindowsOnSameTagNeverAlias) {
  // Re-creating a window on the same (communicator, tag) must yield a
  // distinct matching stream.
  run_ranks(2, kModel, [](Comm& world) {
    std::vector<real_t> a(2, 0.0), b(2, 0.0);
    Window wa = world.win_create(7, a, CommPlane::Z);
    Window wb = world.win_create(7, b, CommPlane::Z);
    if (world.rank() == 0) {
      wb.put(1, 0, std::vector<real_t>{2, 2});
      wa.put(1, 0, std::vector<real_t>{1, 1});
    } else {
      wa.expect(0).wait();
      wb.expect(0).wait();
      EXPECT_DOUBLE_EQ(a[0], 1);
      EXPECT_DOUBLE_EQ(b[0], 2);
    }
  });
}

TEST(Runtime, ManyRanksStress) {
  // 64 rank-threads exchanging in a ring; exercises the mailbox machinery.
  const int p = 64;
  const auto result = run_ranks(p, kModel, [p](Comm& world) {
    const int next = (world.rank() + 1) % p;
    const int prev = (world.rank() + p - 1) % p;
    world.send(next, 1, std::vector<real_t>{static_cast<real_t>(world.rank())},
               CommPlane::XY);
    const auto got = world.recv(prev, 1, CommPlane::XY);
    EXPECT_DOUBLE_EQ(got[0], prev);
  });
  EXPECT_EQ(result.ranks.size(), 64u);
}

}  // namespace
}  // namespace slu3d::sim
