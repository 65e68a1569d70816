// Intra-rank thread-pool tests (see DESIGN.md, "Funneled threading
// model"). Three layers are pinned here:
//  - the pool primitives: full single-execution coverage, work stealing
//    under skew, exception propagation, nested-call rules, Barrier,
//    slot-ordered Reducer folds, and the process-wide WorkerBudget,
//  - the funneled contract: a pool worker calling into simmpi throws, a
//    worker growing its presized pack arena throws (ParallelKernels sizes
//    every worker's KernelScratch at construction), and the flop audit
//    identity charged == performed holds under workers,
//  - determinism: the parallel GEMM is bitwise identical to the serial
//    kernel, and a fig9-class 3D factorization produces bitwise-equal
//    factors and *identical RankStats* (clocks, per-plane bytes/messages,
//    per-kind flops and compute seconds) for threads = 1, 2 and 8 —
//    threading may only move wall-clock, never a simulated number.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "lu3d/factor3d.hpp"
#include "numeric/dense_kernels.hpp"
#include "numeric/kernel_scratch.hpp"
#include "numeric/seq_lu.hpp"
#include "order/nested_dissection.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"
#include "threads/thread_pool.hpp"

namespace slu3d {
namespace {

using sim::MachineModel;
using sim::ProcessGrid3D;
using sim::RunResult;
using sim::run_ranks;

const MachineModel kModel{};

// ---------------------------------------------------------------------------
// Pool primitives
// ---------------------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  threads::ThreadPool pool(4);
  constexpr std::ptrdiff_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::ptrdiff_t i, int slot) {
    EXPECT_GE(slot, 0);
    EXPECT_LT(slot, pool.slots());
    hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::ptrdiff_t i = 0; i < kN; ++i)
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
}

TEST(ThreadPool, EmptyAndTinyRanges) {
  threads::ThreadPool pool(4);
  int ran = 0;
  pool.parallel_for(0, [&](std::ptrdiff_t, int) { ++ran; });
  EXPECT_EQ(ran, 0);
  std::atomic<int> one{0};
  pool.parallel_for(1, [&](std::ptrdiff_t i, int) {
    EXPECT_EQ(i, 0);
    one.fetch_add(1);
  });
  EXPECT_EQ(one.load(), 1);
}

// Deterministic steal: slot 0 takes its first index and blocks until every
// other index has run. Slot 0's remaining range can then only be drained by
// workers stealing from it, so steals() must advance (and coverage must
// still be exact) — independent of host core count or scheduling.
TEST(ThreadPool, StealsFromSkewedPartition) {
  threads::ThreadPool pool(4);
  if (pool.workers() == 0) GTEST_SKIP() << "worker budget exhausted";
  constexpr std::ptrdiff_t kN = 512;
  const std::uint64_t steals0 = pool.steals();
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<std::ptrdiff_t> others{0};
  pool.parallel_for(kN, [&](std::ptrdiff_t i, int) {
    hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    if (i == 0) {
      while (others.load(std::memory_order_acquire) < kN - 1)
        std::this_thread::yield();
    } else {
      others.fetch_add(1, std::memory_order_release);
    }
  });
  for (std::ptrdiff_t i = 0; i < kN; ++i)
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  EXPECT_GT(pool.steals(), steals0);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable) {
  threads::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::ptrdiff_t i, int) {
                                   if (i == 37)
                                     throw std::runtime_error("boom at 37");
                                 }),
               std::runtime_error);
  // The region completed (workers re-parked); the pool must still work.
  std::atomic<int> count{0};
  pool.parallel_for(64, [&](std::ptrdiff_t, int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
}

// Free threads::parallel_for from inside a worker degrades to inline
// execution (kernels compose); a *direct* pool->parallel_for from a worker
// is a contract violation and throws.
TEST(ThreadPool, NestedFreeParallelForRunsInlineOnWorkers) {
  threads::ThreadPool pool(4);
  if (pool.workers() == 0) GTEST_SKIP() << "worker budget exhausted";
  threads::PoolScope scope(&pool);
  std::atomic<int> inner{0};
  std::atomic<bool> saw_worker{false};
  pool.for_each_slot([&](int slot) {
    if (slot != 0) {
      EXPECT_TRUE(threads::ThreadPool::in_worker());
      EXPECT_EQ(threads::ThreadPool::worker_pool(), &pool);
      saw_worker.store(true);
    }
    threads::parallel_for(8, [&](std::ptrdiff_t, int inner_slot) {
      // Inline fallback keeps the executing participant's slot.
      EXPECT_EQ(inner_slot, slot);
      inner.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_TRUE(saw_worker.load());
  EXPECT_EQ(inner.load(), 8 * pool.slots());
}

TEST(ThreadPool, DirectParallelForFromWorkerThrows) {
  threads::ThreadPool pool(4);
  if (pool.workers() == 0) GTEST_SKIP() << "worker budget exhausted";
  EXPECT_THROW(pool.for_each_slot([&](int slot) {
    if (slot != 0) pool.parallel_for(1, [](std::ptrdiff_t, int) {});
  }),
               Error);
}

// A slot-0 task body re-entering its own (busy) pool directly is the same
// contract violation from the other side — and the hazard the dense GEMM's
// busy() gate exists for.
TEST(ThreadPool, DirectParallelForFromOwnerTaskThrows) {
  threads::ThreadPool pool(4);
  if (pool.workers() == 0) GTEST_SKIP() << "worker budget exhausted";
  EXPECT_TRUE(pool.busy() == false);
  EXPECT_THROW(pool.for_each_slot([&](int slot) {
    if (slot == 0) {
      EXPECT_TRUE(pool.busy());
      pool.parallel_for(1, [](std::ptrdiff_t, int) {});
    }
  }),
               Error);
  EXPECT_FALSE(pool.busy());
}

TEST(ThreadPool, AccumulatorDrains) {
  threads::ThreadPool pool(2);
  pool.accumulate(5);
  pool.accumulate(7);
  EXPECT_EQ(pool.accumulated(), 12);
  EXPECT_EQ(pool.take_accumulated(), 12);
  EXPECT_EQ(pool.accumulated(), 0);
}

TEST(Barrier, SynchronizesPhases) {
  constexpr int kT = 4;
  constexpr int kPhases = 16;
  threads::Barrier barrier(kT);
  std::atomic<int> in_phase{0};
  std::atomic<bool> torn{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < kT; ++t)
    ts.emplace_back([&] {
      for (int p = 0; p < kPhases; ++p) {
        in_phase.fetch_add(1);
        barrier.arrive_and_wait();
        // Everyone must have arrived at phase p before anyone proceeds.
        if (in_phase.load() < (p + 1) * kT) torn.store(true);
        barrier.arrive_and_wait();
      }
    });
  for (auto& t : ts) t.join();
  EXPECT_FALSE(torn.load());
  EXPECT_EQ(in_phase.load(), kT * kPhases);
}

// The fold runs in ascending slot order, so a catastrophic-cancellation
// pattern gives one exact answer: ((0 + 1e16) + 1) - 1e16 == 0.0 in double
// (1e16 + 1 rounds back to 1e16). Any interleaving-dependent order would
// sometimes produce 1.0.
TEST(Reducer, FoldsInFixedSlotOrder) {
  threads::Reducer<double> red(3, 0.0);
  red.at(0) = 1e16;
  red.at(1) = 1.0;
  red.at(2) = -1e16;
  const double sum = red.reduce([](double a, double b) { return a + b; });
  EXPECT_EQ(sum, 0.0);
  red.reset();
  EXPECT_EQ(red.reduce([](double a, double b) { return a + b; }), 0.0);
}

TEST(WorkerBudget, AcquireReleaseAccounting) {
  auto& budget = threads::WorkerBudget::instance();
  EXPECT_GE(budget.total(), 3);  // floored so threads=4 pools stay exercisable
  const int avail0 = budget.available();
  const int got = budget.acquire(avail0);
  EXPECT_EQ(got, avail0);
  EXPECT_EQ(budget.available(), 0);
  EXPECT_EQ(budget.acquire(5), 0);  // dry budget degrades, never blocks
  budget.release(got);
  EXPECT_EQ(budget.available(), avail0);
}

TEST(WorkerBudget, PoolDegradesWhenBudgetDry) {
  auto& budget = threads::WorkerBudget::instance();
  const int got = budget.acquire(budget.available());
  {
    threads::ThreadPool pool(4);
    EXPECT_EQ(pool.workers(), 0);
    EXPECT_EQ(pool.requested(), 4);
    EXPECT_FALSE(pool.active());
    // Serial degradation still covers the range.
    int count = 0;
    pool.parallel_for(32, [&](std::ptrdiff_t, int slot) {
      EXPECT_EQ(slot, 0);
      ++count;
    });
    EXPECT_EQ(count, 32);
  }
  budget.release(got);
}

TEST(ResolveThreads, ExplicitValueWins) {
  EXPECT_EQ(threads::resolve_threads(5), 5);
  EXPECT_EQ(threads::resolve_threads(1), 1);
  EXPECT_GE(threads::resolve_threads(0), 1);  // env or serial default
}

TEST(PanelOptions, RejectsNegativeThreads) {
  // factorize_2d validates its options at entry, before any supernode.
  const GridGeometry g{8, 8, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 8});
  const BlockStructure bs(A, tree);
  Lu2dOptions opt;
  opt.threads = -1;
  EXPECT_THROW(run_ranks(1, kModel,
                         [&](sim::Comm& world) {
                           auto grid = ProcessGrid3D::create(world, 1, 1, 1);
                           Dist2dFactors F(bs, 1, 1, 0, 0);
                           factorize_2d(F, grid.plane(), {}, opt);
                         }),
               Error);
}

// ---------------------------------------------------------------------------
// Funneled contract
// ---------------------------------------------------------------------------

// A pool worker must never touch simmpi: all communication and clock
// charging stay on the rank thread. The guard in runtime.cpp throws.
TEST(Funneled, WorkerCallingSimmpiThrows) {
  std::atomic<bool> threw{false};
  std::atomic<bool> had_workers{false};
  run_ranks(1, kModel, [&](sim::Comm& world) {
    dense::ParallelKernels pk(4);
    if (pk.pool().workers() == 0) return;
    had_workers.store(true);
    // Rank-thread charging is fine...
    world.add_compute(1, sim::ComputeKind::Other);
    // ...worker charging is not (for_each_slot guarantees worker execution).
    try {
      pk.pool().for_each_slot([&](int slot) {
        if (slot != 0) world.add_compute(1, sim::ComputeKind::Other);
      });
    } catch (const Error&) {
      threw.store(true);
    }
  });
  if (!had_workers.load()) GTEST_SKIP() << "worker budget exhausted";
  EXPECT_TRUE(threw.load());
}

// The one-sided entry points are charged exactly like isend/irecv and are
// covered by the same funneled contract: a pool worker reaching put (or
// the expect/wait completion side) throws.
TEST(Funneled, WorkerCallingRmaWindowThrows) {
  std::atomic<bool> had_workers{false};
  std::atomic<int> rma_throws{0};
  run_ranks(1, kModel, [&](sim::Comm& world) {
    std::vector<real_t> mem(4, 0.0);
    sim::Window win = world.win_create(1, mem, sim::CommPlane::XY);
    dense::ParallelKernels pk(4);
    if (pk.pool().workers() == 0) return;
    had_workers.store(true);
    // Every charged window entry point on the rank thread is fine...
    win.put(0, 0, std::vector<real_t>{1, 2});
    win.expect(0).wait();
    // ...and throws from a worker.
    pk.pool().for_each_slot([&](int slot) {
      if (slot == 0) return;
      auto expect_throw = [&](auto&& call) {
        try {
          call();
        } catch (const Error&) {
          rma_throws.fetch_add(1);
        }
      };
      expect_throw([&] { win.put(0, 0, std::vector<real_t>{1}); });
      expect_throw([&] { (void)win.expect(0); });
    });
  });
  if (!had_workers.load()) GTEST_SKIP() << "worker budget exhausted";
  // Every guarded call threw on every worker (2 entry points each).
  EXPECT_GT(rma_throws.load(), 0);
  EXPECT_EQ(rma_throws.load() % 2, 0);
}

// ParallelKernels presizes every worker's thread-local pack arena at
// construction; a worker asking for more afterwards is a kernel escaping
// its documented bounds and must fail loudly, not reallocate mid-region.
TEST(Funneled, WorkerArenaIsPresizedAndSealed) {
  dense::ParallelKernels pk(4);
  if (pk.pool().workers() == 0) GTEST_SKIP() << "worker budget exhausted";
  std::atomic<bool> undersized{false};
  std::atomic<int> grow_throws{0};
  std::atomic<int> worker_count{0};
  pk.pool().for_each_slot([&](int slot) {
    if (slot == 0) return;
    worker_count.fetch_add(1);
    auto& ks = dense::KernelScratch::per_rank();
    if (ks.pack_a_capacity() < dense::kWorkerPackA ||
        ks.pack_b_capacity() < dense::kWorkerPackB)
      undersized.store(true);
    // In-bounds reuse is fine on a worker...
    (void)ks.pack_a(dense::kWorkerPackA);
    (void)ks.pack_b(dense::kWorkerPackB);
    // ...growth past the presized capacity is not.
    try {
      (void)ks.pack_a(ks.pack_a_capacity() + 1);
    } catch (const Error&) {
      grow_throws.fetch_add(1);
    }
  });
  EXPECT_FALSE(undersized.load());
  EXPECT_EQ(grow_throws.load(), worker_count.load());
  EXPECT_EQ(worker_count.load(), pk.pool().workers());
}

TEST(Funneled, FlopAuditHoldsUnderWorkers) {
  constexpr index_t kN = 256;
  Rng rng(11);
  std::vector<real_t> a(static_cast<std::size_t>(kN) * kN);
  std::vector<real_t> b(a.size());
  std::vector<real_t> c(a.size(), 0.0);
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);
  dense::reset_flops_performed();
  const offset_t expected = dense::gemm_flops(kN, kN, kN);
  {
    dense::ParallelKernels pk(4);
    dense::gemm_minus(kN, kN, kN, a.data(), kN, b.data(), kN, c.data(), kN);
    // flops_performed() peeks the pool's side channel while it is live...
    EXPECT_EQ(dense::flops_performed(), expected);
  }
  // ...and the destructor drains it into the owner's counter.
  EXPECT_EQ(dense::flops_performed(), expected);
  dense::reset_flops_performed();
}

TEST(Funneled, RankLocalPoolIsCachedPerThread) {
  bool same = false, recreated = false, ambient_preserved = false;
  std::thread([&] {
    auto* first = &dense::ParallelKernels::rank_local(4);
    same = (&dense::ParallelKernels::rank_local(4) == first);
    // A different request re-keys the cache (the heap may reuse the freed
    // address, so the pinned property is the new request count).
    recreated = (dense::ParallelKernels::rank_local(2).pool().requested() == 2);
  }).join();
  EXPECT_TRUE(same);
  EXPECT_TRUE(recreated);
  std::thread([&] {
    dense::ParallelKernels pk(3);
    dense::ParallelKernels::ensure_rank_local(8);  // no-op: ambient pool set
    ambient_preserved = (threads::current_pool() == &pk.pool());
  }).join();
  EXPECT_TRUE(ambient_preserved);
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

void expect_bitwise_equal(const std::vector<real_t>& a,
                          const std::vector<real_t>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)), 0)
      << what;
}

TEST(Determinism, GemmBitwiseEqualSerialVsThreaded) {
  // Square (above the parallel threshold) and ragged shapes: edge tiles,
  // partial micro-panels, and the jr-panel fan-out all on the line.
  const struct {
    index_t m, n, k;
  } shapes[] = {{256, 256, 256}, {200, 150, 97}, {512, 64, 64}, {64, 512, 33}};
  for (const auto& s : shapes) {
    Rng rng(static_cast<std::uint64_t>(s.m * 1000 + s.n));
    std::vector<real_t> a(static_cast<std::size_t>(s.m) * static_cast<std::size_t>(s.k));
    std::vector<real_t> b(static_cast<std::size_t>(s.k) * static_cast<std::size_t>(s.n));
    for (auto& v : a) v = rng.uniform(-1, 1);
    for (auto& v : b) v = rng.uniform(-1, 1);
    std::vector<real_t> c_serial(static_cast<std::size_t>(s.m) * static_cast<std::size_t>(s.n), 0.5);
    std::vector<real_t> c_pool = c_serial;
    dense::gemm_minus(s.m, s.n, s.k, a.data(), s.m, b.data(), s.k,
                      c_serial.data(), s.m);
    {
      dense::ParallelKernels pk(4);
      dense::gemm_minus(s.m, s.n, s.k, a.data(), s.m, b.data(), s.k,
                        c_pool.data(), s.m);
    }
    expect_bitwise_equal(c_serial, c_pool, "gemm_minus");
  }
}

TEST(Determinism, GemmNtBitwiseEqualSerialVsThreaded) {
  const struct {
    index_t m, n, k;
  } shapes[] = {{256, 256, 256}, {200, 150, 97}};
  for (const auto& s : shapes) {
    Rng rng(77);
    std::vector<real_t> a(static_cast<std::size_t>(s.m) * static_cast<std::size_t>(s.k));
    std::vector<real_t> b(static_cast<std::size_t>(s.n) * static_cast<std::size_t>(s.k));
    for (auto& v : a) v = rng.uniform(-1, 1);
    for (auto& v : b) v = rng.uniform(-1, 1);
    std::vector<real_t> c_serial(static_cast<std::size_t>(s.m) * static_cast<std::size_t>(s.n), -0.25);
    std::vector<real_t> c_pool = c_serial;
    dense::gemm_minus_nt(s.m, s.n, s.k, a.data(), s.m, b.data(), s.n,
                         c_serial.data(), s.m);
    {
      dense::ParallelKernels pk(4);
      dense::gemm_minus_nt(s.m, s.n, s.k, a.data(), s.m, b.data(), s.n,
                           c_pool.data(), s.m);
    }
    expect_bitwise_equal(c_serial, c_pool, "gemm_minus_nt");
  }
}

TEST(Determinism, SequentialSparseLUAcrossThreadCounts) {
  const GridGeometry g{32, 32, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 16});
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  // Run each thread count on a fresh thread so rank_local caching cannot
  // leak a pool into later tests.
  auto run = [&](int threads) {
    SupernodalMatrix F(bs);
    std::thread([&] {
      F.fill_from(Ap);
      dense::ParallelKernels::rank_local(threads);
      factorize_sequential(F);
    }).join();
    return F;
  };
  const SupernodalMatrix F1 = run(1);
  for (int t : {2, 8}) {
    const SupernodalMatrix Ft = run(t);
    for (int s = 0; s < bs.n_snodes(); ++s) {
      const auto d1 = F1.diag(s), dt = Ft.diag(s);
      const auto l1 = F1.lpanel(s), lt = Ft.lpanel(s);
      const auto u1 = F1.upanel(s), ut = Ft.upanel(s);
      ASSERT_TRUE(std::equal(d1.begin(), d1.end(), dt.begin(), dt.end()))
          << "diag snode " << s << " threads " << t;
      ASSERT_TRUE(std::equal(l1.begin(), l1.end(), lt.begin(), lt.end()))
          << "L snode " << s << " threads " << t;
      ASSERT_TRUE(std::equal(u1.begin(), u1.end(), ut.begin(), ut.end()))
          << "U snode " << s << " threads " << t;
    }
  }
}

// ---- end-to-end: fig9 config, threads in {1, 2, 8} ----------------------

struct Problem {
  BlockStructure bs;
  CsrMatrix Ap;
};

Problem fig9_problem() {
  const GridGeometry g{48, 48, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 16});
  return {BlockStructure(A, tree), A.permuted_symmetric(tree.perm())};
}

struct LuRun {
  SupernodalMatrix F;
  RunResult res;
};

LuRun run_lu(const Problem& p, int Px, int Py, int Pz, const Lu3dOptions& opt) {
  const ForestPartition part(p.bs, Pz);
  LuRun out{SupernodalMatrix(p.bs), {}};
  std::mutex mu;
  out.res = run_ranks(Px * Py * Pz, kModel, [&](sim::Comm& world) {
    auto grid = ProcessGrid3D::create(world, Px, Py, Pz);
    Dist2dFactors F = make_3d_factors(p.bs, grid, part, p.Ap);
    factorize_3d(F, grid, part, opt);
    auto full = gather_3d_to_root(F, world, grid, part);
    if (full.has_value()) {
      const std::lock_guard<std::mutex> lock(mu);
      out.F = std::move(*full);
    }
  });
  return out;
}

void expect_factors_equal(const SupernodalMatrix& a, const SupernodalMatrix& b,
                          int threads) {
  for (int s = 0; s < a.structure().n_snodes(); ++s) {
    const auto da = a.diag(s), db = b.diag(s);
    const auto la = a.lpanel(s), lb = b.lpanel(s);
    const auto ua = a.upanel(s), ub = b.upanel(s);
    ASSERT_TRUE(std::equal(da.begin(), da.end(), db.begin(), db.end()))
        << "diag snode " << s << " threads " << threads;
    ASSERT_TRUE(std::equal(la.begin(), la.end(), lb.begin(), lb.end()))
        << "L snode " << s << " threads " << threads;
    ASSERT_TRUE(std::equal(ua.begin(), ua.end(), ub.begin(), ub.end()))
        << "U snode " << s << " threads " << threads;
  }
}

/// Every simulated counter must be bitwise independent of the thread
/// count: clocks (double ==, not near), per-plane wire volumes, per-kind
/// flops and compute seconds, wait time, and the packing side channels.
void expect_stats_identical(const RunResult& a, const RunResult& b,
                            int threads) {
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    const sim::RankStats& x = a.ranks[r];
    const sim::RankStats& y = b.ranks[r];
    const std::string ctx =
        "rank " + std::to_string(r) + " threads " + std::to_string(threads);
    EXPECT_EQ(x.clock, y.clock) << ctx;
    EXPECT_EQ(x.wait_seconds, y.wait_seconds) << ctx;
    for (std::size_t pl = 0; pl < static_cast<std::size_t>(sim::kNumPlanes);
         ++pl) {
      EXPECT_EQ(x.bytes_sent[pl], y.bytes_sent[pl]) << ctx << " plane " << pl;
      EXPECT_EQ(x.bytes_received[pl], y.bytes_received[pl]) << ctx;
      EXPECT_EQ(x.messages_sent[pl], y.messages_sent[pl]) << ctx;
      EXPECT_EQ(x.messages_received[pl], y.messages_received[pl]) << ctx;
    }
    for (std::size_t k = 0;
         k < static_cast<std::size_t>(sim::kNumComputeKinds); ++k) {
      EXPECT_EQ(x.flops[k], y.flops[k]) << ctx << " kind " << k;
      EXPECT_EQ(x.compute_seconds[k], y.compute_seconds[k])
          << ctx << " kind " << k;
    }
    EXPECT_EQ(x.zred_bytes_saved, y.zred_bytes_saved) << ctx;
    EXPECT_EQ(x.panel_dense_bytes, y.panel_dense_bytes) << ctx;
    EXPECT_EQ(x.panel_saved_bytes, y.panel_saved_bytes) << ctx;
    EXPECT_EQ(x.panel_saved_msgs, y.panel_saved_msgs) << ctx;
  }
}

/// `packed` selects the opt-in wire formats: targeted delivery on both
/// planes.
Lu3dOptions lu_options(bool packed, int threads) {
  Lu3dOptions o;
  o.lu2d.lookahead = 8;
  o.lu2d.packing = packed ? PanelPacking::Targeted : PanelPacking::Dense;
  o.lu2d.threads = threads;
  o.packing = packed ? ZRedPacking::Targeted : ZRedPacking::Dense;
  return o;
}

TEST(Determinism, Fig9FactorsAndStatsAcrossThreadCountsDense) {
  const Problem p = fig9_problem();
  const LuRun ref = run_lu(p, 2, 2, 2, lu_options(false, 1));
  for (int t : {2, 8}) {
    const LuRun v = run_lu(p, 2, 2, 2, lu_options(false, t));
    expect_factors_equal(ref.F, v.F, t);
    expect_stats_identical(ref.res, v.res, t);
  }
}

// The packed wire formats drive the pool-parallel paths of the targeted
// panel roots (dense fill + presence bitmaps, then pack_present into the
// packed cache) and the targeted z-reduction, so they get their own sweep:
// any partition-dependent packing would show up as a bytes or clock diff
// here. (The test keeps the name of the retired Sparse z wire it used to
// run, so its id stays stable.)
TEST(Determinism, Fig9FactorsAndStatsAcrossThreadCountsSparse) {
  const Problem p = fig9_problem();
  const LuRun ref = run_lu(p, 2, 2, 2, lu_options(true, 1));
  for (int t : {2, 8}) {
    const LuRun v = run_lu(p, 2, 2, 2, lu_options(true, t));
    expect_factors_equal(ref.F, v.F, t);
    expect_stats_identical(ref.res, v.res, t);
  }
}

}  // namespace
}  // namespace slu3d
