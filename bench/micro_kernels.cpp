// google-benchmark microbenchmarks for the dense kernel substrate (the
// BLAS replacement): GETRF, both TRSM variants, GEMM, and the Schur
// scatter path through a small factorization.
#include <benchmark/benchmark.h>

#include <vector>

#include "numeric/dense_kernels.hpp"
#include "numeric/seq_lu.hpp"
#include "order/nested_dissection.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"

namespace {

using namespace slu3d;

std::vector<real_t> random_dominant(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<real_t> a(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (index_t i = 0; i < n; ++i)
    a[static_cast<std::size_t>(i) * static_cast<std::size_t>(n + 1)] +=
        static_cast<real_t>(n);
  return a;
}

void BM_Getrf(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  const auto a0 = random_dominant(n, 1);
  std::vector<real_t> a(a0.size());
  for (auto _ : state) {
    a = a0;
    dense::getrf_nopiv(n, a.data(), n);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * dense::getrf_flops(n));
}
BENCHMARK(BM_Getrf)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_TrsmRightUpper(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  const index_t m = 2 * n;
  const auto a = random_dominant(n, 2);
  std::vector<real_t> b(static_cast<std::size_t>(m) * static_cast<std::size_t>(n), 1.0);
  for (auto _ : state) {
    dense::trsm_right_upper(n, m, a.data(), n, b.data(), m);
    benchmark::DoNotOptimize(b.data());
  }
  state.SetItemsProcessed(state.iterations() * dense::trsm_flops(n, m));
}
BENCHMARK(BM_TrsmRightUpper)->Arg(32)->Arg(64)->Arg(128);

void BM_TrsmLeftLowerUnit(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  const index_t m = 2 * n;
  const auto a = random_dominant(n, 3);
  std::vector<real_t> b(static_cast<std::size_t>(n) * static_cast<std::size_t>(m), 1.0);
  for (auto _ : state) {
    dense::trsm_left_lower_unit(n, m, a.data(), n, b.data(), n);
    benchmark::DoNotOptimize(b.data());
  }
  state.SetItemsProcessed(state.iterations() * dense::trsm_flops(n, m));
}
BENCHMARK(BM_TrsmLeftLowerUnit)->Arg(32)->Arg(64)->Arg(128);

void BM_GemmMinus(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  const auto a = random_dominant(n, 4);
  const auto b = random_dominant(n, 5);
  std::vector<real_t> c(a.size(), 0.0);
  for (auto _ : state) {
    dense::gemm_minus(n, n, n, a.data(), n, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * dense::gemm_flops(n, n, n));
}
BENCHMARK(BM_GemmMinus)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(384)->Arg(512);

// ---- packed substrate vs reference sweeps -------------------------------
// Same shapes through the pre-substrate jki kernels, so the speedup of the
// packed micro-kernel path is directly visible in one run. The non-square
// sweep exercises the shapes the factorization actually produces (tall
// panel x wide panel rank-ns updates).

void BM_GemmMinusRef(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  const auto a = random_dominant(n, 4);
  const auto b = random_dominant(n, 5);
  std::vector<real_t> c(a.size(), 0.0);
  for (auto _ : state) {
    dense::ref::gemm_minus(n, n, n, a.data(), n, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * dense::gemm_flops(n, n, n));
}
BENCHMARK(BM_GemmMinusRef)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(384)->Arg(512);

void BM_GemmMinusRankK(benchmark::State& state) {
  const auto m = static_cast<index_t>(state.range(0));
  const auto k = static_cast<index_t>(state.range(1));
  Rng rng(6);
  std::vector<real_t> a(static_cast<std::size_t>(m) * static_cast<std::size_t>(k));
  std::vector<real_t> b(static_cast<std::size_t>(k) * static_cast<std::size_t>(m));
  std::vector<real_t> c(static_cast<std::size_t>(m) * static_cast<std::size_t>(m), 0.0);
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    dense::gemm_minus(m, m, k, a.data(), m, b.data(), k, c.data(), m);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * dense::gemm_flops(m, m, k));
}
BENCHMARK(BM_GemmMinusRankK)
    ->Args({256, 32})
    ->Args({256, 64})
    ->Args({512, 64})
    ->Args({512, 128});

void BM_GetrfRef(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  const auto a0 = random_dominant(n, 1);
  std::vector<real_t> a(a0.size());
  for (auto _ : state) {
    a = a0;
    dense::ref::getrf_nopiv(n, a.data(), n);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * dense::getrf_flops(n));
}
BENCHMARK(BM_GetrfRef)->Arg(64)->Arg(128)->Arg(256);

void BM_SequentialSparseLU(benchmark::State& state) {
  const auto side = static_cast<index_t>(state.range(0));
  const GridGeometry g{side, side, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 32});
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  for (auto _ : state) {
    SupernodalMatrix F(bs);
    F.fill_from(Ap);
    factorize_sequential(F);
    benchmark::DoNotOptimize(F.diag(0).data());
  }
  state.SetItemsProcessed(state.iterations() * bs.total_flops());
}
BENCHMARK(BM_SequentialSparseLU)->Arg(32)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
