// Non-planar scenario: a 3D "structural" finite-element-style problem
// (the Serena / audikw_1 class). Demonstrates the paper's §V finding that
// strongly non-planar matrices gain less from large P_z — and can even
// lose — because the top separators are large: the program factors the
// same system under several P_XY x P_z configurations, verifies the
// distributed factors by solving, and prints the time / communication /
// memory trade-off. Exits 1 if any configuration's relative residual
// exceeds 1e-9.
//
//   $ ./structural3d [grid_side]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "lu3d/solve3d.hpp"
#include "numeric/solver.hpp"
#include "order/nested_dissection.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"

int main(int argc, char** argv) {
  using namespace slu3d;
  const index_t side = argc > 1 ? static_cast<index_t>(std::atoi(argv[1])) : 12;

  const GridGeometry geom{side, side, side};
  const CsrMatrix A = grid3d_laplacian(geom, Stencil3D::SevenPoint);
  const SeparatorTree tree = geometric_nd(geom, {.leaf_size = 32});
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  const auto pinv = invert_permutation(tree.perm());

  std::printf("structural 3D %dx%dx%d (n = %d), non-planar, flops = %.2e\n",
              side, side, side, A.n_rows(),
              static_cast<double>(bs.total_flops()));

  // Manufactured problem for verification.
  const auto n = static_cast<std::size_t>(A.n_rows());
  std::vector<real_t> x_true(n), b(n);
  Rng rng(7);
  for (auto& v : x_true) v = rng.uniform(-1.0, 1.0);
  A.spmv(x_true, b);

  struct Config {
    int Px, Py, Pz;
  };
  const std::vector<Config> configs{{8, 8, 1}, {4, 8, 2}, {4, 4, 4}, {2, 4, 8}};

  std::printf("%10s %12s %9s %14s %12s %12s\n", "PXYxPz", "time(s)", "speedup",
              "W/proc(bytes)", "mem/proc(B)", "residual");
  double t2d = 0;
  bool ok = true;
  for (const auto& cfg : configs) {
    const int P = cfg.Px * cfg.Py * cfg.Pz;
    const ForestPartition part(bs, cfg.Pz);
    std::vector<offset_t> mem(static_cast<std::size_t>(P), 0);
    std::vector<real_t> x(n, 0.0);
    std::mutex mu;
    const auto res = sim::run_ranks(P, sim::MachineModel{}, [&](sim::Comm& w) {
      auto grid = sim::ProcessGrid3D::create(w, cfg.Px, cfg.Py, cfg.Pz);
      Dist2dFactors F = make_3d_factors(bs, grid, part, Ap);
      mem[static_cast<std::size_t>(w.rank())] = F.allocated_bytes();
      factorize_3d(F, grid, part, {});
      // Solve directly on the 3D-distributed factors — no gather.
      std::vector<real_t> pb(n);
      for (std::size_t i = 0; i < n; ++i)
        pb[static_cast<std::size_t>(pinv[i])] = b[i];
      solve_3d(F, w, grid, part, pb);
      if (w.rank() == 0) {
        const std::lock_guard<std::mutex> lock(mu);
        for (std::size_t i = 0; i < n; ++i)
          x[i] = pb[static_cast<std::size_t>(pinv[i])];
      }
    });

    const double t = res.max_clock();
    if (cfg.Pz == 1) t2d = t;
    offset_t mem_max = 0;
    for (offset_t m : mem) mem_max = std::max(mem_max, m);
    const real_t residual = relative_residual(A, x, b);
    ok = ok && residual <= 1e-9;
    std::printf("%4dx%d x%-2d %12.3e %8.2fx %14lld %12lld %12.2e\n", cfg.Px,
                cfg.Py, cfg.Pz, t, t2d / t,
                static_cast<long long>(
                    res.max_bytes_received(sim::CommPlane::XY) +
                    res.max_bytes_received(sim::CommPlane::Z)),
                static_cast<long long>(mem_max), residual);
  }
  return ok ? 0 : 1;
}
