// Related-work experiment (§VI): the dense 2.5D LU trade-off. At fixed
// total P, raising the replication factor c cuts per-process panel
// (XY-plane) communication volume ~1/sqrt(c) but adds z-reduction volume,
// messages, and memory — "communication costs are inversely proportional
// to the latency costs" (Solomonik & Demmel), the reason the paper avoids
// pure 2.5D at the lower elimination-tree levels and uses elimination-tree
// parallelism instead.
#include <iostream>

#include "bench_common.hpp"
#include "dense25d/dense_lu25d.hpp"
#include "support/rng.hpp"

int main(int argc, char** argv) {
  using namespace slu3d;
  bench::bench_platform(argc, argv);
  const int scale = bench::bench_scale();
  const index_t n = scale == 0 ? 64 : (scale == 1 ? 192 : 384);
  const index_t block = 16;

  Rng rng(77);
  std::vector<real_t> a0(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (auto& v : a0) v = rng.uniform(-1, 1);
  for (index_t i = 0; i < n; ++i)
    a0[static_cast<std::size_t>(i) * static_cast<std::size_t>(n + 1)] +=
        static_cast<real_t>(n);

  struct Config {
    int p, c;
  };
  const std::vector<Config> configs{{4, 1}, {2, 4}};  // both P = 16
  TextTable table({"p", "c", "P", "W_xy(B)", "W_z(B)", "msgs/proc",
                   "mem/proc(B)", "time(s)"});
  for (const auto& cfg : configs) {
    Dense25dOptions opt;
    opt.block = block;
    const int P = cfg.p * cfg.p * cfg.c;
    std::vector<offset_t> mem(static_cast<std::size_t>(P), 0);
    const auto res = sim::run_ranks(P, bench::platform(), [&](sim::Comm& w) {
      auto grid = sim::ProcessGrid3D::create(w, cfg.p, cfg.p, cfg.c);
      Dense25dMatrix A(n, opt, cfg.p, grid.plane().px(), grid.plane().py());
      if (grid.pz() == 0) A.fill_from(a0);
      dense_lu_25d(A, w, grid);
      mem[static_cast<std::size_t>(w.rank())] = A.allocated_bytes();
    });
    offset_t mem_max = 0, msgs = 0;
    for (offset_t m : mem) mem_max = std::max(mem_max, m);
    for (const auto& r : res.ranks)
      msgs = std::max(msgs, r.messages_received[0] + r.messages_received[1]);
    table.add_row({std::to_string(cfg.p), std::to_string(cfg.c),
                   std::to_string(P),
                   std::to_string(res.max_bytes_received(sim::CommPlane::XY)),
                   std::to_string(res.max_bytes_received(sim::CommPlane::Z)),
                   std::to_string(msgs), std::to_string(mem_max),
                   TextTable::sci(res.max_clock())});
  }
  std::cout << "Dense 2.5D LU (related work, §VI): replication c vs "
               "communication, n = " << n << "\n";
  table.print(std::cout);
  return 0;
}
