// Machine sensitivity: the paper's motivation is that communication
// dominates in the strong-scaling regime, so the 3D algorithm's advantage
// should grow as the network gets relatively slower. Two sweeps:
//  - platform presets (flat Edison-like, 2:1-oversubscribed fat tree,
//    torus-like) — whole *networks*, where the z-reduction and the XY
//    panel broadcasts genuinely contend for shared uplinks and the
//    per-link queueing column shows where the time goes;
//  - scalar alpha/beta multipliers around the base machine's constants —
//    the classic flat what-if, kept for continuity with the paper's
//    framing.
// Reports best-3D over 2D speedup on a planar problem for both.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace slu3d;
  const auto& base = bench::bench_platform(argc, argv);
  const int scale = bench::bench_scale();
  const index_t side = scale == 0 ? 32 : (scale == 1 ? 96 : 160);
  const GridGeometry g{side, side, 1};
  const TestMatrix t{"K2Dsens", grid2d_laplacian(g, Stencil2D::FivePoint), g,
                     true};
  const SeparatorTree tree = bench::order_matrix(t);
  const BlockStructure bs(t.A, tree);
  const CsrMatrix Ap = t.A.permuted_symmetric(tree.perm());
  const auto run = [&](int Px, int Py, int Pz, const sim::Platform& platform) {
    return bench::run_dist_lu(bs, Ap, Px, Py, Pz, {.wire = Wire::Dense},
                              PartitionStrategy::Greedy, &platform);
  };

  std::cout << "Platform sensitivity: 3D (2x2x16) vs 2D (8x8) at P=64, planar "
            << side << "x" << side
            << "\n(contended fabrics penalize the z-heavy grids that share "
               "uplinks; Tqueue sums per-link stall time)\n";
  TextTable ptable({"platform", "T_2d(s)", "T_3d(s)", "3D speedup",
                    "Tqueue_2d(s)", "Tqueue_3d(s)"});
  for (const char* name : {"edison", "fattree-2to1", "torus"}) {
    const sim::Platform platform = sim::Platform::preset(name);
    const bench::DistMetrics r2d = run(8, 8, 1, platform);
    const bench::DistMetrics r3d = run(2, 2, 16, platform);
    ptable.add_row({name, TextTable::sci(r2d.time), TextTable::sci(r3d.time),
                    TextTable::num(r2d.time / r3d.time, 2) + "x",
                    TextTable::sci(r2d.link_queue_s),
                    TextTable::sci(r3d.link_queue_s)});
  }
  ptable.print(std::cout);

  TextTable table({"alpha x", "beta x", "T_2d(s)", "T_3d(s)", "3D speedup"});
  for (double ax : {0.1, 1.0, 10.0}) {
    for (double bx : {0.1, 1.0, 10.0}) {
      sim::MachineModel m = base.machine;
      m.alpha *= ax;
      m.beta *= bx;
      const sim::Platform flat = sim::Platform::flat(m);
      const double t2d = run(8, 8, 1, flat).time;
      const double t3d = run(2, 2, 16, flat).time;
      table.add_row({TextTable::num(ax, 1), TextTable::num(bx, 1),
                     TextTable::sci(t2d), TextTable::sci(t3d),
                     TextTable::num(t2d / t3d, 2) + "x"});
    }
  }
  std::cout << "\nScalar sensitivity on the flat wire (base machine of "
            << base.name
            << ")\n(speedup should grow with slower networks — larger alpha/"
               "beta multipliers)\n";
  table.print(std::cout);
  return 0;
}
