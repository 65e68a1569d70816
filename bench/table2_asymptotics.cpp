// Validates Table II / §IV: sweeps the problem size n for planar (2D
// grid) and non-planar (3D grid) model problems, measures per-process
// memory M, communication W, and message count L from executed runs, and
// compares the growth against the analytical model's predictions.
#include <cmath>
#include <initializer_list>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "model/cost_model.hpp"

namespace {

using namespace slu3d;

struct Measured {
  double n = 0;
  double M = 0;  // max per-rank memory, bytes
  double W = 0;  // max per-rank received bytes (fact + red)
  double L = 0;  // max per-rank received messages
};

Measured measure(const TestMatrix& t, int Px, int Py, int Pz) {
  const SeparatorTree tree = bench::order_matrix(t, 16);
  const BlockStructure bs(t.A, tree);
  const CsrMatrix Ap = t.A.permuted_symmetric(tree.perm());
  const ForestPartition part(bs, Pz);
  const int P = Px * Py * Pz;
  std::vector<offset_t> mem(static_cast<std::size_t>(P), 0);
  const auto res = sim::run_ranks(P, bench::platform(), [&](sim::Comm& w) {
    auto grid = sim::ProcessGrid3D::create(w, Px, Py, Pz);
    Dist2dFactors F = make_3d_factors(bs, grid, part, Ap);
    mem[static_cast<std::size_t>(w.rank())] = F.allocated_bytes();
    factorize_3d(F, grid, part, {});
  });
  Measured m;
  m.n = static_cast<double>(t.A.n_rows());
  for (offset_t b : mem) m.M = std::max(m.M, static_cast<double>(b));
  m.W = static_cast<double>(res.max_bytes_received(sim::CommPlane::XY) +
                            res.max_bytes_received(sim::CommPlane::Z));
  double msgs = 0;
  for (const auto& r : res.ranks)
    msgs = std::max(msgs, static_cast<double>(r.messages_received[0] +
                                              r.messages_received[1]));
  m.L = msgs;
  return m;
}

/// log-log growth exponent between consecutive measurements.
double growth(double y1, double y0, double n1, double n0) {
  return std::log(y1 / y0) / std::log(n1 / n0);
}

/// Prints one Table II sweep over grid sides at P_XY = 4, for Pz 1 and 4.
/// A grid of side s has a top separator of s columns in 2D and s^2 in 3D;
/// wider than kMaxSnodeWidth, it is split into a chain whose blocks
/// spread over the plane, which changes the per-process growth. So a
/// growth exponent is printed only between consecutive sizes whose top
/// separators fall on the same side of the cap.
void sweep(bool planar, std::initializer_list<index_t> sides,
           const char* model) {
  const int Px = 2, Py = 2;
  for (int Pz : {1, 4}) {
    std::vector<std::string> cols{"side", "top sep", "n", "M(B)", "W(B)",
                                  "L(msgs)", "dlogM/dlogn", "dlogW/dlogn"};
    if (planar) cols.emplace_back("dlogL/dlogn");
    TextTable table(cols);
    Measured prev{};
    bool prev_split = false;
    for (index_t side : sides) {
      const GridGeometry g{side, side, planar ? 1 : side};
      const TestMatrix t =
          planar ? TestMatrix{"grid", grid2d_laplacian(g, Stencil2D::FivePoint),
                              g, true}
                 : TestMatrix{"grid3", grid3d_laplacian(g, Stencil3D::SevenPoint),
                              g, false};
      const index_t top = planar ? side : side * side;
      const bool split = top > kMaxSnodeWidth;
      const Measured m = measure(t, Px, Py, Pz);
      std::vector<std::string> row{
          std::to_string(side),
          std::to_string(top) + (split ? " split" : " whole"),
          std::to_string(static_cast<long long>(m.n)),
          TextTable::sci(m.M), TextTable::sci(m.W),
          std::to_string(static_cast<long long>(m.L))};
      const bool comparable = prev.n > 0 && split == prev_split;
      const auto slope = [&](double y1, double y0) {
        return comparable ? TextTable::num(growth(y1, y0, m.n, prev.n), 2)
                          : std::string("-");
      };
      row.push_back(slope(m.M, prev.M));
      row.push_back(slope(m.W, prev.W));
      if (planar) row.push_back(slope(m.L, prev.L));
      table.add_row(std::move(row));
      prev = m;
      prev_split = split;
    }
    std::cout << "\nPz = " << Pz << "  (model: " << model << ")\n";
    table.print(std::cout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  slu3d::bench::bench_platform(argc, argv);

  std::cout << "Table II check — planar model problems (2D grids), P_XY=4\n"
               "(growth exponents only between sizes on one side of the "
               "supernode width cap, "
            << kMaxSnodeWidth << " columns)\n";
  sweep(true, {32, 64, 96, 128, 192},
        "M ~ n log n / P, W ~ n sqrt(log n) / sqrt(P), L ~ n / Pz");

  std::cout << "\nTable II check — non-planar model problems (3D grids)\n";
  sweep(false, {6, 8, 12, 16, 20}, "M, W ~ n^(4/3) scaling");

  // Closed-form Table II entries for a reference configuration.
  std::cout << "\nAnalytical Table II at n = 1e6, P = 1024:\n";
  using namespace slu3d::model;
  const double n = 1e6, P = 1024;
  TextTable t2({"algorithm", "problem", "M(words)", "W(words)", "L(msgs)"});
  auto add = [&](const std::string& a, const std::string& p, const CostEstimate& c) {
    t2.add_row({a, p, TextTable::sci(c.memory_words), TextTable::sci(c.comm_words),
                TextTable::sci(c.latency_msgs)});
  };
  add("2D", "planar", planar_2d_alg(n, P));
  add("3D Pz=opt", "planar", planar_3d_alg(n, P, planar_optimal_pz(n)));
  add("2D", "non-planar", nonplanar_2d_alg(n, P));
  add("3D Pz=opt", "non-planar", nonplanar_3d_alg(n, P, nonplanar_optimal_pz()));
  t2.print(std::cout);
  const double w2 = nonplanar_2d_alg(n, P).comm_words;
  const double w3 = nonplanar_3d_alg(n, P, nonplanar_optimal_pz()).comm_words;
  std::cout << "non-planar best-case W reduction: " << TextTable::num(w2 / w3, 2)
            << "x (paper: 2.89x)\n";
  return 0;
}
