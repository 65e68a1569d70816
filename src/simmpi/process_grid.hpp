// 2D and 3D logical process grids over a Comm, mirroring SuperLU_DIST's
// layout: a 2D grid of Px x Py ranks with per-row and per-column
// sub-communicators, and the paper's 3D grid = Pz stacked 2D grids with a
// z-axis sub-communicator for ancestor reduction. Every rank lists each of
// its communicators' members from the GridLayout arithmetic alone, so
// building a grid exchanges no message.
#pragma once

#include <vector>

#include "simmpi/runtime.hpp"
#include "support/check.hpp"

namespace slu3d::sim {

/// The rank layout of a Px x Py x Pz grid: Pz stacked Px x Py planes, each
/// row-major, so world rank = (pz*Px + px)*Py + py. A 2D grid is the
/// Pz = 1 case.
struct GridLayout {
  int Px = 1, Py = 1, Pz = 1;

  int rank_of(int px, int py, int pz) const { return (pz * Px + px) * Py + py; }
  int px_of(int rank) const { return rank / Py % Px; }
  int py_of(int rank) const { return rank % Py; }
  int pz_of(int rank) const { return rank / (Px * Py); }
};

class ProcessGrid2D {
 public:
  static ProcessGrid2D create(Comm& comm, int Px, int Py) {
    SLU3D_CHECK(comm.size() == Px * Py, "comm size must equal Px*Py");
    const GridLayout L{Px, Py, 1};
    const int px = L.px_of(comm.rank());
    const int py = L.py_of(comm.rank());
    std::vector<int> row, col;
    for (int j = 0; j < Py; ++j) row.push_back(L.rank_of(px, j, 0));
    for (int i = 0; i < Px; ++i) col.push_back(L.rank_of(i, py, 0));
    return ProcessGrid2D(comm, comm.sub(std::move(row)),
                         comm.sub(std::move(col)), Px, Py, px, py);
  }

  /// All Px*Py ranks; rank = px*Py + py (row-major).
  Comm& grid() { return grid_; }
  /// Ranks sharing my px (size Py).
  Comm& row() { return row_; }
  /// Ranks sharing my py (size Px).
  Comm& col() { return col_; }

  int Px() const { return Px_; }
  int Py() const { return Py_; }
  int px() const { return px_; }
  int py() const { return py_; }

  /// Owner (as a grid rank) of supernodal block (i, j) under the 2D
  /// block-cyclic distribution.
  int owner(int i, int j) const {
    return GridLayout{Px_, Py_, 1}.rank_of(i % Px_, j % Py_, 0);
  }
  bool owns(int i, int j) const { return owner(i, j) == grid_.rank(); }

 private:
  ProcessGrid2D(Comm grid, Comm row, Comm col, int Px, int Py, int px, int py)
      : grid_(std::move(grid)), row_(std::move(row)), col_(std::move(col)),
        Px_(Px), Py_(Py), px_(px), py_(py) {}

  Comm grid_;
  Comm row_;
  Comm col_;
  int Px_, Py_, px_, py_;
};

class ProcessGrid3D {
 public:
  static ProcessGrid3D create(Comm& world, int Px, int Py, int Pz) {
    SLU3D_CHECK(world.size() == Px * Py * Pz, "world size must equal Px*Py*Pz");
    const GridLayout L{Px, Py, Pz};
    const int px = L.px_of(world.rank());
    const int py = L.py_of(world.rank());
    const int pz = L.pz_of(world.rank());
    std::vector<int> plane, zline;
    for (int i = 0; i < Px; ++i)
      for (int j = 0; j < Py; ++j) plane.push_back(L.rank_of(i, j, pz));
    for (int k = 0; k < Pz; ++k) zline.push_back(L.rank_of(px, py, k));
    Comm plane_comm = world.sub(std::move(plane));
    return ProcessGrid3D(ProcessGrid2D::create(plane_comm, Px, Py),
                         world.sub(std::move(zline)), Pz, pz);
  }

  /// My 2D grid (all ranks with my pz).
  ProcessGrid2D& plane() { return plane_; }
  /// Ranks sharing my (px, py), ordered by pz — the ancestor-reduction axis.
  Comm& zline() { return zline_; }

  int Pz() const { return Pz_; }
  int pz() const { return pz_; }

 private:
  ProcessGrid3D(ProcessGrid2D plane, Comm zline, int Pz, int pz)
      : plane_(std::move(plane)), zline_(std::move(zline)), Pz_(Pz), pz_(pz) {}

  ProcessGrid2D plane_;
  Comm zline_;
  int Pz_, pz_;
};

}  // namespace slu3d::sim
