// Dense 2.5D LU factorization (Solomonik & Demmel, Euro-Par'11) on the
// simulated runtime — the communication-avoiding *dense* algorithm the
// paper builds on conceptually (§I, §VI) and proposes to use for the top
// elimination-tree levels as future work (§VII).
//
// Layout: a p x p x c grid (P = p*p*c). Every layer holds a replicated
// block-cyclic copy of the matrix (layer 0 starts with A, the rest with
// zeros). Panel step k is owned by layer k mod c: before factoring, the
// other layers' accumulated partial updates for step-k blocks are reduced
// onto the owner layer along z; the owner factors the diagonal block,
// solves and broadcasts the panels within its own (smaller) 2D grid, and
// applies the trailing update only to its own copy. Each layer therefore
// performs 1/c of the Schur updates, cutting per-process panel-broadcast
// volume by sqrt(c) at the price of c-fold memory and the z reductions —
// exactly the W = O(n^2 / sqrt(cP)) trade-off of the 2.5D analysis.
#pragma once

#include <optional>
#include <vector>

#include "simmpi/process_grid.hpp"
#include "support/types.hpp"

namespace slu3d {

struct Dense25dOptions {
  index_t block = 32;  ///< block size b; the matrix is an nb x nb block grid
};

/// Block-cyclic shard of the dense matrix held by one rank of one layer.
class Dense25dMatrix {
 public:
  /// `n` must be a multiple of options.block for simplicity.
  Dense25dMatrix(index_t n, const Dense25dOptions& opt, int p, int px, int py);

  index_t n() const { return n_; }
  index_t block() const { return b_; }
  int n_blocks() const { return nb_; }
  bool owns(int bi, int bj) const { return bi % p_ == px_ && bj % p_ == py_; }
  /// Dense b x b column-major storage of owned block (bi, bj).
  std::span<real_t> at(int bi, int bj);

  /// Initializes owned blocks from a full column-major matrix.
  void fill_from(std::span<const real_t> a_full);
  void zero();

  offset_t allocated_bytes() const;

 private:
  index_t n_;
  index_t b_;
  int nb_;
  int p_, px_, py_;
  std::vector<std::vector<real_t>> blocks_;  // nb*nb slots; empty if unowned
};

/// Factorizes A = L U (no pivoting) on a p x p x c grid. Collective over
/// `world` (size p*p*c). On return, the L/U panels of step k live on
/// layer k mod c. With c == 1 this is the classic 2D dense LU.
void dense_lu_25d(Dense25dMatrix& A, sim::Comm& world,
                  sim::ProcessGrid3D& grid);

/// Gathers the factored blocks (step k from layer k mod c) to world rank 0
/// as a full column-major matrix holding L \ U packed.
std::optional<std::vector<real_t>> gather_dense_25d(Dense25dMatrix& A,
                                                    sim::Comm& world,
                                                    sim::ProcessGrid3D& grid);

}  // namespace slu3d
