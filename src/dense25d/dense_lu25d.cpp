#include "dense25d/dense_lu25d.hpp"

#include <utility>

#include "numeric/dense_kernels.hpp"
#include "support/check.hpp"

namespace slu3d {

namespace {
using sim::CommPlane;
using sim::ComputeKind;
}  // namespace

Dense25dMatrix::Dense25dMatrix(index_t n, const Dense25dOptions& opt, int p,
                               int px, int py)
    : n_(n), b_(opt.block), nb_(static_cast<int>(n / opt.block)), p_(p),
      px_(px), py_(py) {
  SLU3D_CHECK(n % opt.block == 0, "n must be a multiple of the block size");
  blocks_.resize(static_cast<std::size_t>(nb_) * static_cast<std::size_t>(nb_));
  for (int bi = 0; bi < nb_; ++bi)
    for (int bj = 0; bj < nb_; ++bj)
      if (owns(bi, bj))
        blocks_[static_cast<std::size_t>(bi * nb_ + bj)].assign(
            static_cast<std::size_t>(b_) * static_cast<std::size_t>(b_), 0.0);
}

std::span<real_t> Dense25dMatrix::at(int bi, int bj) {
  SLU3D_CHECK(owns(bi, bj), "block not owned by this rank");
  return blocks_[static_cast<std::size_t>(bi * nb_ + bj)];
}

void Dense25dMatrix::fill_from(std::span<const real_t> a_full) {
  SLU3D_CHECK(a_full.size() ==
                  static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_),
              "full matrix size mismatch");
  for (int bi = 0; bi < nb_; ++bi)
    for (int bj = 0; bj < nb_; ++bj) {
      if (!owns(bi, bj)) continue;
      auto blk = at(bi, bj);
      for (index_t c = 0; c < b_; ++c)
        for (index_t r = 0; r < b_; ++r)
          blk[static_cast<std::size_t>(r + c * b_)] =
              a_full[static_cast<std::size_t>((bi * b_ + r) +
                                              (bj * b_ + c) * n_)];
    }
}

void Dense25dMatrix::zero() {
  for (auto& blk : blocks_) std::fill(blk.begin(), blk.end(), 0.0);
}

offset_t Dense25dMatrix::allocated_bytes() const {
  offset_t bytes = 0;
  for (const auto& blk : blocks_)
    bytes += static_cast<offset_t>(blk.size() * sizeof(real_t));
  return bytes;
}

void dense_lu_25d(Dense25dMatrix& A, sim::Comm& world,
                  sim::ProcessGrid3D& grid) {
  (void)world;
  auto& plane = grid.plane();
  SLU3D_CHECK(plane.Px() == plane.Py(), "2.5D LU needs a square plane grid");
  const int p = plane.Px();
  const int c = grid.Pz();
  const int nb = A.n_blocks();
  const index_t b = A.block();
  const auto bb = static_cast<std::size_t>(b) * static_cast<std::size_t>(b);
  const int px = plane.px(), py = plane.py();

  auto tag = [](int k, int op) { return 8 * k + op; };

  // Step-loop scratch, hoisted so the hot loop reuses capacity instead of
  // allocating fresh buffers at every step k: the broadcast diagonal block
  // and grow-only pools for the stashed L-column / U-row panel blocks.
  std::vector<real_t> diag;
  std::vector<std::pair<int, std::vector<real_t>>> lcol, urow;

  for (int k = 0; k < nb; ++k) {
    const int owner_layer = k % c;

    // 1. Reduce the step-k panel's accumulated partial updates onto the
    //    owner layer (z direction). Fixed block order keeps every zline's
    //    reduction sequence aligned.
    if (c > 1) {
      auto reduce_block = [&](int bi, int bj) {
        if (bi % p != px || bj % p != py) return;
        auto blk = A.at(bi, bj);
        grid.zline().reduce_sum(owner_layer, tag(k, 0), blk, CommPlane::Z);
      };
      reduce_block(k, k);
      for (int i = k + 1; i < nb; ++i) reduce_block(i, k);
      for (int j = k + 1; j < nb; ++j) reduce_block(k, j);
    }

    if (grid.pz() != owner_layer) continue;  // this layer skips step k

    // 2. 2D factorization of step k within the owner layer.
    diag.assign(bb, 0.0);
    if (plane.owns(k, k)) {
      auto d = A.at(k, k);
      dense::getrf_nopiv(b, d.data(), b);
      plane.grid().add_compute(dense::getrf_flops(b), ComputeKind::DiagFactor);
      std::copy(d.begin(), d.end(), diag.begin());
    }
    const bool in_prow = px == k % p;
    const bool in_pcol = py == k % p;
    if (in_prow) plane.row().bcast(k % p, tag(k, 1), diag, CommPlane::XY);
    if (in_pcol) plane.col().bcast(k % p, tag(k, 2), diag, CommPlane::XY);

    if (in_pcol) {
      for (int i = k + 1; i < nb; ++i) {
        if (i % p != px) continue;
        dense::trsm_right_upper(b, b, diag.data(), b, A.at(i, k).data(), b);
        plane.grid().add_compute(dense::trsm_flops(b, b), ComputeKind::PanelSolve);
      }
    }
    if (in_prow) {
      for (int j = k + 1; j < nb; ++j) {
        if (j % p != py) continue;
        dense::trsm_left_lower_unit(b, b, diag.data(), b, A.at(k, j).data(), b);
        plane.grid().add_compute(dense::trsm_flops(b, b), ComputeKind::PanelSolve);
      }
    }

    // 3. Panel broadcasts within the layer, then the trailing update on
    //    this layer's copy only. Pool slots past the live count keep their
    //    capacity from earlier (larger) steps.
    std::size_t nl = 0, nu = 0;
    for (int i = k + 1; i < nb; ++i) {
      if (i % p != px) continue;
      if (nl == lcol.size()) lcol.emplace_back();
      auto& [bi, buf] = lcol[nl++];
      bi = i;
      buf.assign(bb, 0.0);
      if (in_pcol) {
        const auto blk = A.at(i, k);
        std::copy(blk.begin(), blk.end(), buf.begin());
      }
      plane.row().bcast(k % p, tag(k, 3), buf, CommPlane::XY);
    }
    for (int j = k + 1; j < nb; ++j) {
      if (j % p != py) continue;
      if (nu == urow.size()) urow.emplace_back();
      auto& [bj, buf] = urow[nu++];
      bj = j;
      buf.assign(bb, 0.0);
      if (in_prow) {
        const auto blk = A.at(k, j);
        std::copy(blk.begin(), blk.end(), buf.begin());
      }
      plane.col().bcast(k % p, tag(k, 4), buf, CommPlane::XY);
    }
    for (std::size_t li = 0; li < nl; ++li) {
      const auto& [i, lb] = lcol[li];
      for (std::size_t uj = 0; uj < nu; ++uj) {
        const auto& [j, ub] = urow[uj];
        dense::gemm_minus(b, b, b, lb.data(), b, ub.data(), b,
                          A.at(i, j).data(), b);
        plane.grid().add_compute(dense::gemm_flops(b, b, b),
                                 ComputeKind::SchurUpdate);
      }
    }
  }
}

std::optional<std::vector<real_t>> gather_dense_25d(
    Dense25dMatrix& A, sim::Comm& world, sim::ProcessGrid3D& grid) {
  const int gather_tag = 8 * A.n_blocks() + 1;
  auto& plane = grid.plane();
  const int p = plane.Px();
  const int c = grid.Pz();
  const int nb = A.n_blocks();
  const index_t b = A.block();
  const index_t n = A.n();

  // Block (i, j) is final on layer min(i, j) % c at plane rank (i%p, j%p).
  std::vector<real_t> packed;
  for (int bi = 0; bi < nb; ++bi)
    for (int bj = 0; bj < nb; ++bj)
      if (std::min(bi, bj) % c == grid.pz() && bi % p == plane.px() &&
          bj % p == plane.py()) {
        const auto blk = A.at(bi, bj);
        packed.insert(packed.end(), blk.begin(), blk.end());
      }

  if (world.rank() != 0) {
    world.send(0, gather_tag, packed, CommPlane::Z);
    return std::nullopt;
  }
  std::vector<real_t> full(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0.0);
  auto unpack = [&](int pz, int spx, int spy, std::span<const real_t> buf) {
    std::size_t pos = 0;
    for (int bi = 0; bi < nb; ++bi)
      for (int bj = 0; bj < nb; ++bj) {
        if (std::min(bi, bj) % c != pz || bi % p != spx || bj % p != spy)
          continue;
        for (index_t col = 0; col < b; ++col)
          for (index_t r = 0; r < b; ++r)
            full[static_cast<std::size_t>((bi * b + r) + (bj * b + col) * n)] =
                buf[pos + static_cast<std::size_t>(r + col * b)];
        pos += static_cast<std::size_t>(b) * static_cast<std::size_t>(b);
      }
    SLU3D_CHECK(pos == buf.size(), "gather stream not fully consumed");
  };
  unpack(grid.pz(), plane.px(), plane.py(), packed);
  for (int r = 1; r < world.size(); ++r) {
    const auto buf = world.recv(r, gather_tag, CommPlane::Z);
    unpack(r / (p * p), (r % (p * p)) / p, (r % (p * p)) % p, buf);
  }
  return full;
}

}  // namespace slu3d
