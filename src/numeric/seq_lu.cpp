#include "numeric/seq_lu.hpp"

#include <numeric>
#include <vector>

#include "numeric/dense_kernels.hpp"
#include "numeric/kernel_scratch.hpp"
#include "numeric/schur.hpp"
#include "support/check.hpp"

namespace slu3d {

namespace {

/// Factor one supernode's diagonal + panels and apply its Schur update.
/// The Schur staging block comes from the per-rank scratch arena, so the
/// loop performs no per-supernode allocation once the arena has warmed up.
void eliminate_snode(SupernodalMatrix& F, int s) {
  const BlockStructure& bs = F.structure();
  const index_t ns = bs.snode_size(s);
  if (ns == 0) return;  // empty separator block
  const auto m = static_cast<index_t>(F.panel_rows(s).size());

  // 1. Diagonal factorization.
  dense::getrf_nopiv(ns, F.diag(s).data(), ns);

  if (m == 0) return;

  // 2. Panel solves.
  dense::trsm_right_upper(ns, m, F.diag(s).data(), ns, F.lpanel(s).data(), m);
  dense::trsm_left_lower_unit(ns, m, F.diag(s).data(), ns, F.upanel(s).data(), ns);

  // 3. Schur-complement update, block pair by block pair; each (bi, bj)
  // pair scatters into a distinct target block.
  for (const PanelBlock& bi : bs.lpanel(s)) {
    const auto [oi, mi] = F.block_range(s, bi.snode);
    for (const PanelBlock& bj : bs.lpanel(s)) {
      const auto [oj, mj] = F.block_range(s, bj.snode);
      // V = -(L block) * (U block), then scatter-add.
      auto scratch = dense::KernelScratch::per_rank().stage_zero(
          static_cast<std::size_t>(mi) * static_cast<std::size_t>(mj));
      dense::gemm_minus(mi, mj, ns, F.lpanel(s).data() + oi, m,
                        F.upanel(s).data() +
                            static_cast<std::size_t>(oj) *
                                static_cast<std::size_t>(ns),
                        ns, scratch.data(), mi);
      schur_scatter_add(F, bi.snode, bj.snode, bi.rows, bj.rows, scratch);
    }
  }
}

}  // namespace

void factorize_sequential(SupernodalMatrix& F) {
  std::vector<int> all(static_cast<std::size_t>(F.structure().n_snodes()));
  std::iota(all.begin(), all.end(), 0);
  factorize_snodes_sequential(F, all);
}

void factorize_snodes_sequential(SupernodalMatrix& F, std::span<const int> snodes) {
  for (int s : snodes) {
    SLU3D_CHECK(F.has_snode(s) || F.structure().snode_size(s) == 0,
                "supernode not allocated");
    eliminate_snode(F, s);
  }
}

void solve_factored(const SupernodalMatrix& F, std::span<real_t> x) {
  const BlockStructure& bs = F.structure();
  SLU3D_CHECK(x.size() == static_cast<std::size_t>(bs.n()), "x size");

  // Forward substitution L y = b.
  for (int s = 0; s < bs.n_snodes(); ++s) {
    const index_t ns = bs.snode_size(s);
    if (ns == 0) continue;
    const index_t f = bs.first_col(s);
    real_t* xs = x.data() + f;
    dense::trsv_lower_unit(ns, F.diag(s).data(), ns, xs);
    const auto rows = F.panel_rows(s);
    const auto lp = F.lpanel(s);
    const auto m = static_cast<index_t>(rows.size());
    for (index_t c = 0; c < ns; ++c) {
      const real_t xc = xs[c];
      if (xc == 0.0) continue;
      for (index_t r = 0; r < m; ++r)
        x[static_cast<std::size_t>(rows[static_cast<std::size_t>(r)])] -=
            lp[static_cast<std::size_t>(r + c * m)] * xc;
    }
  }

  // Backward substitution U x = y.
  for (int s = bs.n_snodes() - 1; s >= 0; --s) {
    const index_t ns = bs.snode_size(s);
    if (ns == 0) continue;
    const index_t f = bs.first_col(s);
    real_t* xs = x.data() + f;
    const auto cols = F.panel_rows(s);
    const auto up = F.upanel(s);
    for (std::size_t c = 0; c < cols.size(); ++c) {
      const real_t xc = x[static_cast<std::size_t>(cols[c])];
      if (xc == 0.0) continue;
      for (index_t r = 0; r < ns; ++r)
        xs[r] -= up[static_cast<std::size_t>(r) + c * static_cast<std::size_t>(ns)] * xc;
    }
    dense::trsv_upper(ns, F.diag(s).data(), ns, xs);
  }
}

void solve_factored_transpose(const SupernodalMatrix& F, std::span<real_t> x) {
  const BlockStructure& bs = F.structure();
  SLU3D_CHECK(x.size() == static_cast<std::size_t>(bs.n()), "x size");

  // Forward: Uᵀ y = b (Uᵀ is lower triangular; the U panel acts
  // transposed, pushing contributions to its column set).
  for (int s = 0; s < bs.n_snodes(); ++s) {
    const index_t ns = bs.snode_size(s);
    if (ns == 0) continue;
    const index_t f = bs.first_col(s);
    real_t* xs = x.data() + f;
    dense::trsv_upper_trans(ns, F.diag(s).data(), ns, xs);
    const auto cols = F.panel_rows(s);
    const auto up = F.upanel(s);
    for (std::size_t c = 0; c < cols.size(); ++c) {
      real_t acc = 0.0;
      for (index_t r = 0; r < ns; ++r)
        acc += up[static_cast<std::size_t>(r) + c * static_cast<std::size_t>(ns)] * xs[r];
      x[static_cast<std::size_t>(cols[c])] -= acc;
    }
  }

  // Backward: Lᵀ x = y (Lᵀ is unit upper; the L panel acts transposed,
  // pulling contributions from its row set).
  for (int s = bs.n_snodes() - 1; s >= 0; --s) {
    const index_t ns = bs.snode_size(s);
    if (ns == 0) continue;
    const index_t f = bs.first_col(s);
    real_t* xs = x.data() + f;
    const auto rows = F.panel_rows(s);
    const auto lp = F.lpanel(s);
    const auto m = static_cast<index_t>(rows.size());
    for (index_t c = 0; c < ns; ++c) {
      real_t acc = 0.0;
      for (index_t r = 0; r < m; ++r)
        acc += lp[static_cast<std::size_t>(r + c * m)] *
               x[static_cast<std::size_t>(rows[static_cast<std::size_t>(r)])];
      xs[c] -= acc;
    }
    dense::trsv_lower_unit_trans(ns, F.diag(s).data(), ns, xs);
  }
}

}  // namespace slu3d
