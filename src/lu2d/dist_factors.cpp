#include "lu2d/dist_factors.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace slu3d {

Dist2dFactors::Dist2dFactors(const BlockStructure& bs, int Px, int Py, int px,
                             int py, std::vector<bool> want_snode)
    : bs_(&bs), Px_(Px), Py_(Py), px_(px), py_(py),
      want_(std::move(want_snode)) {
  SLU3D_CHECK(Px > 0 && Py > 0, "bad grid extents");
  SLU3D_CHECK(px >= 0 && px < Px && py >= 0 && py < Py, "bad grid position");
  const auto nsn = static_cast<std::size_t>(bs.n_snodes());
  SLU3D_CHECK(want_.empty() || want_.size() == nsn, "want_snode size mismatch");
  diag_.resize(nsn);
  lblocks_.resize(nsn);
  ublocks_.resize(nsn);
  for (int s = 0; s < bs.n_snodes(); ++s) {
    const auto ns = static_cast<std::size_t>(bs.snode_size(s));
    if (ns == 0 || !wants_snode(s)) continue;
    if (owns(s, s)) diag_[static_cast<std::size_t>(s)].assign(ns * ns, 0.0);
    const auto panel = bs.lpanel(s);
    for (int k = 0; k < static_cast<int>(panel.size()); ++k) {
      const auto& blk = panel[static_cast<std::size_t>(k)];
      const auto m = static_cast<std::size_t>(blk.n_rows());
      if (owns(blk.snode, s))  // L block (a, s)
        lblocks_[static_cast<std::size_t>(s)].push_back(
            {k, std::vector<real_t>(m * ns, 0.0)});
      if (owns(s, blk.snode))  // U block (s, a)
        ublocks_[static_cast<std::size_t>(s)].push_back(
            {k, std::vector<real_t>(ns * m, 0.0)});
    }
  }
}

namespace {
OwnedBlock* find_block(std::span<OwnedBlock> blocks,
                       std::span<const PanelBlock> panel, int a) {
  const auto it = std::lower_bound(
      blocks.begin(), blocks.end(), a, [&](const OwnedBlock& b, int key) {
        return panel[static_cast<std::size_t>(b.panel_idx)].snode < key;
      });
  if (it == blocks.end() ||
      panel[static_cast<std::size_t>(it->panel_idx)].snode != a)
    return nullptr;
  return &*it;
}
}  // namespace

OwnedBlock* Dist2dFactors::find_lblock(int s, int a) {
  return find_block(lblocks(s), bs_->lpanel(s), a);
}
OwnedBlock* Dist2dFactors::find_ublock(int s, int a) {
  return find_block(ublocks(s), bs_->lpanel(s), a);
}

void Dist2dFactors::fill_from(const CsrMatrix& Ap) {
  SLU3D_CHECK(Ap.n_rows() == bs_->n(), "matrix size mismatch");
  for (index_t i = 0; i < Ap.n_rows(); ++i) {
    const int si = bs_->col_to_snode(i);
    const auto cols = Ap.row_cols(i);
    const auto vals = Ap.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const index_t j = cols[k];
      const real_t v = vals[k];
      const int sj = bs_->col_to_snode(j);
      if (si == sj) {
        if (!owns(si, si) || !wants_snode(si)) continue;
        const index_t f = bs_->first_col(si);
        const index_t ns = bs_->snode_size(si);
        diag_[static_cast<std::size_t>(si)]
             [static_cast<std::size_t>((i - f) + (j - f) * ns)] += v;
      } else if (sj < si) {  // L entry: block (si, sj) in panel of sj
        if (!owns(si, sj) || !wants_snode(sj)) continue;
        OwnedBlock* blk = find_lblock(sj, si);
        SLU3D_CHECK(blk != nullptr, "missing owned L block");
        const auto& rows = bs_->lpanel(sj)[static_cast<std::size_t>(blk->panel_idx)].rows;
        const auto it = std::lower_bound(rows.begin(), rows.end(), i);
        SLU3D_CHECK(it != rows.end() && *it == i, "entry outside L structure");
        const auto r = static_cast<std::size_t>(it - rows.begin());
        const auto m = rows.size();
        blk->data[r + static_cast<std::size_t>(j - bs_->first_col(sj)) * m] += v;
      } else {  // U entry: block (si, sj) in U panel of si
        if (!owns(si, sj) || !wants_snode(si)) continue;
        OwnedBlock* blk = find_ublock(si, sj);
        SLU3D_CHECK(blk != nullptr, "missing owned U block");
        const auto& ucols = bs_->lpanel(si)[static_cast<std::size_t>(blk->panel_idx)].rows;
        const auto it = std::lower_bound(ucols.begin(), ucols.end(), j);
        SLU3D_CHECK(it != ucols.end() && *it == j, "entry outside U structure");
        const auto c = static_cast<std::size_t>(it - ucols.begin());
        const auto ns = static_cast<std::size_t>(bs_->snode_size(si));
        blk->data[static_cast<std::size_t>(i - bs_->first_col(si)) + c * ns] += v;
      }
    }
  }
}

offset_t Dist2dFactors::allocated_bytes() const {
  offset_t bytes = 0;
  for (std::size_t s = 0; s < diag_.size(); ++s) {
    bytes += static_cast<offset_t>(diag_[s].size() * sizeof(real_t));
    for (const auto& b : lblocks_[s])
      bytes += static_cast<offset_t>(b.data.size() * sizeof(real_t));
    for (const auto& b : ublocks_[s])
      bytes += static_cast<offset_t>(b.data.size() * sizeof(real_t));
  }
  return bytes;
}

void Dist2dFactors::zero() {
  for (std::size_t s = 0; s < diag_.size(); ++s) {
    std::fill(diag_[s].begin(), diag_[s].end(), 0.0);
    for (auto& b : lblocks_[s]) std::fill(b.data.begin(), b.data.end(), 0.0);
    for (auto& b : ublocks_[s]) std::fill(b.data.begin(), b.data.end(), 0.0);
  }
}

}  // namespace slu3d
