#include "lu2d/solve_schedule.hpp"

#include <algorithm>
#include <numeric>

#include "support/check.hpp"

namespace slu3d {

SolveSchedule::SolveSchedule(const BlockStructure& bs) {
  const int nsn = bs.n_snodes();
  const auto at = [](auto& v, int s) -> auto& {
    return v[static_cast<std::size_t>(s)];
  };
  // Parents have larger ids than their children, so one ascending pass
  // settles every height and one descending pass every depth.
  std::vector<int> height(static_cast<std::size_t>(nsn), 0);
  std::vector<int> depth(static_cast<std::size_t>(nsn), 0);
  for (int s = 0; s < nsn; ++s)
    if (const int p = bs.nd_parent(s); p >= 0)
      at(height, p) = std::max(at(height, p), at(height, s) + 1);
  for (int s = nsn - 1; s >= 0; --s)
    if (const int p = bs.nd_parent(s); p >= 0) at(depth, s) = at(depth, p) + 1;

  const auto order_by = [&](const std::vector<int>& key) {
    std::vector<int> order(static_cast<std::size_t>(nsn));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return at(key, a) != at(key, b) ? at(key, a) < at(key, b) : a < b;
    });
    return order;
  };
  forward_ = order_by(height);
  backward_ = order_by(depth);

  into_.resize(static_cast<std::size_t>(nsn));
  for (int c = 0; c < nsn; ++c) {
    const auto panel = bs.lpanel(c);
    for (int k = 0; k < static_cast<int>(panel.size()); ++k) {
      const int a = panel[static_cast<std::size_t>(k)].snode;
      // What the sweeps need of an ND ancestor: visited after c going
      // forward and before c going backward.
      SLU3D_CHECK(at(height, a) > at(height, c) && at(depth, a) < at(depth, c),
                  "panel block must target a higher and shallower supernode");
      at(into_, a).push_back({c, k});
    }
  }
  std::vector<int> bpos(static_cast<std::size_t>(nsn));
  for (int i = 0; i < nsn; ++i) at(bpos, at(backward_, i)) = i;
  out_of_ = into_;
  for (auto& refs : out_of_)
    std::sort(refs.begin(), refs.end(), [&](const PanelRef& u, const PanelRef& v) {
      return at(bpos, u.first) < at(bpos, v.first);
    });
}

void SolvePanel::gather(index_t f, index_t ns, std::vector<real_t>& buf) const {
  buf.resize(static_cast<std::size_t>(ns) * static_cast<std::size_t>(nrhs));
  for (index_t j = 0; j < nrhs; ++j)
    for (index_t r = 0; r < ns; ++r)
      buf[static_cast<std::size_t>(r + j * ns)] =
          x[static_cast<std::size_t>(f + r + j * n)];
}

void SolvePanel::scatter(std::span<const real_t> buf, index_t f,
                         index_t ns) const {
  for (index_t j = 0; j < nrhs; ++j)
    for (index_t r = 0; r < ns; ++r)
      x[static_cast<std::size_t>(f + r + j * n)] =
          buf[static_cast<std::size_t>(r + j * ns)];
}

void redistribute_solution(sim::Comm& comm, int tag, sim::CommPlane plane,
                           const BlockStructure& bs, const SolvePanel& panel,
                           const std::function<int(int)>& owner) {
  std::vector<int> own(static_cast<std::size_t>(bs.n_snodes()));
  std::vector<real_t> packed, slice;
  for (int s = 0; s < bs.n_snodes(); ++s) {
    own[static_cast<std::size_t>(s)] = owner(s);
    if (own[static_cast<std::size_t>(s)] == comm.rank()) {
      panel.gather(bs.first_col(s), bs.snode_size(s), slice);
      packed.insert(packed.end(), slice.begin(), slice.end());
    }
  }
  const std::vector<real_t> all = comm.allgatherv(tag, packed, plane);
  // The stream holds rank 0's slices in ascending s, then rank 1's, ...
  std::vector<int> order(own.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return own[static_cast<std::size_t>(a)] < own[static_cast<std::size_t>(b)];
  });
  std::size_t pos = 0;
  for (const int s : order) {
    const auto ns = bs.snode_size(s);
    const auto len =
        static_cast<std::size_t>(ns) * static_cast<std::size_t>(panel.nrhs);
    SLU3D_CHECK(pos + len <= all.size(), "gather underflow");
    panel.scatter(std::span<const real_t>(all).subspan(pos, len),
                  bs.first_col(s), ns);
    pos += len;
  }
  SLU3D_CHECK(pos == all.size(), "gather stream not fully consumed");
}

}  // namespace slu3d
