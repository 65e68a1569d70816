// Randomized property tests: random sparse matrices, random orderings,
// random process-grid shapes — every configuration must produce factors
// identical to the sequential reference and machine-precision solves —
// and mutated MatrixMarket and platform texts, which must parse or throw
// slu3d::Error.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <iterator>
#include <mutex>
#include <sstream>
#include <string>

#include "lu3d/factor3d.hpp"
#include "numeric/seq_lu.hpp"
#include "order/nested_dissection.hpp"
#include "service/solver_service.hpp"
#include "simmpi/platform.hpp"
#include "sparse/generators.hpp"
#include "sparse/matrix_market.hpp"
#include "support/rng.hpp"

namespace slu3d {
namespace {

using service::ServiceOptions;
using service::SolverService;

/// Random sparse matrix with symmetric pattern, (possibly) nonsymmetric
/// values, strict diagonal dominance, and a connected-ish structure:
/// a random spanning path plus `extra` random edges.
CsrMatrix random_matrix(index_t n, index_t extra, std::uint64_t seed,
                        bool symmetric_values) {
  Rng rng(seed);
  CooMatrix coo(n, n);
  std::vector<real_t> diag(static_cast<std::size_t>(n), 0.0);
  auto add_pair = [&](index_t u, index_t v) {
    if (u == v) return;
    const real_t a = rng.uniform(-1.0, 1.0);
    const real_t b = symmetric_values ? a : rng.uniform(-1.0, 1.0);
    coo.add(u, v, a);
    coo.add(v, u, b);
    diag[static_cast<std::size_t>(u)] += std::abs(a);
    diag[static_cast<std::size_t>(v)] += std::abs(b);
  };
  // Random spanning path over a shuffled vertex order.
  std::vector<index_t> order(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  for (index_t i = n - 1; i > 0; --i)
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(rng.next_index(i + 1))]);
  for (index_t i = 0; i + 1 < n; ++i)
    add_pair(order[static_cast<std::size_t>(i)], order[static_cast<std::size_t>(i + 1)]);
  for (index_t e = 0; e < extra; ++e)
    add_pair(rng.next_index(n), rng.next_index(n));
  for (index_t i = 0; i < n; ++i)
    coo.add(i, i, diag[static_cast<std::size_t>(i)] * 1.1 + 0.5);
  return CsrMatrix::from_coo(coo);
}

class RandomMatrixFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RandomMatrixFuzz, SequentialFactorReconstructs) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 1000 + 1);
  const index_t n = 30 + rng.next_index(60);
  const CsrMatrix A = random_matrix(n, n, seed, (seed % 2) == 0);
  const index_t leaf = 4 + rng.next_index(12);
  const SeparatorTree tree = nested_dissection(A, {.leaf_size = leaf});
  ASSERT_TRUE(is_permutation(tree.perm()));
  const BlockStructure bs(A, tree);
  SupernodalMatrix F(bs);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  F.fill_from(Ap);
  factorize_sequential(F);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) {
      real_t acc = 0.0;
      const index_t kmax = std::min(i, j);
      for (index_t k = 0; k <= kmax; ++k)
        acc += F.l_entry(i, k) * F.u_entry(k, j);
      ASSERT_NEAR(acc, Ap.at(i, j), 1e-8)
          << "seed " << seed << " at (" << i << "," << j << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMatrixFuzz, ::testing::Range(0, 12));

class RandomPipelineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RandomPipelineFuzz, Distributed3dSolvesRandomSystem) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 7919 + 13);
  const index_t n = 40 + rng.next_index(80);
  const CsrMatrix A = random_matrix(n, 2 * n, seed + 100, false);

  ServiceOptions opt;
  const int shapes[][3] = {{1, 1, 2}, {2, 1, 2}, {1, 2, 4}, {2, 2, 1},
                           {2, 2, 2}, {1, 3, 2}, {3, 1, 1}, {2, 3, 1}};
  const auto& s = shapes[seed % 8];
  opt.Px = s[0];
  opt.Py = s[1];
  opt.Pz = s[2];
  opt.nd.leaf_size = 4 + rng.next_index(10);
  opt.lu3d.lookahead = static_cast<int>(rng.next_index(12));

  const auto nu = static_cast<std::size_t>(n);
  std::vector<real_t> xref(nu), b(nu), x(nu);
  for (auto& v : xref) v = rng.uniform(-1, 1);
  A.spmv(xref, b);
  SolverService svc(opt);
  svc.factor(A);
  const auto rep = svc.solve({b, x, 1});
  EXPECT_LT(rep.residual, 1e-11) << "seed " << seed;
  for (std::size_t i = 0; i < nu; ++i)
    ASSERT_NEAR(x[i], xref[i], 1e-6) << "seed " << seed << " i=" << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPipelineFuzz, ::testing::Range(0, 16));

// ---------------------------------------------------------------------------
// Targeted footprint messages under randomized sparsity patterns, from
// sparse path-like graphs up to near-dense blocks, so panels range from
// mostly-zero to fully populated: whatever footprint the symbolic
// structure implies for each receiver, the targeted wire must solve
// bit-identically to the dense one on both planes, and the XY factor
// volume may only shrink.
// ---------------------------------------------------------------------------

class RandomTargetedDeliveryFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RandomTargetedDeliveryFuzz, TargetedDeliverySolvesBitIdentical) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 9173 + 47);
  const index_t n = 40 + rng.next_index(80);
  const index_t extra = n / 2 + rng.next_index(3 * n);
  const CsrMatrix A = random_matrix(n, extra, seed + 900, (seed % 3) == 0);

  ServiceOptions opt;
  const int shapes[][3] = {{2, 2, 1}, {2, 1, 2}, {1, 2, 4}, {2, 2, 2},
                           {1, 3, 2}, {2, 3, 1}};
  const auto& s = shapes[seed % 6];
  opt.Px = s[0];
  opt.Py = s[1];
  opt.Pz = s[2];
  opt.nd.leaf_size = 4 + rng.next_index(10);
  // A window of 0-11, or the open window one draw in four.
  const auto window = static_cast<int>(rng.next_index(16));
  opt.lu3d.lookahead = window < 12 ? window : kMaxPanelLookahead;

  const auto nu = static_cast<std::size_t>(n);
  std::vector<real_t> xref(nu), b(nu), xd(nu), xt(nu);
  for (auto& v : xref) v = rng.uniform(-1, 1);
  A.spmv(xref, b);

  opt.lu3d.wire = Wire::Dense;
  SolverService dense(opt);
  const auto fd = dense.factor(A);
  const auto repd = dense.solve({b, xd, 1});
  opt.lu3d.wire = Wire::Targeted;
  SolverService targeted(opt);
  const auto ft = targeted.factor(A);
  const auto rept = targeted.solve({b, xt, 1});

  EXPECT_LT(repd.residual, 1e-11) << "seed " << seed;
  EXPECT_LT(rept.residual, 1e-11) << "seed " << seed;
  for (std::size_t i = 0; i < nu; ++i)
    ASSERT_EQ(xd[i], xt[i]) << "seed " << seed << " i=" << i;
  EXPECT_LE(ft.w_fact, fd.w_fact) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTargetedDeliveryFuzz,
                         ::testing::Range(0, 12));

/// Factors `bs` on a 2x2x1 grid on the given wire, gathers the factors
/// into `out`, and returns the run's counters.
sim::RunResult run_lu_2x2(const BlockStructure& bs, const CsrMatrix& Ap,
                          Wire wire, SupernodalMatrix* out) {
  const ForestPartition part(bs, 1);
  const LuOptions o{.wire = wire};
  std::mutex mu;
  return sim::run_ranks(4, sim::MachineModel{}, [&](sim::Comm& world) {
    auto grid = sim::ProcessGrid3D::create(world, 2, 2, 1);
    Dist2dFactors F = make_3d_factors(bs, grid, part, Ap);
    factorize_3d(F, grid, part, o);
    auto full = gather_3d_to_root(F, world, grid, part);
    if (full.has_value()) {
      const std::lock_guard<std::mutex> lock(mu);
      *out = std::move(*full);
    }
  });
}

void expect_factors_bitwise(const BlockStructure& bs, const SupernodalMatrix& a,
                            const SupernodalMatrix& b) {
  for (int s = 0; s < bs.n_snodes(); ++s) {
    const auto d = a.diag(s), d2 = b.diag(s);
    for (std::size_t i = 0; i < d.size(); ++i)
      ASSERT_EQ(d[i], d2[i]) << "diag snode " << s << " idx " << i;
    const auto l = a.lpanel(s), l2 = b.lpanel(s);
    ASSERT_EQ(l.size(), l2.size());
    for (std::size_t i = 0; i < l.size(); ++i)
      ASSERT_EQ(l[i], l2[i]) << "L snode " << s << " idx " << i;
    const auto u = a.upanel(s), u2 = b.upanel(s);
    for (std::size_t i = 0; i < u.size(); ++i)
      ASSERT_EQ(u[i], u2[i]) << "U snode " << s << " idx " << i;
  }
}

TEST(Fuzz, FullyDensePanelsSurviveSparsePacking) {
  // Near-dense matrix: the targeted frames' presence bitmaps are (almost) all
  // ones, the degenerate end of the packing format. Must stay bit-identical
  // to the dense wire, and still save bytes by skipping the entries a peer
  // never reads.
  const index_t n = 36;
  const CsrMatrix A = random_matrix(n, n * n, 4242, false);
  const SeparatorTree tree = nested_dissection(A, {.leaf_size = 6});
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  SupernodalMatrix fd(bs), ft(bs);
  const sim::RunResult rd = run_lu_2x2(bs, Ap, Wire::Dense, &fd);
  const sim::RunResult rt = run_lu_2x2(bs, Ap, Wire::Targeted, &ft);
  expect_factors_bitwise(bs, fd, ft);
  EXPECT_LT(rt.total_bytes_sent(sim::CommPlane::XY),
            rd.total_bytes_sent(sim::CommPlane::XY));
}

TEST(Fuzz, AllZeroAncestorPanelsArePrunedWholesale) {
  // Two path islands coupled to a bridge clique only through *explicit
  // zeros*: the entries exist structurally (so the separator panels are
  // allocated and delivered) but every value in them is 0.0 for the whole
  // factorization. Targeted delivery ships those entries as bitmap words
  // with no scalars, while the factors stay bit-identical to the dense
  // wire. Targeted never prunes an entry on its values (the footprint is
  // symbolic), so unlike a value-pruning wire there is no per-entry
  // message saving to assert here.
  const index_t m = 12, nb = 4;
  const index_t n = 2 * m + nb;
  CooMatrix coo(n, n);
  auto path = [&](index_t base) {
    for (index_t i = 0; i + 1 < m; ++i) {
      coo.add(base + i, base + i + 1, -1.0);
      coo.add(base + i + 1, base + i, -1.0);
    }
  };
  path(0);
  path(m);
  for (index_t i = 0; i < nb; ++i)  // bridge clique, nonzero internally
    for (index_t j = 0; j < nb; ++j)
      if (i != j) coo.add(2 * m + i, 2 * m + j, -0.5);
  for (index_t i = 0; i < m; i += 2)
    for (index_t v = 0; v < nb; ++v) {  // island <-> bridge: explicit zeros
      coo.add(i, 2 * m + v, 0.0);
      coo.add(2 * m + v, i, 0.0);
      coo.add(m + i, 2 * m + v, 0.0);
      coo.add(2 * m + v, m + i, 0.0);
    }
  for (index_t i = 0; i < n; ++i) coo.add(i, i, 4.0);
  const CsrMatrix A = CsrMatrix::from_coo(coo);
  const SeparatorTree tree = nested_dissection(A, {.leaf_size = 4});
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());

  SupernodalMatrix fd(bs), ft(bs);
  const sim::RunResult rd = run_lu_2x2(bs, Ap, Wire::Dense, &fd);
  const sim::RunResult rt = run_lu_2x2(bs, Ap, Wire::Targeted, &ft);
  expect_factors_bitwise(bs, fd, ft);
  EXPECT_LT(rt.total_bytes_sent(sim::CommPlane::XY),
            rd.total_bytes_sent(sim::CommPlane::XY));
}

TEST(Fuzz, DenseLeafMatrixSingleSupernode) {
  // Matrix small enough to be one relaxed leaf: the whole pipeline
  // degenerates to a dense factorization.
  const CsrMatrix A = random_matrix(12, 40, 77, false);
  const SeparatorTree tree = nested_dissection(A, {.leaf_size = 64});
  EXPECT_EQ(tree.n_nodes(), 1);
  const auto n = static_cast<std::size_t>(A.n_rows());
  std::vector<real_t> b(n, 1.0), x(n);
  ServiceOptions opt;
  opt.Px = 2;
  opt.Py = 2;
  opt.Pz = 1;
  opt.nd.leaf_size = 64;
  SolverService svc(opt);
  svc.factor(A);
  const auto rep = svc.solve({b, x, 1});
  EXPECT_LT(rep.residual, 1e-12);
}

TEST(Fuzz, PathGraphDeepTree) {
  // A pure path graph: the worst-case (deepest) elimination tree shape.
  const index_t n = 120;
  CooMatrix coo(n, n);
  for (index_t i = 0; i + 1 < n; ++i) {
    coo.add(i, i + 1, -1.0);
    coo.add(i + 1, i, -1.0);
  }
  for (index_t i = 0; i < n; ++i) coo.add(i, i, 2.5);
  const CsrMatrix A = CsrMatrix::from_coo(coo);
  const auto nu = static_cast<std::size_t>(n);
  std::vector<real_t> b(nu, 1.0), x(nu);
  ServiceOptions opt;
  opt.Px = 1;
  opt.Py = 2;
  opt.Pz = 4;
  opt.nd.leaf_size = 4;
  SolverService svc(opt);
  svc.factor(A);
  const auto rep = svc.solve({b, x, 1});
  EXPECT_LT(rep.residual, 1e-13);
}

TEST(Fuzz, ManyIslandsForestPartition) {
  // Heavily disconnected input: exercises empty separators and the
  // component-balancing path of the partitioner at every level.
  const index_t k = 14, m = 9;  // 14 path islands of 9 vertices
  CooMatrix coo(k * m, k * m);
  for (index_t c = 0; c < k; ++c)
    for (index_t i = 0; i + 1 < m; ++i) {
      coo.add(c * m + i, c * m + i + 1, -1.0);
      coo.add(c * m + i + 1, c * m + i, -1.0);
    }
  for (index_t i = 0; i < k * m; ++i) coo.add(i, i, 3.0);
  const CsrMatrix A = CsrMatrix::from_coo(coo);
  const auto nu = static_cast<std::size_t>(A.n_rows());
  std::vector<real_t> b(nu, 1.0), x(nu);
  ServiceOptions opt;
  opt.Px = 2;
  opt.Py = 2;
  opt.Pz = 4;
  opt.nd.leaf_size = 4;
  SolverService svc(opt);
  svc.factor(A);
  const auto rep = svc.solve({b, x, 1});
  EXPECT_LT(rep.residual, 1e-13);
}

// ---------------------------------------------------------------------------
// ParserFuzz: seeded mutations of valid MatrixMarket and platform texts.
// Every mutant must either parse or throw slu3d::Error — never crash, hang,
// allocate without bound or leak another exception type (the ASan and TSAN
// legs run these too).
// ---------------------------------------------------------------------------

/// Tokens a hostile file puts where a number belongs.
constexpr const char* kHostile[] = {
    "99999999999999999999", "2147483647", "4294967301", "-1",
    "-2147483648",          "0",          "nan",        "inf",
    "1e400",                "-0",         "x",          "",
    "1 7",                  "%",          "=",          "arity=",
};

/// One mutation of `text`: a truncation, a byte flip, a hostile token in
/// place of a field, an extra field, or a duplicated or dropped line.
std::string mutate(const std::string& text, Rng& rng) {
  std::string t = text;
  const auto pos = [&] {
    return static_cast<std::size_t>(rng.next_index(static_cast<index_t>(t.size())));
  };
  switch (rng.next_index(6)) {
    case 0:
      t.resize(pos());
      break;
    case 1:
      t[pos()] = static_cast<char>(rng.next_index(256));
      break;
    case 2: {  // replace the field that covers a random byte
      std::size_t a = pos();
      while (a > 0 && !std::isspace(static_cast<unsigned char>(t[a - 1]))) --a;
      std::size_t b = a;
      while (b < t.size() && !std::isspace(static_cast<unsigned char>(t[b]))) ++b;
      t.replace(a, b - a, kHostile[rng.next_index(std::size(kHostile))]);
      break;
    }
    case 3: {  // an extra field at the end of a line
      const std::size_t nl = t.find('\n', pos());
      t.insert(nl == std::string::npos ? t.size() : nl, " 7");
      break;
    }
    default: {  // duplicate or drop the line holding a random byte
      const std::size_t p = pos();
      const std::size_t before = t.rfind('\n', p), after = t.find('\n', p);
      const std::size_t a = before == std::string::npos ? 0 : before + 1;
      const std::size_t b = after == std::string::npos ? t.size() : after + 1;
      const std::string line = t.substr(a, b - a);
      if (rng.next_index(2) == 0)
        t.insert(a, line);
      else
        t.erase(a, b - a);
      break;
    }
  }
  return t;
}

/// Applies 1-3 mutations per mutant, `rounds` mutants per seed text, and
/// counts how many parsed. Anything but a value or an Error fails the test.
template <class Parse>
int fuzz_parser(const std::vector<std::string>& seeds, std::uint64_t seed,
                int rounds, Parse parse) {
  Rng rng(seed);
  int parsed = 0;
  for (const std::string& text : seeds)
    for (int r = 0; r < rounds; ++r) {
      std::string t = text;
      for (index_t m = 1 + rng.next_index(3); m > 0; --m)
        if (!t.empty()) t = mutate(t, rng);
      try {
        parse(t);
        ++parsed;
      } catch (const Error&) {
      }
    }
  return parsed;
}

TEST(ParserFuzz, MatrixMarketParsesOrThrowsError) {
  const std::vector<std::string> seeds = {
      "%%MatrixMarket matrix coordinate real general\n% comment\n"
      "3 3 5\n1 1 4.0\n2 1 -1.0\n2 2 4.0\n3 2 -1e-1\n3 3 4.0\n",
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 4\n1 1 2.0\n2 1 -1.0\n2 2 2.0\n3 3 1.0\n",
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 3\n1 1\n1 2\n2 2\n",
      "%%MatrixMarket matrix coordinate integer symmetric\n"
      "2 2 2\n2 1 -3\n2 2 7\n",
  };
  for (const std::string& s : seeds) {  // the seeds themselves are valid
    std::istringstream in(s);
    EXPECT_NO_THROW(read_matrix_market(in)) << s;
  }
  const int parsed = fuzz_parser(seeds, 2026, 500, [](const std::string& t) {
    std::istringstream in(t);
    const CsrMatrix A = read_matrix_market(in);
    EXPECT_GT(A.nnz(), 0);
    for (const real_t v : A.values()) EXPECT_TRUE(std::isfinite(v));
  });
  // Some mutants (a flipped comment byte, a dropped blank) stay valid.
  EXPECT_GT(parsed, 0);
}

TEST(ParserFuzz, PlatformParsesOrThrowsError) {
  const std::vector<std::string> seeds = {
      "# two-level tree\nname tiny\nalpha 3.0e-6\nbeta 2.0e-10  # wire\n"
      "gamma 1.0e-11\nlink node arity=2 latency=5.0e-7 inv_bw=7.5e-11\n"
      "link switch arity=4 latency=1.0e-6 inv_bw=3.75e-11\n",
      "name flat\nalpha 2e-6\n",
  };
  for (const std::string& s : seeds) EXPECT_NO_THROW(sim::Platform::parse(s)) << s;
  const int parsed = fuzz_parser(seeds, 7, 500, [](const std::string& t) {
    const sim::Platform p = sim::Platform::parse(t);
    EXPECT_FALSE(p.name.empty());
    // A platform that parses also lays out and routes.
    const sim::PlatformLayout layout(p, 64);
    std::vector<int> ids;
    layout.route(63, 0, ids);
    EXPECT_GE(ids.size(), 1u);
  });
  EXPECT_GT(parsed, 0);
}

}  // namespace
}  // namespace slu3d
