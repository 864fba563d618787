// The LocalKernels seam (linalg/local_kernels.hpp): naive/blocked
// numeric parity on ragged shapes, strided sub-views, and alpha != 1;
// the bitwise Gram contract (blocked == naive, call-split invariant);
// WA_KERNELS selection; and the seam's central invariant -- switching
// kernel implementations changes not a single simulator counter on
// any distributed algorithm, and the threaded backend stays
// bitwise-identical to serial under the blocked kernels.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <vector>

#include "dist/backend.hpp"
#include "dist/krylov.hpp"
#include "dist/lu.hpp"
#include "dist/machine.hpp"
#include "dist/summa.hpp"
#include "krylov/cacg.hpp"
#include "linalg/kernels.hpp"
#include "linalg/local_kernels.hpp"
#include "linalg/matrix.hpp"
#include "sparse/csr.hpp"

namespace wa {
namespace {

using krylov::CaCgMode;
using krylov::CaCgOptions;

/// Restores the process-wide active kernel table on scope exit, so a
/// failing test cannot leak its choice into later suites.
class KernelGuard {
 public:
  explicit KernelGuard(linalg::KernelImpl impl)
      : prev_(linalg::set_active_kernels(impl)) {}
  ~KernelGuard() { linalg::set_active_kernels(prev_); }
  KernelGuard(const KernelGuard&) = delete;
  KernelGuard& operator=(const KernelGuard&) = delete;

 private:
  linalg::KernelImpl prev_;
};

// ---- dense parity: blocked vs naive --------------------------------------

TEST(LocalKernels, GemmParityOnRaggedShapes) {
  const auto& nk = linalg::naive_kernels();
  const auto& bk = linalg::blocked_kernels();
  const struct {
    std::size_t m, n, k;
  } shapes[] = {{1, 1, 1},   {7, 5, 3},     {64, 64, 64},
                {65, 63, 66}, {96, 128, 96}, {317, 200, 129}};
  for (const auto& sh : shapes) {
    for (const double alpha : {1.0, -0.7}) {
      linalg::Matrix<double> a(sh.m, sh.k), b(sh.k, sh.n);
      linalg::fill_random(a, 1);
      linalg::fill_random(b, 2);
      linalg::Matrix<double> c0(sh.m, sh.n), c1(sh.m, sh.n);
      linalg::fill_random(c0, 3);
      c1 = c0;
      nk.gemm_acc(c0.view(), a.view(), b.view(), alpha);
      bk.gemm_acc(c1.view(), a.view(), b.view(), alpha);
      EXPECT_LT(linalg::max_abs_diff(c0, c1), 1e-10)
          << sh.m << "x" << sh.n << "x" << sh.k << " alpha=" << alpha;
    }
  }
}

TEST(LocalKernels, GemmBtParityMatchesExplicitTranspose) {
  const auto& bk = linalg::blocked_kernels();
  const std::size_t m = 130, n = 75, k = 97;
  linalg::Matrix<double> a(m, k), bt(n, k), c(m, n, 0.0), ref(m, n, 0.0);
  linalg::fill_random(a, 4);
  linalg::fill_random(bt, 5);
  bk.gemm_acc_bt(c.view(), a.view(), bt.view(), -1.5);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t l = 0; l < k; ++l) ref(i, j) -= 1.5 * a(i, l) * bt(j, l);
  EXPECT_LT(linalg::max_abs_diff(c, ref), 1e-10);
}

TEST(LocalKernels, GemmParityOnStridedSubViews) {
  // Operate on interior blocks of larger matrices so every view is
  // strided; the frame around each block must stay untouched.
  const std::size_t N = 200, off = 17, m = 150, n = 140, k = 160;
  linalg::Matrix<double> a(N, N), b(N, N), c0(N, N), c1(N, N);
  linalg::fill_random(a, 6);
  linalg::fill_random(b, 7);
  linalg::fill_random(c0, 8);
  c1 = c0;
  linalg::naive_kernels().gemm_acc(c0.block(off, off, m, n),
                                   a.block(off, off, m, k),
                                   b.block(off, off, k, n), 2.5);
  linalg::blocked_kernels().gemm_acc(c1.block(off, off, m, n),
                                     a.block(off, off, m, k),
                                     b.block(off, off, k, n), 2.5);
  EXPECT_LT(linalg::max_abs_diff(c0, c1), 1e-10);
  // The frame: bitwise untouched by the blocked path.
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = 0; j < N; ++j) {
      if (i >= off && i < off + m && j >= off && j < off + n) continue;
      ASSERT_EQ(c0(i, j), c1(i, j)) << i << "," << j;
    }
  }
}

TEST(LocalKernels, SmallGemmBitwiseEqualsReference) {
  // Below the blocked engine's cutoff (m*n*k < 8192) the blocked table
  // runs a 2x2 register tile that keeps each C(i, j) in a register over
  // ascending k: the reference rounding chain, so memcmp-equal to
  // linalg::gemm_acc -- ragged and odd edges, strided views, k = 0.
  const struct {
    std::size_t m, n, k;
  } shapes[] = {{1, 1, 1},  {2, 2, 2},   {3, 5, 7},  {5, 3, 0},
                {2, 2, 382}, {7, 9, 64}, {1, 17, 31}, {16, 16, 31},
                {19, 21, 20}, {0, 3, 4}, {3, 0, 4},  {2, 62, 64}};
  for (const auto& sh : shapes) {
    ASSERT_LT(sh.m * sh.n * sh.k, 8192u);
    for (const double alpha : {1.0, -1.0, 0.37}) {
      for (const bool strided : {false, true}) {
        // Strided: every operand is an interior block of a larger
        // matrix, and the frame around C must survive bit for bit.
        const std::size_t pad = strided ? 3 : 0;
        linalg::Matrix<double> a(sh.m + pad, sh.k + 2 * pad);
        linalg::Matrix<double> b(sh.k + pad, sh.n + 2 * pad);
        linalg::Matrix<double> c0(sh.m + 2 * pad, sh.n + pad);
        linalg::fill_random(a, 21);
        linalg::fill_random(b, 22);
        linalg::fill_random(c0, 23);
        linalg::Matrix<double> c1 = c0;
        const auto av = a.view().block(pad, pad, sh.m, sh.k);
        const auto bv = b.view().block(pad, pad, sh.k, sh.n);
        linalg::gemm_acc(c0.view().block(pad, pad, sh.m, sh.n), av, bv, alpha);
        linalg::blocked_kernels().gemm_acc(
            c1.view().block(pad, pad, sh.m, sh.n), av, bv, alpha);
        EXPECT_EQ(0, std::memcmp(c0.data(), c1.data(),
                                 c0.size() * sizeof(double)))
            << sh.m << "x" << sh.n << "x" << sh.k << " alpha=" << alpha
            << " strided=" << strided;
      }
    }
  }
}

TEST(LocalKernels, TrsmParityAllVariants) {
  for (const std::size_t n : {8u, 64u, 100u, 192u}) {
    const std::size_t nrhs = n / 2 + 3;
    auto u = linalg::random_upper_triangular(n, 9);
    linalg::Matrix<double> l(n, n);
    linalg::fill_random(l, 10);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) l(i, j) = 0.0;
      l(i, i) = 3.0 + std::abs(l(i, i));
    }
    const auto check = [&](auto solve_naive, auto solve_blocked,
                           const linalg::Matrix<double>& t, bool right,
                           const char* who) {
      linalg::Matrix<double> b0 = right
                                      ? linalg::Matrix<double>(nrhs, n)
                                      : linalg::Matrix<double>(n, nrhs);
      linalg::fill_random(b0, 11);
      linalg::Matrix<double> b1 = b0;
      solve_naive(t.view(), b0.view());
      solve_blocked(t.view(), b1.view());
      EXPECT_LT(linalg::max_abs_diff(b0, b1), 1e-9) << who << " n=" << n;
    };
    // The unit-lower solve ignores the diagonal, so O(1) off-diagonal
    // entries would grow the solution exponentially in n and swamp the
    // parity tolerance; damp them to keep the solve well conditioned.
    linalg::Matrix<double> lu_mat = l;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < i; ++j) lu_mat(i, j) /= double(n);
    }
    const auto& nk = linalg::naive_kernels();
    const auto& bk = linalg::blocked_kernels();
    check(nk.trsm_left_upper, bk.trsm_left_upper, u, false, "left_upper");
    check(nk.trsm_left_lower, bk.trsm_left_lower, l, false, "left_lower");
    check(nk.trsm_left_unit_lower, bk.trsm_left_unit_lower, lu_mat, false,
          "left_unit_lower");
    check(nk.trsm_right_lower_t, bk.trsm_right_lower_t, l, true,
          "right_lower_t");
    check(nk.trsm_right_upper, bk.trsm_right_upper, u, true, "right_upper");
  }
}

TEST(LocalKernels, SyrkParityTouchesOnlyLowerTriangle) {
  const std::size_t n = 150, k = 90;
  linalg::Matrix<double> l1(n, k), l2(n, k);
  linalg::fill_random(l1, 12);
  linalg::fill_random(l2, 13);
  linalg::Matrix<double> a0(n, n), a1(n, n);
  linalg::fill_random(a0, 14);
  a1 = a0;
  linalg::naive_kernels().syrk_lower_acc(a0.view(), l1.view(), l2.view());
  linalg::blocked_kernels().syrk_lower_acc(a1.view(), l1.view(), l2.view());
  EXPECT_LT(linalg::max_abs_diff(a0, a1), 1e-10);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      ASSERT_EQ(a0(i, j), a1(i, j));  // strictly-upper: untouched
    }
  }
}

TEST(LocalKernels, SyrkPanelShapeParity) {
  // The batched-Krylov Gram shape: a tiny output (m <= 16) against a
  // long inner dimension, which the blocked table sends down the
  // accumulator-chain panel leg once m*m*k clears the small-case bar.
  // syrk carries no bitwise contract, so this is a tolerance check.
  for (const std::size_t m : {5, 16}) {
    for (const std::size_t k : {33, 4096}) {
      linalg::Matrix<double> l1(m, k), l2(m, k);
      linalg::fill_random(l1, unsigned(20 + m));
      linalg::fill_random(l2, unsigned(30 + k));
      linalg::Matrix<double> a0(m, m), a1(m, m);
      linalg::fill_random(a0, 17);
      a1 = a0;
      linalg::naive_kernels().syrk_lower_acc(a0.view(), l1.view(), l2.view());
      linalg::blocked_kernels().syrk_lower_acc(a1.view(), l1.view(),
                                               l2.view());
      EXPECT_LT(linalg::max_abs_diff(a0, a1), 1e-10)
          << "m=" << m << " k=" << k;
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = i + 1; j < m; ++j) {
          ASSERT_EQ(a0(i, j), a1(i, j));  // strictly-upper: untouched
        }
      }
    }
  }
}

// ---- the Gram contract ---------------------------------------------------

TEST(LocalKernels, GramBlockedBitwiseEqualsNaive) {
  const std::size_t m = 7, n = 3000;  // m % 4 != 0, n crosses a chunk
  std::vector<std::vector<double>> w(m, std::vector<double>(n));
  std::mt19937_64 rng(15);
  std::uniform_real_distribution<double> dist(-1, 1);
  for (auto& col : w)
    for (auto& v : col) v = dist(rng);
  std::vector<const double*> cols(m);
  for (std::size_t a = 0; a < m; ++a) cols[a] = w[a].data();

  std::vector<double> g0(m * m, 0.25), g1(m * m, 0.25);
  linalg::naive_kernels().gram_upper_acc(g0.data(), m, cols.data(), 0, n);
  linalg::blocked_kernels().gram_upper_acc(g1.data(), m, cols.data(), 0, n);
  EXPECT_EQ(0, std::memcmp(g0.data(), g1.data(), m * m * sizeof(double)));
}

TEST(LocalKernels, GramIsCallSplitInvariant) {
  // One call over [0, n) must be bitwise-equal to any chain of calls
  // over consecutive subranges -- the contract that lets the dist
  // solvers split Gram accumulation per mesh-line run and stay
  // bitwise-identical to the shared-memory solver.
  const std::size_t m = 6, n = 1000;
  std::vector<std::vector<double>> w(m, std::vector<double>(n));
  std::mt19937_64 rng(16);
  std::uniform_real_distribution<double> dist(-1, 1);
  for (auto& col : w)
    for (auto& v : col) v = dist(rng);
  std::vector<const double*> cols(m);
  for (std::size_t a = 0; a < m; ++a) cols[a] = w[a].data();

  for (const auto* k : {&linalg::naive_kernels(), &linalg::blocked_kernels()}) {
    std::vector<double> whole(m * m, 0.0), split(m * m, 0.0);
    k->gram_upper_acc(whole.data(), m, cols.data(), 0, n);
    const std::size_t cuts[] = {0, 1, 97, 512, 513, 999, n};
    for (std::size_t c = 0; c + 1 < std::size(cuts); ++c) {
      k->gram_upper_acc(split.data(), m, cols.data(), cuts[c], cuts[c + 1]);
    }
    EXPECT_EQ(0,
              std::memcmp(whole.data(), split.data(), m * m * sizeof(double)))
        << k->name;
  }
}

TEST(LocalKernels, GramMatchesFullProduct) {
  const std::size_t m = 5, n = 400;
  std::vector<std::vector<double>> w(m, std::vector<double>(n));
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> dist(-1, 1);
  for (auto& col : w)
    for (auto& v : col) v = dist(rng);
  std::vector<const double*> cols(m);
  for (std::size_t a = 0; a < m; ++a) cols[a] = w[a].data();

  std::vector<double> g(m * m, 0.0);
  linalg::blocked_kernels().gram_upper_acc(g.data(), m, cols.data(), 0, n);
  linalg::gram_mirror(g.data(), m);
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t c = 0; c < m; ++c) {
      double ref = 0.0;
      for (std::size_t i = 0; i < n; ++i) ref += w[a][i] * w[c][i];
      EXPECT_NEAR(g[a * m + c], ref, 1e-10 * n);
    }
  }
}

// ---- WA_KERNELS selection ------------------------------------------------

TEST(LocalKernels, KernelsFromEnv) {
  const char* old = std::getenv("WA_KERNELS");
  const std::string saved = old != nullptr ? old : "";

  unsetenv("WA_KERNELS");
  EXPECT_EQ(linalg::kernels_from_env(), linalg::KernelImpl::kBlocked);
  setenv("WA_KERNELS", "naive", 1);
  EXPECT_EQ(linalg::kernels_from_env(), linalg::KernelImpl::kNaive);
  setenv("WA_KERNELS", "blocked", 1);
  EXPECT_EQ(linalg::kernels_from_env(), linalg::KernelImpl::kBlocked);
  setenv("WA_KERNELS", "turbo", 1);
  EXPECT_THROW(linalg::kernels_from_env(), std::invalid_argument);

  if (old != nullptr) {
    setenv("WA_KERNELS", saved.c_str(), 1);
  } else {
    unsetenv("WA_KERNELS");
  }
  // The dist-layer forwarder is the same parse.
  EXPECT_EQ(dist::kernels_from_env(), linalg::kernels_from_env());
}

TEST(LocalKernels, SetActiveKernelsSwapsAndReturnsPrevious) {
  KernelGuard guard(linalg::KernelImpl::kBlocked);
  EXPECT_EQ(linalg::active_kernels().impl, linalg::KernelImpl::kBlocked);
  const auto prev = linalg::set_active_kernels(linalg::KernelImpl::kNaive);
  EXPECT_EQ(prev, linalg::KernelImpl::kBlocked);
  EXPECT_EQ(linalg::active_kernels().impl, linalg::KernelImpl::kNaive);
}

// ---- counter invariance across the distributed algorithms ----------------

dist::Machine make_machine(std::size_t P,
                           std::unique_ptr<dist::Backend> backend = nullptr) {
  return dist::Machine(P, 192, 4096, 1 << 24, dist::HwParams{},
                       std::move(backend));
}

void expect_traffic_identical(const dist::Machine& x, const dist::Machine& y,
                              const char* who) {
  ASSERT_EQ(x.nprocs(), y.nprocs());
  const auto eq = [&](const dist::ChanCount& a, const dist::ChanCount& b,
                      const char* chan, std::size_t p) {
    EXPECT_EQ(a.words, b.words) << who << " " << chan << " rank " << p;
    EXPECT_EQ(a.messages, b.messages) << who << " " << chan << " rank " << p;
  };
  for (std::size_t p = 0; p < x.nprocs(); ++p) {
    const dist::ProcTraffic& a = x.proc(p);
    const dist::ProcTraffic& b = y.proc(p);
    eq(a.nw, b.nw, "nw", p);
    eq(a.l3_read, b.l3_read, "l3_read", p);
    eq(a.l3_write, b.l3_write, "l3_write", p);
    eq(a.l2_read, b.l2_read, "l2_read", p);
    eq(a.l2_write, b.l2_write, "l2_write", p);
  }
}

TEST(LocalKernels, SummaCountersInvariantUnderKernelChoice) {
  const std::size_t n = 64, P = 4;
  linalg::Matrix<double> a(n, n), b(n, n);
  linalg::fill_random(a, 18);
  linalg::fill_random(b, 19);

  linalg::Matrix<double> c_naive(n, n, 0.0), c_blocked(n, n, 0.0);
  dist::Machine m_naive = make_machine(P);
  dist::Machine m_blocked = make_machine(P);
  {
    KernelGuard g(linalg::KernelImpl::kNaive);
    dist::summa_2d(m_naive, c_naive.view(), a.view(), b.view());
  }
  {
    KernelGuard g(linalg::KernelImpl::kBlocked);
    dist::summa_2d(m_blocked, c_blocked.view(), a.view(), b.view());
  }
  expect_traffic_identical(m_naive, m_blocked, "summa_2d");
  EXPECT_LT(linalg::max_abs_diff(c_naive, c_blocked), 1e-11);
}

TEST(LocalKernels, LuCountersInvariantUnderKernelChoice) {
  const std::size_t n = 96, P = 4, bs = 16;
  const auto a0 = linalg::random_spd(n, 20);

  for (const bool left : {false, true}) {
    linalg::Matrix<double> a_naive = a0, a_blocked = a0;
    dist::Machine m_naive = make_machine(P);
    dist::Machine m_blocked = make_machine(P);
    {
      KernelGuard g(linalg::KernelImpl::kNaive);
      left ? dist::lu_left_looking(m_naive, a_naive.view(), bs, 2)
           : dist::lu_right_looking(m_naive, a_naive.view(), bs);
    }
    {
      KernelGuard g(linalg::KernelImpl::kBlocked);
      left ? dist::lu_left_looking(m_blocked, a_blocked.view(), bs, 2)
           : dist::lu_right_looking(m_blocked, a_blocked.view(), bs);
    }
    expect_traffic_identical(m_naive, m_blocked,
                             left ? "lu_left_looking" : "lu_right_looking");
    EXPECT_LT(linalg::max_abs_diff(a_naive, a_blocked), 1e-8);
  }
}

TEST(LocalKernels, LeftLookingLuPanelTwoBitwiseAcrossKernels) {
  // At b = 2 every LL product -- one fused gemm over all prior panels
  // per owned 2-row block, at most 2 x 2 x 94 -- stays under the
  // blocked engine's cutoff, every triangle under kTriBlock, so the
  // whole factorization is bitwise-identical under kNaive and kBlocked.
  const std::size_t n = 96, P = 4;
  const auto a0 = linalg::random_spd(n, 24);
  linalg::Matrix<double> a_naive = a0, a_blocked = a0;
  dist::Machine m_naive = make_machine(P);
  dist::Machine m_blocked = make_machine(P);
  {
    KernelGuard g(linalg::KernelImpl::kNaive);
    dist::lu_left_looking(m_naive, a_naive.view(), 2, 2);
  }
  {
    KernelGuard g(linalg::KernelImpl::kBlocked);
    dist::lu_left_looking(m_blocked, a_blocked.view(), 2, 2);
  }
  expect_traffic_identical(m_naive, m_blocked, "lu_left_looking b=2");
  EXPECT_EQ(0, std::memcmp(a_naive.data(), a_blocked.data(),
                           a_naive.size() * sizeof(double)));
}

TEST(LocalKernels, CaCgCountersInvariantUnderKernelChoice) {
  const std::size_t n = 200, P = 4;
  const auto A = sparse::stencil_1d(n, 2);
  std::vector<double> xt(n);
  std::mt19937_64 rng(21);
  std::uniform_real_distribution<double> dist01(-1, 1);
  for (auto& v : xt) v = dist01(rng);
  std::vector<double> b(n);
  sparse::spmv(A, xt, b);

  for (const CaCgMode mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
    CaCgOptions opt;
    opt.s = 4;
    opt.mode = mode;
    opt.max_outer = 30;

    std::vector<double> x_naive(n, 0.0), x_blocked(n, 0.0);
    dist::Machine m_naive = make_machine(P);
    dist::Machine m_blocked = make_machine(P);
    {
      KernelGuard g(linalg::KernelImpl::kNaive);
      dist::ca_cg(m_naive, A, b, x_naive, opt);
    }
    {
      KernelGuard g(linalg::KernelImpl::kBlocked);
      dist::ca_cg(m_blocked, A, b, x_blocked, opt);
    }
    expect_traffic_identical(m_naive, m_blocked, "ca_cg");
    // The Gram contract makes the whole solve bitwise-reproducible
    // across kernel choices, not merely close.
    EXPECT_EQ(0, std::memcmp(x_naive.data(), x_blocked.data(),
                             n * sizeof(double)));
  }
}

TEST(LocalKernels, ThreadedBackendBitwiseIdenticalUnderBlocked) {
  KernelGuard guard(linalg::KernelImpl::kBlocked);
  const std::size_t n = 200, P = 4;
  const auto A = sparse::stencil_1d(n, 2);
  std::vector<double> xt(n);
  std::mt19937_64 rng(22);
  std::uniform_real_distribution<double> dist01(-1, 1);
  for (auto& v : xt) v = dist01(rng);
  std::vector<double> b(n);
  sparse::spmv(A, xt, b);

  for (const CaCgMode mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
    CaCgOptions opt;
    opt.s = 4;
    opt.mode = mode;
    opt.max_outer = 30;

    std::vector<double> x_serial(n, 0.0), x_threaded(n, 0.0);
    dist::Machine m_serial = make_machine(P);
    dist::Machine m_threaded =
        make_machine(P, dist::make_backend("threaded", 3));
    dist::ca_cg(m_serial, A, b, x_serial, opt);
    dist::ca_cg(m_threaded, A, b, x_threaded, opt);
    expect_traffic_identical(m_serial, m_threaded, "ca_cg threaded");
    EXPECT_EQ(0, std::memcmp(x_serial.data(), x_threaded.data(),
                             n * sizeof(double)));
  }

  // SUMMA: serial and threaded must agree bitwise on the product too.
  linalg::Matrix<double> a(64, 64), bm(64, 64);
  linalg::fill_random(a, 23);
  linalg::fill_random(bm, 24);
  linalg::Matrix<double> c_serial(64, 64, 0.0), c_threaded(64, 64, 0.0);
  dist::Machine ms = make_machine(P);
  dist::Machine mt = make_machine(P, dist::make_backend("threaded", 3));
  dist::summa_2d(ms, c_serial.view(), a.view(), bm.view());
  dist::summa_2d(mt, c_threaded.view(), a.view(), bm.view());
  expect_traffic_identical(ms, mt, "summa threaded");
  EXPECT_EQ(0, std::memcmp(c_serial.data(), c_threaded.data(),
                           64 * 64 * sizeof(double)));
}

}  // namespace
}  // namespace wa
