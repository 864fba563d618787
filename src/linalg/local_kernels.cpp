#include "linalg/local_kernels.hpp"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "linalg/kernels.hpp"
#include "linalg/local_kernels_impl.hpp"  // the portable engine copy

namespace wa::linalg {
namespace {

// Below this operand volume (m*n*k) the packing set-up of the blocked
// engine costs more than it saves; the reference loops are L1-bound
// there anyway.  Same threshold on every path so a given shape always
// takes the same summation order.
constexpr std::size_t kSmallGemm = 8192;

// Diagonal-block edge for the blocked triangular solves and SYRK: the
// triangle itself is solved by the reference kernel at this size
// while everything off-diagonal goes through the blocked GEMM.
constexpr std::size_t kTriBlock = 64;

// Sub-kSmallGemm C += alpha * A * B on a 2x2 register tile: each
// C(i, j) stays in a register across the whole ascending-k loop and
// takes C(i, j) += (alpha * A(i, k)) * B(k, j) -- the same operations
// in the same order as the reference gemm_acc, so the two are bitwise
// equal (pinned in tests/local_kernels_test.cpp), while every A and B
// element loaded feeds two products instead of one.  Odd edges take
// 2x1, 1x2 and 1x1 tiles.
template <std::size_t R, std::size_t S>
void gemm_small_tile(MatrixView<double> C, ConstMatrixView<double> A,
                     ConstMatrixView<double> B, double alpha, std::size_t i,
                     std::size_t j) {
  double c[R][S];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t t = 0; t < S; ++t) c[r][t] = C(i + r, j + t);
  }
  for (std::size_t k = 0; k < A.cols(); ++k) {
    double a[R], bk[S];
    for (std::size_t r = 0; r < R; ++r) a[r] = alpha * A(i + r, k);
    for (std::size_t t = 0; t < S; ++t) bk[t] = B(k, j + t);
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t t = 0; t < S; ++t) c[r][t] += a[r] * bk[t];
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t t = 0; t < S; ++t) C(i + r, j + t) = c[r][t];
  }
}

void gemm_small_acc(MatrixView<double> C, ConstMatrixView<double> A,
                    ConstMatrixView<double> B, double alpha) {
  const std::size_t m = C.rows(), n = C.cols();
  std::size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    std::size_t j = 0;
    for (; j + 2 <= n; j += 2) gemm_small_tile<2, 2>(C, A, B, alpha, i, j);
    if (j < n) gemm_small_tile<2, 1>(C, A, B, alpha, i, j);
  }
  if (i < m) {
    std::size_t j = 0;
    for (; j + 2 <= n; j += 2) gemm_small_tile<1, 2>(C, A, B, alpha, i, j);
    if (j < n) gemm_small_tile<1, 1>(C, A, B, alpha, i, j);
  }
}

void gemm_dispatch(MatrixView<double> C, ConstMatrixView<double> A,
                   ConstMatrixView<double> B, double alpha,
                   bool b_transposed) {
  if (b_transposed) {
    assert(C.rows() == A.rows() && A.cols() == B.cols() &&
           C.cols() == B.rows());
  } else {
    assert(C.rows() == A.rows() && A.cols() == B.rows() &&
           C.cols() == B.cols());
  }
  if (C.rows() * C.cols() * A.cols() < kSmallGemm) {
    if (b_transposed) {
      gemm_acc_bt(C, A, B, alpha);
    } else {
      gemm_small_acc(C, A, B, alpha);
    }
    return;
  }
  if (detail::gemm_blocked_simd(C, A, B, alpha, b_transposed)) return;
  lk_engine::gemm_blocked<4, 8>(C, A, B, alpha, b_transposed,
                                &lk_engine::generic_micro<4, 8>);
}

void gemm_acc_blocked(MatrixView<double> C, ConstMatrixView<double> A,
                      ConstMatrixView<double> B, double alpha) {
  gemm_dispatch(C, A, B, alpha, false);
}

void gemm_acc_bt_blocked(MatrixView<double> C, ConstMatrixView<double> A,
                         ConstMatrixView<double> B, double alpha) {
  gemm_dispatch(C, A, B, alpha, true);
}

// ---- blocked triangular solves ------------------------------------------
//
// Each variant peels kTriBlock-wide diagonal blocks (solved by the
// reference kernel) and pushes the panel updates -- all the O(n^3)
// work -- through the blocked GEMM.  Summation order differs from the
// reference back-substitution, covered by the parity tolerances.

void trsm_left_upper_blocked(ConstMatrixView<double> T,
                             MatrixView<double> B) {
  assert(T.rows() == T.cols() && T.rows() == B.rows());
  const std::size_t n = T.rows(), nrhs = B.cols();
  if (n <= kTriBlock) {
    trsm_left_upper(T, B);
    return;
  }
  const std::size_t nb = (n + kTriBlock - 1) / kTriBlock;
  for (std::size_t bi = nb; bi-- > 0;) {
    const std::size_t i0 = bi * kTriBlock;
    const std::size_t sz = std::min(kTriBlock, n - i0);
    const std::size_t below = n - (i0 + sz);
    if (below > 0) {
      gemm_dispatch(B.block(i0, 0, sz, nrhs), T.block(i0, i0 + sz, sz, below),
                    B.block(i0 + sz, 0, below, nrhs), -1.0, false);
    }
    trsm_left_upper(T.block(i0, i0, sz, sz), B.block(i0, 0, sz, nrhs));
  }
}

void trsm_left_lower_blocked_impl(ConstMatrixView<double> L,
                                  MatrixView<double> B, bool unit) {
  assert(L.rows() == L.cols() && L.rows() == B.rows());
  const std::size_t n = L.rows(), nrhs = B.cols();
  if (n <= kTriBlock) {
    unit ? trsm_left_unit_lower(L, B) : trsm_left_lower(L, B);
    return;
  }
  for (std::size_t i0 = 0; i0 < n; i0 += kTriBlock) {
    const std::size_t sz = std::min(kTriBlock, n - i0);
    if (i0 > 0) {
      gemm_dispatch(B.block(i0, 0, sz, nrhs), L.block(i0, 0, sz, i0),
                    B.block(0, 0, i0, nrhs), -1.0, false);
    }
    auto diag = L.block(i0, i0, sz, sz);
    auto rhs = B.block(i0, 0, sz, nrhs);
    unit ? trsm_left_unit_lower(diag, rhs) : trsm_left_lower(diag, rhs);
  }
}

void trsm_left_lower_blocked(ConstMatrixView<double> L,
                             MatrixView<double> B) {
  trsm_left_lower_blocked_impl(L, B, false);
}

void trsm_left_unit_lower_blocked(ConstMatrixView<double> L,
                                  MatrixView<double> B) {
  trsm_left_lower_blocked_impl(L, B, true);
}

void trsm_right_lower_t_blocked(ConstMatrixView<double> L,
                                MatrixView<double> B) {
  assert(L.rows() == L.cols() && L.rows() == B.cols());
  const std::size_t n = L.rows(), m = B.rows();
  if (n <= kTriBlock) {
    trsm_right_lower_t(L, B);
    return;
  }
  for (std::size_t j0 = 0; j0 < n; j0 += kTriBlock) {
    const std::size_t sz = std::min(kTriBlock, n - j0);
    if (j0 > 0) {
      gemm_dispatch(B.block(0, j0, m, sz), B.block(0, 0, m, j0),
                    L.block(j0, 0, sz, j0), -1.0, true);
    }
    trsm_right_lower_t(L.block(j0, j0, sz, sz), B.block(0, j0, m, sz));
  }
}

void trsm_right_upper_blocked(ConstMatrixView<double> U,
                              MatrixView<double> B) {
  assert(U.rows() == U.cols() && U.rows() == B.cols());
  const std::size_t n = U.rows(), m = B.rows();
  if (n <= kTriBlock) {
    trsm_right_upper(U, B);
    return;
  }
  for (std::size_t j0 = 0; j0 < n; j0 += kTriBlock) {
    const std::size_t sz = std::min(kTriBlock, n - j0);
    if (j0 > 0) {
      gemm_dispatch(B.block(0, j0, m, sz), B.block(0, 0, m, j0),
                    U.block(0, j0, j0, sz), -1.0, false);
    }
    trsm_right_upper(U.block(j0, j0, sz, sz), B.block(0, j0, m, sz));
  }
}

// Panel-shaped SYRK: n small (a diagonal block or a skinny n x b
// Gram-like panel), k long.  The reference kernel walks one (i, j)
// dot product at a time, reloading L1's row per j; here four
// accumulator chains per L1 row stream the contiguous L2 rows once
// per 4-wide j group and hide the FMA latency on the long k axis.
// Summation still runs k in ascending order per entry (syrk carries
// no bitwise contract, but determinism is free).
void syrk_panel_acc(MatrixView<double> A, ConstMatrixView<double> L1,
                    ConstMatrixView<double> L2) {
  const std::size_t n = A.rows(), k = L1.cols();
  for (std::size_t i = 0; i < n; ++i) {
    const double* r1 = &L1(i, 0);
    std::size_t j = 0;
    for (; j + 4 <= i + 1; j += 4) {
      const double* w0 = &L2(j, 0);
      const double* w1 = &L2(j + 1, 0);
      const double* w2 = &L2(j + 2, 0);
      const double* w3 = &L2(j + 3, 0);
      double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double v = r1[kk];
        s0 += v * w0[kk];
        s1 += v * w1[kk];
        s2 += v * w2[kk];
        s3 += v * w3[kk];
      }
      A(i, j) -= s0;
      A(i, j + 1) -= s1;
      A(i, j + 2) -= s2;
      A(i, j + 3) -= s3;
    }
    for (; j <= i; ++j) {
      const double* wj = &L2(j, 0);
      double s = 0;
      for (std::size_t kk = 0; kk < k; ++kk) s += r1[kk] * wj[kk];
      A(i, j) -= s;
    }
  }
}

// Small-n dispatch shared by the panel case and the diagonal blocks
// of the big-n path: the reference loops win only when the whole
// operand volume is tiny; past the kSmallGemm volume the long k axis
// pays for the panel kernel's accumulator chains.
void syrk_small(MatrixView<double> A, ConstMatrixView<double> L1,
                ConstMatrixView<double> L2) {
  const std::size_t n = A.rows(), k = L1.cols();
  if (n * n * k < kSmallGemm) {
    syrk_lower_acc(A, L1, L2);
    return;
  }
  syrk_panel_acc(A, L1, L2);
}

void syrk_lower_acc_blocked(MatrixView<double> A, ConstMatrixView<double> L1,
                            ConstMatrixView<double> L2) {
  assert(A.rows() == A.cols() && L1.rows() == A.rows() &&
         L2.rows() == A.rows() && L1.cols() == L2.cols());
  const std::size_t n = A.rows(), k = L1.cols();
  if (n <= kTriBlock) {
    syrk_small(A, L1, L2);
    return;
  }
  for (std::size_t i0 = 0; i0 < n; i0 += kTriBlock) {
    const std::size_t sz = std::min(kTriBlock, n - i0);
    if (i0 > 0) {
      // The strictly-lower block row is a full rectangle: blocked GEMM.
      gemm_dispatch(A.block(i0, 0, sz, i0), L1.block(i0, 0, sz, k),
                    L2.block(0, 0, i0, k), -1.0, true);
    }
    syrk_small(A.block(i0, i0, sz, sz), L1.block(i0, 0, sz, k),
               L2.block(i0, 0, sz, k));
  }
}

// ---- Gram kernels --------------------------------------------------------
//
// Both implementations accumulate every G(a, c) entry as one serial
// chain in ascending i (see the contract in local_kernels.hpp), so
// they are bitwise-identical to each other and invariant under call
// splitting; the blocked one only improves locality and ILP.

void gram_upper_acc_naive(double* g, std::size_t m,
                          const double* const* cols, std::size_t lo,
                          std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    for (std::size_t a = 0; a < m; ++a) {
      for (std::size_t c = a; c < m; ++c) {
        g[a * m + c] += cols[a][i] * cols[c][i];
      }
    }
  }
}

void gram_upper_acc_blocked(double* g, std::size_t m,
                            const double* const* cols, std::size_t lo,
                            std::size_t hi) {
  // L1-sized column chunks; within a chunk, four independent
  // accumulator chains per pivot column a amortize the load of
  // cols[a][i] and hide the add latency.  Each chain still visits i
  // in ascending order, preserving the bitwise contract.
  constexpr std::size_t kChunk = 1024;
  for (std::size_t i0 = lo; i0 < hi; i0 += kChunk) {
    const std::size_t i1 = std::min(hi, i0 + kChunk);
    for (std::size_t a = 0; a < m; ++a) {
      const double* wa = cols[a];
      double* grow = g + a * m;
      std::size_t c = a;
      for (; c + 4 <= m; c += 4) {
        const double* w0 = cols[c];
        const double* w1 = cols[c + 1];
        const double* w2 = cols[c + 2];
        const double* w3 = cols[c + 3];
        double g0 = grow[c], g1 = grow[c + 1];
        double g2 = grow[c + 2], g3 = grow[c + 3];
        for (std::size_t i = i0; i < i1; ++i) {
          const double v = wa[i];
          g0 += v * w0[i];
          g1 += v * w1[i];
          g2 += v * w2[i];
          g3 += v * w3[i];
        }
        grow[c] = g0;
        grow[c + 1] = g1;
        grow[c + 2] = g2;
        grow[c + 3] = g3;
      }
      for (; c < m; ++c) {
        const double* wc = cols[c];
        double gg = grow[c];
        for (std::size_t i = i0; i < i1; ++i) gg += wa[i] * wc[i];
        grow[c] = gg;
      }
    }
  }
}

// ---- the tables ----------------------------------------------------------

constexpr LocalKernels kNaiveTable = {
    KernelImpl::kNaive,
    "naive",
    &gemm_acc,
    &gemm_acc_bt,
    &trsm_left_upper,
    &trsm_left_lower,
    &trsm_left_unit_lower,
    &trsm_right_lower_t,
    &trsm_right_upper,
    &syrk_lower_acc,
    &gram_upper_acc_naive,
};

constexpr LocalKernels kBlockedTable = {
    KernelImpl::kBlocked,
    "blocked",
    &gemm_acc_blocked,
    &gemm_acc_bt_blocked,
    &trsm_left_upper_blocked,
    &trsm_left_lower_blocked,
    &trsm_left_unit_lower_blocked,
    &trsm_right_lower_t_blocked,
    &trsm_right_upper_blocked,
    &syrk_lower_acc_blocked,
    &gram_upper_acc_blocked,
};

std::atomic<const LocalKernels*> g_active{nullptr};

}  // namespace

const LocalKernels& naive_kernels() { return kNaiveTable; }
const LocalKernels& blocked_kernels() { return kBlockedTable; }

const LocalKernels& kernels(KernelImpl impl) {
  return impl == KernelImpl::kNaive ? kNaiveTable : kBlockedTable;
}

KernelImpl kernels_from_env() {
  const char* s = std::getenv("WA_KERNELS");
  if (s == nullptr || *s == '\0') return KernelImpl::kBlocked;
  const std::string v(s);
  if (v == "naive") return KernelImpl::kNaive;
  if (v == "blocked") return KernelImpl::kBlocked;
  throw std::invalid_argument(
      "kernels_from_env: WA_KERNELS must be naive|blocked, got '" + v + "'");
}

const LocalKernels& active_kernels() {
  const LocalKernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    // First use: resolve WA_KERNELS.  A racing second thread resolves
    // the same env, so the exchange can only install the same table.
    const LocalKernels* want = &kernels(kernels_from_env());
    g_active.store(want, std::memory_order_release);
    k = want;
  }
  return *k;
}

KernelImpl set_active_kernels(KernelImpl impl) {
  const KernelImpl prev = active_kernels().impl;
  g_active.store(&kernels(impl), std::memory_order_release);
  return prev;
}

}  // namespace wa::linalg
