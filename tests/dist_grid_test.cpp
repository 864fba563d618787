// Tests for the topology layer (ProcessGrid / ProcessGrid3D: rank
// mapping, padded block decomposition, k-panel refinement, irregular
// processor counts) and the execution layer (SerialSimBackend vs
// ThreadedBackend determinism, wall-clock accounting, capacity
// enforcement across threads) introduced by the dist refactor, plus
// the reduce-vs-bcast counter distinction.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "dist/backend.hpp"
#include "dist/grid.hpp"
#include "dist/lu.hpp"
#include "dist/machine.hpp"
#include "dist/mm25d.hpp"
#include "dist/summa.hpp"
#include "linalg/kernels.hpp"

namespace wa::dist {
namespace {

using linalg::Matrix;

Matrix<double> reference_product(const Matrix<double>& a,
                                 const Matrix<double>& b) {
  Matrix<double> c(a.rows(), b.cols(), 0.0);
  linalg::gemm_acc(c.view(), a.view(), b.view());
  return c;
}

// ---- ProcessGrid -------------------------------------------------------

TEST(ProcessGrid2d, FactorsAnyPIntoNearSquareRectangles) {
  struct Case {
    std::size_t P, pr, pc;
  };
  for (const Case& tc : {Case{1, 1, 1}, Case{6, 2, 3}, Case{12, 3, 4},
                         Case{13, 1, 13}, Case{16, 4, 4}, Case{30, 5, 6},
                         Case{64, 8, 8}}) {
    ProcessGrid g(tc.P);
    EXPECT_EQ(g.rows(), tc.pr) << "P=" << tc.P;
    EXPECT_EQ(g.cols(), tc.pc) << "P=" << tc.P;
    EXPECT_EQ(g.size(), tc.P);
  }
  EXPECT_THROW(ProcessGrid(0), std::invalid_argument);
}

TEST(ProcessGrid2d, RankCoordinateRoundTrip) {
  ProcessGrid g(2, 3);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      const std::size_t p = g.rank(i, j);
      EXPECT_EQ(g.row_of(p), i);
      EXPECT_EQ(g.col_of(p), j);
    }
  }
  EXPECT_EQ(g.row_group(1), (std::vector<std::size_t>{3, 4, 5}));
  EXPECT_EQ(g.col_group(2), (std::vector<std::size_t>{2, 5}));
}

TEST(ProcessGrid2d, BalancedBlocksCoverEverythingOnce) {
  // n = 10 over 4 parts: sizes 3,3,2,2 at offsets 0,3,6,8.
  ProcessGrid g(4, 4);
  std::size_t covered = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const BlockRange b = g.row_block(10, i);
    EXPECT_EQ(b.off, covered);
    EXPECT_EQ(b.sz, i < 2 ? 3u : 2u);
    covered += b.sz;
  }
  EXPECT_EQ(covered, 10u);
  // Blocks may be empty when n < parts, but still sum to n.
  std::size_t total = 0;
  for (std::size_t i = 0; i < 4; ++i) total += g.row_block(3, i).sz;
  EXPECT_EQ(total, 3u);
}

TEST(ProcessGrid2d, BalancedBlockRejectsZeroParts) {
  EXPECT_THROW(balanced_block(10, 0, 0), std::invalid_argument);
  // The guard sits on the shared splitter, so every caller (grid
  // blocks, thread-pool slices) inherits it.
  EXPECT_EQ(balanced_block(10, 1, 0).sz, 10u);
}

TEST(ProcessGrid2d, CyclicWordsClosedFormMatchesBlockSum) {
  // cyclic_words is O(1); the block list it used to sum is the oracle.
  // lo sweeps past n and through the middle of blocks; owner == parts
  // owns nothing.
  for (std::size_t n = 0; n <= 41; ++n) {
    for (std::size_t b = 1; b <= 6; ++b) {
      for (std::size_t parts = 1; parts <= 4; ++parts) {
        for (std::size_t owner = 0; owner <= parts; ++owner) {
          for (std::size_t lo = 0; lo <= n + 3; ++lo) {
            std::size_t want = 0;
            for (const BlockRange& r : cyclic_blocks(n, b, parts, owner, lo)) {
              want += r.sz;
            }
            ASSERT_EQ(cyclic_words(n, b, parts, owner, lo), want)
                << "n=" << n << " b=" << b << " parts=" << parts
                << " owner=" << owner << " lo=" << lo;
          }
        }
      }
    }
  }
}

TEST(ProcessGrid2d, CyclicBlocksDealRoundRobinAndClip) {
  // 26 items in 4-wide blocks over 2 owners: owner 0 gets blocks
  // {0, 2, 4, 6} = [0,4) [8,12) [16,20) [24,26), owner 1 the rest.
  const auto own0 = cyclic_blocks(26, 4, 2, 0);
  ASSERT_EQ(own0.size(), 4u);
  EXPECT_EQ(own0[0].off, 0u);
  EXPECT_EQ(own0[3].off, 24u);
  EXPECT_EQ(own0[3].sz, 2u);  // the padded edge block
  EXPECT_EQ(cyclic_words(26, 4, 2, 0), 14u);
  EXPECT_EQ(cyclic_words(26, 4, 2, 1), 12u);
  // A lo cut drops whole leading blocks and clips a straddled one.
  EXPECT_EQ(cyclic_words(26, 4, 2, 0, 8), 10u);
  EXPECT_EQ(cyclic_words(26, 4, 2, 0, 10), 8u);
  // Owners cover everything exactly once for any (n, b, parts).
  for (std::size_t parts : {1u, 3u, 5u}) {
    std::size_t total = 0;
    for (std::size_t o = 0; o < parts; ++o) {
      total += cyclic_words(31, 3, parts, o);
    }
    EXPECT_EQ(total, 31u);
  }
  EXPECT_THROW(cyclic_blocks(10, 0, 2, 0), std::invalid_argument);
  EXPECT_THROW(cyclic_blocks(10, 2, 0, 0), std::invalid_argument);
  EXPECT_THROW(cyclic_words(10, 0, 2, 0), std::invalid_argument);
  EXPECT_THROW(cyclic_words(10, 2, 0, 0), std::invalid_argument);
  // ProcessGrid exposes the same dealing per grid dimension.
  ProcessGrid g(2, 3);
  EXPECT_EQ(g.cyclic_row_owner(5), 1u);
  EXPECT_EQ(g.cyclic_col_owner(5), 2u);
  EXPECT_EQ(g.cyclic_row_words(26, 4, 0), 14u);
  EXPECT_EQ(g.cyclic_col_words(26, 4, 0) + g.cyclic_col_words(26, 4, 1) +
                g.cyclic_col_words(26, 4, 2),
            26u);
}

TEST(ProcessGrid2d, KPanelsRefineBothPartitionsOnRectangularGrids) {
  // pr = 2 cuts 10 at {5}; pc = 3 cuts it at {4, 7}: the refinement
  // is [0,4) [4,5) [5,7) [7,10), so every panel has a unique owner
  // column in A and owner row in B.
  ProcessGrid g(2, 3);
  const auto panels = g.k_panels(10);
  ASSERT_EQ(panels.size(), 4u);
  const std::size_t offs[] = {0, 4, 5, 7}, szs[] = {4, 1, 2, 3};
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(panels[t].off, offs[t]);
    EXPECT_EQ(panels[t].sz, szs[t]);
  }
  // Square grid with even divisions: exactly the classical panels.
  const auto classical = ProcessGrid(4, 4).k_panels(64);
  ASSERT_EQ(classical.size(), 4u);
  for (const auto& p : classical) EXPECT_EQ(p.sz, 16u);
}

TEST(ProcessGrid3d, LayersSplitStepsUnevenly) {
  ProcessGrid3D g(24, 4);  // 4 layers of a 2 x 3 grid
  EXPECT_EQ(g.layer().rows(), 2u);
  EXPECT_EQ(g.layer().cols(), 3u);
  EXPECT_EQ(g.fiber_group(1, 2), (std::vector<std::size_t>{5, 11, 17, 23}));
  // 6 steps over 4 layers: 2,2,1,1.
  std::size_t total = 0;
  for (std::size_t l = 0; l < 4; ++l) {
    const BlockRange s = g.layer_steps(6, l);
    EXPECT_EQ(s.sz, l < 2 ? 2u : 1u);
    total += s.sz;
  }
  EXPECT_EQ(total, 6u);
  EXPECT_THROW(ProcessGrid3D(16, 3), std::invalid_argument);
}

// ---- collective rounds at awkward group sizes --------------------------

TEST(BcastRounds, CoversDegenerateAndOffPowerGroupSizes) {
  EXPECT_EQ(Machine::bcast_rounds(1), 0u);
  EXPECT_EQ(Machine::bcast_rounds(2), 1u);
  EXPECT_EQ(Machine::bcast_rounds(3), 2u);
  EXPECT_EQ(Machine::bcast_rounds(8), 3u);
  EXPECT_EQ(Machine::bcast_rounds(9), 4u);
  EXPECT_EQ(Machine::bcast_rounds(16), 4u);
  EXPECT_EQ(Machine::bcast_rounds(17), 5u);
}

// ---- reduce vs bcast ---------------------------------------------------

TEST(ReduceVsBcast, ReduceChargesTheCombineBcastDoesNot) {
  Machine mb(4, 192, 4096, 1 << 22);
  mb.bcast({0, 1, 2, 3}, 50);
  Machine mr(4, 192, 4096, 1 << 22);
  mr.reduce({0, 1, 2, 3}, 50);
  for (std::size_t p = 0; p < 4; ++p) {
    // Identical network shape: log2(4) rounds of 50 words each.
    EXPECT_EQ(mb.proc(p).nw.words, 100u);
    EXPECT_EQ(mr.proc(p).nw.words, 100u);
    EXPECT_EQ(mb.proc(p).nw.messages, 2u);
    EXPECT_EQ(mr.proc(p).nw.messages, 2u);
    // Only the reduction merges partials: one L1 -> L2 write-back of
    // the combined words per round.
    EXPECT_EQ(mb.proc(p).l2_write.words, 0u);
    EXPECT_EQ(mr.proc(p).l2_write.words, 100u);
    EXPECT_EQ(mr.proc(p).l2_write.messages, 2u);
  }
}

// ---- irregular geometry end-to-end -------------------------------------

struct GeometryCase {
  std::size_t P, n;
  const char* name;
};

class IrregularGeometry : public ::testing::TestWithParam<GeometryCase> {};

TEST_P(IrregularGeometry, AllMatmulVariantsMatchReference) {
  const auto& tc = GetParam();
  Matrix<double> a(tc.n, tc.n), b(tc.n, tc.n);
  linalg::fill_random(a, 51);
  linalg::fill_random(b, 52);
  const auto ref = reference_product(a, b);
  const auto check = [&](const char* who, auto&& alg) {
    Machine m(tc.P, 192, 4096, 1 << 22);
    Matrix<double> c(tc.n, tc.n, 0.0);
    alg(m, c.view(), a.view(), b.view());
    EXPECT_LT(max_abs_diff(c, ref), 1e-11) << who;
    EXPECT_GT(m.cost(), 0.0) << who;
  };
  check("summa_2d", [](Machine& m, auto c, auto a2, auto b2) {
    summa_2d(m, c, a2, b2);
  });
  check("summa_2d_hoarding", [](Machine& m, auto c, auto a2, auto b2) {
    summa_2d_hoarding(m, c, a2, b2);
  });
  check("summa_l3_ool2", [](Machine& m, auto c, auto a2, auto b2) {
    summa_l3_ool2(m, c, a2, b2);
  });
  check("mm_25d_c1", [](Machine& m, auto c, auto a2, auto b2) {
    mm_25d(m, c, a2, b2);
  });
}

TEST_P(IrregularGeometry, BothLuVariantsMatchReference) {
  const auto& tc = GetParam();
  auto a0 = linalg::random_spd(tc.n, 53);
  auto ref = a0;
  linalg::lu_nopivot_unblocked(ref.view());
  Machine m_ll(tc.P, 192, 4096, 1 << 22);
  auto a_ll = a0;
  lu_left_looking(m_ll, a_ll.view(), /*b=*/2, /*s=*/2);
  EXPECT_LT(max_abs_diff(a_ll, ref), 1e-8);
  Machine m_rl(tc.P, 192, 4096, 1 << 22);
  auto a_rl = a0;
  lu_right_looking(m_rl, a_rl.view(), /*b=*/3);
  EXPECT_LT(max_abs_diff(a_rl, ref), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, IrregularGeometry,
    ::testing::Values(
        GeometryCase{1, 17, "single_proc"},           // P = 1
        GeometryCase{5, 23, "prime_P_indivisible_n"}, // 1 x 5 grid
        GeometryCase{6, 32, "P6_even_n"},             // 2 x 3 grid
        GeometryCase{6, 33, "P6_odd_n"},              // n % 2, n % 3 != 0
        GeometryCase{30, 37, "squarefree_P"},         // 5 x 6 grid, prime n
        GeometryCase{16, 30, "square_P_padded_n"}),   // 4 | P, 4 !| 30
    [](const auto& info) { return info.param.name; });

TEST(IrregularGeometry25d, Mm25dWithLayersOnNonSquareLayerGrid) {
  // P = 24, c = 2: each layer is ProcessGrid(12) = 3 x 4.  12 is not
  // a perfect square, which the old code rejected outright, and 26 is
  // divisible by neither grid dimension.
  const std::size_t n = 26;
  Matrix<double> a(n, n), b(n, n);
  linalg::fill_random(a, 54);
  linalg::fill_random(b, 55);
  const auto ref = reference_product(a, b);
  for (const bool staged : {false, true}) {
    Machine m(24, 192, 4096, 1 << 22);
    Matrix<double> c(n, n, 0.0);
    Mm25dOptions opt;
    opt.c = 2;
    opt.use_l3 = staged;
    mm_25d(m, c.view(), a.view(), b.view(), opt);
    EXPECT_LT(max_abs_diff(c, ref), 1e-11);
  }
}

// ---- execution backends ------------------------------------------------

TEST(Backends, FactoryKnowsBothNamesAndRejectsOthers) {
  EXPECT_STREQ(make_backend("serial")->name(), "serial");
  EXPECT_STREQ(make_backend("threaded", 3)->name(), "threaded");
  EXPECT_THROW(make_backend("cuda"), std::invalid_argument);
}

// Every channel counter of every processor, and the numerical result,
// must be byte-identical between the serial simulator and the thread
// pool: the threaded backend shards work but never reorders charging
// within a rank.
template <class Alg>
void expect_backend_determinism(std::size_t P, std::size_t n, Alg&& alg) {
  Matrix<double> a(n, n), b(n, n);
  linalg::fill_random(a, 61);
  linalg::fill_random(b, 62);

  Machine serial(P, 192, 4096, 1 << 22, HwParams{},
                 std::make_unique<SerialSimBackend>());
  Matrix<double> c_serial(n, n, 0.0);
  alg(serial, c_serial.view(), a.view(), b.view());

  Machine threaded(P, 192, 4096, 1 << 22, HwParams{},
                   std::make_unique<ThreadedBackend>(4));
  Matrix<double> c_threaded(n, n, 0.0);
  alg(threaded, c_threaded.view(), a.view(), b.view());

  for (std::size_t p = 0; p < P; ++p) {
    const ProcTraffic& s = serial.proc(p);
    const ProcTraffic& t = threaded.proc(p);
    const auto eq = [&](const ChanCount& x, const ChanCount& y,
                        const char* ch) {
      EXPECT_EQ(x.words, y.words) << "proc " << p << " " << ch;
      EXPECT_EQ(x.messages, y.messages) << "proc " << p << " " << ch;
    };
    eq(s.nw, t.nw, "nw");
    eq(s.l3_read, t.l3_read, "l3_read");
    eq(s.l3_write, t.l3_write, "l3_write");
    eq(s.l2_read, t.l2_read, "l2_read");
    eq(s.l2_write, t.l2_write, "l2_write");
  }
  // Numerics are bitwise identical, not merely close: each rank owns
  // its output block and accumulates in the same order.
  EXPECT_EQ(std::memcmp(c_serial.data(), c_threaded.data(),
                        n * n * sizeof(double)),
            0);
}

TEST(Backends, ThreadedCountersBitIdenticalForSumma) {
  expect_backend_determinism(
      16, 48, [](Machine& m, auto c, auto a, auto b) { summa_2d(m, c, a, b); });
  expect_backend_determinism(6, 33, [](Machine& m, auto c, auto a, auto b) {
    summa_l3_ool2(m, c, a, b);
  });
}

TEST(Backends, ThreadedCountersBitIdenticalForMm25d) {
  expect_backend_determinism(24, 26, [](Machine& m, auto c, auto a, auto b) {
    Mm25dOptions opt;
    opt.c = 2;
    opt.use_l3 = true;
    mm_25d(m, c, a, b, opt);
  });
}

// The per-rank LU rewrite must behave exactly like the matmuls under
// the thread pool: every channel counter of every processor and every
// output bit identical to the serial simulator, for both schedules,
// on every grid shape (square, non-square, prime => 1 x P, P = 1) and
// with n indivisible by the grid edges or the panel width.
struct LuBackendCase {
  std::size_t P, n;
  const char* name;
};

class LuBackends : public ::testing::TestWithParam<LuBackendCase> {};

TEST_P(LuBackends, CountersAndBitsIdenticalSerialVsThreaded) {
  const auto& tc = GetParam();
  auto a0 = linalg::random_spd(tc.n, 63);
  auto ref = a0;
  linalg::lu_nopivot_unblocked(ref.view());

  const auto sweep = [&](const char* who, auto&& lu) {
    Machine serial(tc.P, 192, 4096, 1 << 22, HwParams{},
                   std::make_unique<SerialSimBackend>());
    auto a_serial = a0;
    lu(serial, a_serial.view());

    Machine threaded(tc.P, 192, 4096, 1 << 22, HwParams{},
                     std::make_unique<ThreadedBackend>(4));
    auto a_threaded = a0;
    lu(threaded, a_threaded.view());

    // Numerics agree with the unblocked reference...
    EXPECT_LT(max_abs_diff(a_serial, ref), 1e-8) << who;
    // ...and are bitwise identical across backends: every tile is
    // owned by exactly one rank and accumulated in a fixed order.
    EXPECT_EQ(std::memcmp(a_serial.data(), a_threaded.data(),
                          tc.n * tc.n * sizeof(double)),
              0)
        << who;
    for (std::size_t p = 0; p < tc.P; ++p) {
      const ProcTraffic& s = serial.proc(p);
      const ProcTraffic& t = threaded.proc(p);
      const auto eq = [&](const ChanCount& x, const ChanCount& y,
                          const char* ch) {
        EXPECT_EQ(x.words, y.words) << who << " proc " << p << " " << ch;
        EXPECT_EQ(x.messages, y.messages)
            << who << " proc " << p << " " << ch;
      };
      eq(s.nw, t.nw, "nw");
      eq(s.l3_read, t.l3_read, "l3_read");
      eq(s.l3_write, t.l3_write, "l3_write");
      eq(s.l2_read, t.l2_read, "l2_read");
      eq(s.l2_write, t.l2_write, "l2_write");
    }
  };
  sweep("lu_right_looking", [](Machine& m, linalg::MatrixView<double> a) {
    lu_right_looking(m, a, /*b=*/4);
  });
  sweep("lu_left_looking", [](Machine& m, linalg::MatrixView<double> a) {
    lu_left_looking(m, a, /*b=*/3, /*s=*/2);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grids, LuBackends,
    ::testing::Values(LuBackendCase{1, 19, "single_proc"},
                      LuBackendCase{4, 26, "square_P"},
                      LuBackendCase{6, 26, "P6_rectangular"},
                      LuBackendCase{7, 23, "prime_P"}),
    [](const auto& info) { return info.param.name; });

TEST(Backends, ErrorPathChargesTheSameRanksAsSerial) {
  // Rank 5 of 8 throws: both backends must have charged exactly the
  // ranks a serial run reaches before the throw (0..4) and nothing
  // after, so error-handling code sees identical machine state.
  const auto run = [](Machine& m) {
    EXPECT_THROW(m.run_local_each([](std::size_t p, memsim::Hierarchy& h) {
      if (p == 5) throw std::runtime_error("rank 5 fails");
      h.load(0, 7);
    }),
                 std::runtime_error);
  };
  Machine serial(8, 192, 4096, 1 << 22, HwParams{},
                 std::make_unique<SerialSimBackend>());
  run(serial);
  Machine threaded(8, 192, 4096, 1 << 22, HwParams{},
                   std::make_unique<ThreadedBackend>(4));
  run(threaded);
  for (std::size_t p = 0; p < 8; ++p) {
    EXPECT_EQ(serial.proc(p).l2_read.words, p < 5 ? 7u : 0u) << p;
    EXPECT_EQ(threaded.proc(p).l2_read.words, serial.proc(p).l2_read.words)
        << p;
  }
}

TEST(Backends, ThreadedEnforcesCapacitiesAndPropagatesErrors) {
  Machine m(8, 192, 4096, 1 << 22, HwParams{},
            std::make_unique<ThreadedBackend>(4));
  EXPECT_THROW(
      m.run_local_each([](std::size_t, memsim::Hierarchy& h) {
        h.load(0, 193);  // over L1 capacity, on every rank
      }),
      memsim::CapacityError);
}

// ---- Persistent-pool regressions ---------------------------------------
// The pool is spawned once and parked between jobs; these pin the three
// behaviours that a fork-join implementation got for free.

TEST(Backends, PersistentPoolServesManyJobsInRankOrder) {
  // Varying widths exercise park/wake and the workers-beyond-the-job
  // path repeatedly on one pool; the sink must still see every job's
  // ranks in rank order (that ordering is what keeps counters
  // byte-identical to the serial backend).
  ThreadedBackend be(4);
  const std::vector<std::size_t> caps = {192, 4096, std::size_t(1) << 22};
  for (std::size_t round = 0; round < 40; ++round) {
    const std::size_t width = 1 + round % 9;  // includes the serial path
    std::vector<std::size_t> ranks(width);
    std::iota(ranks.begin(), ranks.end(), std::size_t{0});
    std::vector<std::size_t> seen;
    be.run(
        ranks, caps,
        [](std::size_t p, memsim::Hierarchy& h) { h.load(0, p + 1); },
        [&](std::size_t p, const memsim::Hierarchy& h) {
          seen.push_back(p);
          EXPECT_EQ(h.loads_words(0), p + 1) << "round " << round;
        });
    EXPECT_EQ(seen, ranks) << "round " << round;
  }
}

TEST(Backends, NestedRunFromInsideAWorkerExecutesInline) {
  // A local phase that itself fans out through the same backend must
  // run serially inline on the worker instead of waiting on the pool's
  // done-barrier while holding it hostage (deadlock).
  ThreadedBackend be(4);
  const std::vector<std::size_t> caps = {192, 4096, std::size_t(1) << 22};
  const std::vector<std::size_t> outer = {0, 1, 2, 3, 4, 5};
  const std::vector<std::size_t> inner = {0, 1};
  std::atomic<std::uint64_t> inner_words{0};
  be.run(
      outer, caps,
      [&](std::size_t, memsim::Hierarchy& h) {
        h.load(0, 1);
        be.run(
            inner, caps,
            [](std::size_t, memsim::Hierarchy& hh) { hh.load(0, 3); },
            [&](std::size_t, const memsim::Hierarchy& hh) {
              inner_words += hh.loads_words(0);
            });
      },
      [](std::size_t, const memsim::Hierarchy&) {});
  // 6 outer ranks x 2 inner ranks x 3 words each.
  EXPECT_EQ(inner_words.load(), 6u * 2u * 3u);
}

TEST(Backends, PoolOutlivesAThrowingJobAndServesTheNext) {
  // An error must not poison the parked pool: the next job on the same
  // backend still runs every rank and charges correctly.
  Machine m(8, 192, 4096, 1 << 22, HwParams{},
            std::make_unique<ThreadedBackend>(4));
  EXPECT_THROW(m.run_local_each([](std::size_t p, memsim::Hierarchy& h) {
    if (p == 3) throw std::runtime_error("rank 3 fails");
    h.load(0, 2);
  }),
               std::runtime_error);
  m.run_local_each([](std::size_t, memsim::Hierarchy& h) { h.load(0, 5); });
  for (std::size_t p = 0; p < 8; ++p) {
    // Ranks before the failing one kept the first job's charge; every
    // rank got the second job's.
    EXPECT_EQ(m.proc(p).l2_read.words, (p < 3 ? 2u : 0u) + 5u) << p;
  }
}

TEST(Backends, WallClockAccumulatesAcrossLocalPhases) {
  Machine m(4, 192, 4096, 1 << 22);
  EXPECT_EQ(m.local_wall_seconds(), 0.0);
  m.run_local_each([](std::size_t, memsim::Hierarchy& h) { h.load(0, 8); });
  const double first = m.local_wall_seconds();
  EXPECT_GT(first, 0.0);
  m.run_local_all([](memsim::Hierarchy& h) { h.load(0, 8); });
  EXPECT_GT(m.local_wall_seconds(), first);
}

}  // namespace
}  // namespace wa::dist
