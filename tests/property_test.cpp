// Cross-cutting property sweeps:
//  * Algorithm 1's exact count formulas hold for every (shape, block).
//  * Traced WA kernels keep write-backs near the output under every
//    deterministic replacement policy (LRU provably, CLOCK3 within the
//    paper's observed slack).
//  * Cache inclusion invariant under random access streams.
//  * 2.5D message chunking trades messages for nothing else.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <tuple>

#include "cachesim/traced.hpp"
#include "core/matmul_explicit.hpp"
#include "core/matmul_traced.hpp"
#include "dist/machine.hpp"
#include "dist/mm25d.hpp"
#include "linalg/kernels.hpp"

namespace wa {
namespace {

// ---- Algorithm 1 exact counts across shapes and block sizes ------------

using ShapeCase = std::tuple<std::size_t, std::size_t, std::size_t,
                             std::size_t>;  // m, n, l, b

class Alg1Counts : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(Alg1Counts, FormulaHoldsExactly) {
  const auto [m, n, l, b] = GetParam();
  linalg::Matrix<double> A(m, n), B(n, l), C(m, l, 0.0);
  memsim::Hierarchy h({3 * b * b, memsim::Hierarchy::kUnbounded});
  core::blocked_matmul_explicit(C.view(), A.view(), B.view(), b, h,
                                core::LoopOrder::kIJK);
  const auto exp = core::algorithm1_expected_counts(m, n, l, b);
  EXPECT_EQ(h.loads_words(0), exp.loads);
  EXPECT_EQ(h.stores_words(0), exp.stores);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Alg1Counts,
    ::testing::Values(ShapeCase{16, 16, 16, 4}, ShapeCase{32, 8, 16, 4},
                      ShapeCase{8, 64, 8, 8}, ShapeCase{48, 24, 12, 4},
                      ShapeCase{24, 24, 24, 8}, ShapeCase{40, 20, 60, 10}),
    [](const auto& info) {
      // Appended piecewise: GCC 12 raises a false -Wrestrict on the
      // inlined `"literal" + std::string` prepend.
      std::string name = "m";
      name += std::to_string(std::get<0>(info.param));
      name += "n";
      name += std::to_string(std::get<1>(info.param));
      name += "l";
      name += std::to_string(std::get<2>(info.param));
      name += "b";
      name += std::to_string(std::get<3>(info.param));
      return name;
    });

// ---- WA property across deterministic policies -------------------------

class PolicyWa : public ::testing::TestWithParam<cachesim::Policy> {};

TEST_P(PolicyWa, TwoLevelWaMatmulStaysNearOutput) {
  const std::size_t n = 48, b = 8;
  const std::size_t bytes = ((5 * b * b * 8 + 64 + 63) / 64) * 64;
  cachesim::CacheHierarchy sim(
      {cachesim::LevelConfig{bytes, 0, GetParam()}}, 64);
  cachesim::AddressSpace as;
  core::TracedMat A(sim, as, n, n), B(sim, as, n, n), C(sim, as, n, n);
  const std::size_t bs[] = {b};
  core::traced_wa_matmul_multilevel(C, A, B, bs);
  sim.flush();
  const std::uint64_t c_lines = n * n * 8 / 64;
  // LRU is exact (Prop 6.1); CLOCK3 within the paper's observed slack.
  const double limit = GetParam() == cachesim::Policy::kLru ? 1.0 : 1.6;
  EXPECT_LE(double(sim.dram_writebacks()), limit * double(c_lines));
}

INSTANTIATE_TEST_SUITE_P(DeterministicPolicies, PolicyWa,
                         ::testing::Values(cachesim::Policy::kLru,
                                           cachesim::Policy::kClock3),
                         [](const auto& info) {
                           return cachesim::to_string(info.param);
                         });

// ---- inclusion invariant fuzz ------------------------------------------

class InclusionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(InclusionFuzz, UpperLevelsAreSubsetsOfLower) {
  std::mt19937_64 rng(unsigned(GetParam()) * 104729 + 7);
  cachesim::CacheHierarchy sim(
      {cachesim::LevelConfig{4 * 64, 0, cachesim::Policy::kLru},
       cachesim::LevelConfig{16 * 64, 4, cachesim::Policy::kClock3},
       cachesim::LevelConfig{64 * 64, 8, cachesim::Policy::kLru}},
      64);
  std::vector<std::uint64_t> touched;
  for (int step = 0; step < 2000; ++step) {
    const std::uint64_t addr = (rng() % 512) * 64;
    if ((rng() & 3) == 0) {
      sim.write(addr, 8);
    } else {
      sim.read(addr, 8);
    }
    touched.push_back(addr >> 6);
  }
  // Inclusion: anything in L1 must be in L2 and L3; anything in L2
  // must be in L3.
  for (std::uint64_t line : touched) {
    if (sim.level(0).contains(line)) {
      EXPECT_TRUE(sim.level(1).contains(line)) << line;
      EXPECT_TRUE(sim.level(2).contains(line)) << line;
    }
    if (sim.level(1).contains(line)) {
      EXPECT_TRUE(sim.level(2).contains(line)) << line;
    }
  }
  // Conservation: every dirty line eventually comes back out once.
  const auto before = sim.stats(2).total_writebacks();
  sim.flush();
  EXPECT_GE(sim.stats(2).total_writebacks(), before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InclusionFuzz, ::testing::Range(0, 12));

// ---- 2.5D chunking: same words, more messages ---------------------------

TEST(Mm25dChunking, SmallerChunksOnlyAddMessages) {
  const std::size_t n = 48, P = 64, c = 4;
  linalg::Matrix<double> a(n, n), b(n, n);
  linalg::fill_random(a, 61);
  linalg::fill_random(b, 62);

  auto run = [&](std::size_t chunk) {
    dist::Machine m(P, 192, 4096, 1 << 22);
    linalg::Matrix<double> cc(n, n, 0.0);
    dist::Mm25dOptions opt;
    opt.c = c;
    opt.use_l3 = true;
    opt.chunk_c2 = chunk;
    dist::mm_25d(m, cc.view(), a.view(), b.view(), opt);
    return m.critical_path();
  };

  const auto whole = run(c);      // one broadcast of the full replica
  const auto chunked = run(1);    // c broadcasts of 1/c-sized chunks
  EXPECT_EQ(whole.nw.words, chunked.nw.words);
  EXPECT_LT(whole.nw.messages, chunked.nw.messages);
}

}  // namespace
}  // namespace wa
