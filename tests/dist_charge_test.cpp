// The closed-form charging helpers of dist/detail.hpp against the
// per-tile / per-chunk loops they replace.  The loops are kept here as
// the oracle: for every shape, both must leave every memsim::Hierarchy
// observable (per-level channel words and messages, writes_to /
// reads_from, residency classes, flops, occupancy) in the same state,
// and both must reject the same over-occupied levels.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <iterator>
#include <string>

#include "dist/detail.hpp"
#include "memsim/hierarchy.hpp"

namespace wa::dist {
namespace {

using memsim::Hierarchy;

// ---- the oracle: the call-by-call loops --------------------------------

void loop_local_gemm(Hierarchy& h, std::size_t m, std::size_t n,
                     std::size_t k, std::size_t b) {
  for (std::size_t i0 = 0; i0 < m; i0 += b) {
    const std::size_t bi = std::min(b, m - i0);
    for (std::size_t j0 = 0; j0 < n; j0 += b) {
      const std::size_t bj = std::min(b, n - j0);
      h.load(0, bi * bj);
      for (std::size_t k0 = 0; k0 < k; k0 += b) {
        const std::size_t bk = std::min(b, k - k0);
        h.load(0, bi * bk);
        h.load(0, bk * bj);
        h.flops(2 * std::uint64_t(bi) * bj * bk);
        h.discard(0, bi * bk + bk * bj);
      }
      h.store(0, bi * bj);
    }
  }
}

void loop_l3_read(Hierarchy& h, std::size_t words, std::size_t M2,
                  std::size_t reserved) {
  const std::size_t chunk = detail::l2_room(M2, reserved);
  while (words > 0) {
    const std::size_t w = std::min(chunk, words);
    h.load(1, w);
    h.discard(1, w);
    words -= w;
  }
}

void loop_l3_write(Hierarchy& h, std::size_t words, std::size_t M2,
                   std::size_t reserved) {
  const std::size_t chunk = detail::l2_room(M2, reserved);
  while (words > 0) {
    const std::size_t w = std::min(chunk, words);
    h.alloc(1, w);
    h.store(1, w);
    words -= w;
  }
}

void loop_l2_transit(Hierarchy& h, std::size_t words, std::size_t M2,
                     std::size_t reserved) {
  const std::size_t chunk = std::max<std::size_t>(1, (M2 - reserved) / 2);
  while (words > 0) {
    const std::size_t w = std::min(chunk, words);
    h.alloc(1, w);
    h.discard(1, w);
    words -= w;
  }
}

// ---- comparison ---------------------------------------------------------

void expect_same(const Hierarchy& x, const Hierarchy& y,
                 const std::string& what) {
  ASSERT_EQ(x.levels(), y.levels());
  EXPECT_EQ(x.flops(), y.flops()) << what;
  for (std::size_t s = 0; s < x.levels(); ++s) {
    EXPECT_EQ(x.occupancy(s), y.occupancy(s)) << what << " level " << s;
    EXPECT_EQ(x.writes_to(s), y.writes_to(s)) << what << " level " << s;
    EXPECT_EQ(x.reads_from(s), y.reads_from(s)) << what << " level " << s;
    const auto& rx = x.residencies(s);
    const auto& ry = y.residencies(s);
    EXPECT_EQ(rx.r1_begun, ry.r1_begun) << what << " level " << s;
    EXPECT_EQ(rx.r2_begun, ry.r2_begun) << what << " level " << s;
    EXPECT_EQ(rx.d1_ended, ry.d1_ended) << what << " level " << s;
    EXPECT_EQ(rx.d2_ended, ry.d2_ended) << what << " level " << s;
    if (s + 1 < x.levels()) {
      EXPECT_EQ(x.loads_words(s), y.loads_words(s)) << what << " level " << s;
      EXPECT_EQ(x.loads_messages(s), y.loads_messages(s))
          << what << " level " << s;
      EXPECT_EQ(x.stores_words(s), y.stores_words(s))
          << what << " level " << s;
      EXPECT_EQ(x.stores_messages(s), y.stores_messages(s))
          << what << " level " << s;
    }
  }
}

using Charge = std::function<void(Hierarchy&)>;

// Run @p oracle and @p closed on two hierarchies prepared by @p setup;
// require the same verdict (throw or not) and, when neither throws, the
// same observables.
void expect_equivalent(const Hierarchy& setup, const Charge& oracle,
                       const Charge& closed, const std::string& what) {
  Hierarchy a = setup, b = setup;
  bool threw_a = false, threw_b = false;
  try {
    oracle(a);
  } catch (const memsim::CapacityError&) {
    threw_a = true;
  }
  try {
    closed(b);
  } catch (const memsim::CapacityError&) {
    threw_b = true;
  }
  ASSERT_EQ(threw_a, threw_b) << what;
  if (!threw_a) expect_same(a, b, what);
}

std::string shape(std::size_t m, std::size_t n, std::size_t k,
                  std::size_t b) {
  return "m=" + std::to_string(m) + " n=" + std::to_string(n) +
         " k=" + std::to_string(k) + " b=" + std::to_string(b);
}

struct Shape {
  std::size_t m, n, k;
};

// Largest words resident at once in one C tile step: the first tile.
std::size_t gemm_peak(std::size_t m, std::size_t n, std::size_t k,
                      std::size_t b) {
  if (m == 0 || n == 0) return 0;
  const std::size_t bm = std::min(b, m), bn = std::min(b, n);
  const std::size_t bk = std::min(b, k);
  return bm * bn + bm * bk + bk * bn;
}

// ---- charge_local_gemm / charge_local_solve ------------------------------

TEST(ChargeClosedForm, LocalGemmMatchesTileLoop) {
  const std::size_t dims[] = {0, 1, 2, 3, 5, 7, 8, 13};
  for (std::size_t b : {1u, 2u, 3u, 4u, 7u}) {
    for (std::size_t m : dims) {
      for (std::size_t n : dims) {
        for (std::size_t k : dims) {
          // Some L1 words already resident, and an L2 resident that
          // the L1 traffic must not disturb.
          Hierarchy h({3 * b * b + 9, 4096, Hierarchy::kUnbounded});
          h.alloc(0, 9);
          h.load(1, 100);
          expect_equivalent(
              h, [&](Hierarchy& x) { loop_local_gemm(x, m, n, k, b); },
              [&](Hierarchy& x) { detail::charge_local_gemm(x, m, n, k, b); },
              shape(m, n, k, b));
          expect_equivalent(
              h, [&](Hierarchy& x) { loop_local_gemm(x, m, n, k, b); },
              [&](Hierarchy& x) { detail::charge_local_solve(x, m, n, k, b); },
              "solve " + shape(m, n, k, b));
        }
      }
    }
  }
}

TEST(ChargeClosedForm, LocalGemmHonorsLargeLongShapes) {
  // LL-LU's fused shapes: short tiles against a long K range, and the
  // l1_tile of the benches (b1 = 3 for M1 = 48, 7 for M1 = 192).
  for (std::size_t b : {3u, 7u}) {
    for (const Shape& sh : {Shape{2, 2, 382}, Shape{62, 2, 190},
                            Shape{97, 101, 1}, Shape{1, 64, 64},
                            Shape{130, 8, 0}}) {
      const std::size_t m = sh.m, n = sh.n, k = sh.k;
      Hierarchy h({3 * b * b, 4096, Hierarchy::kUnbounded});
      expect_equivalent(
          h, [&](Hierarchy& x) { loop_local_gemm(x, m, n, k, b); },
          [&](Hierarchy& x) { detail::charge_local_gemm(x, m, n, k, b); },
          shape(m, n, k, b));
    }
  }
}

TEST(ChargeClosedForm, LocalGemmCapacityVerdictOnPreOccupiedL1) {
  // Both forms throw exactly when the pre-occupied words plus the
  // peak tile set overflow L1, and not one word earlier.
  const std::size_t cap = 64;
  for (std::size_t b : {1u, 2u, 4u}) {
    for (const Shape& sh : {Shape{5, 3, 7}, Shape{4, 4, 0}, Shape{1, 9, 2}}) {
      const std::size_t m = sh.m, n = sh.n, k = sh.k;
      const std::size_t peak = gemm_peak(m, n, k, b);
      ASSERT_LT(peak, cap);
      for (const std::size_t pre : {cap - peak, cap - peak + 1}) {
        Hierarchy h({cap, 4096, Hierarchy::kUnbounded});
        h.alloc(0, pre);
        Hierarchy a = h, c = h;
        const bool over = pre + peak > cap;
        if (over) {
          EXPECT_THROW(loop_local_gemm(a, m, n, k, b), memsim::CapacityError)
              << shape(m, n, k, b);
          EXPECT_THROW(detail::charge_local_gemm(c, m, n, k, b),
                       memsim::CapacityError)
              << shape(m, n, k, b);
          // The closed form rejects before touching any counter.
          expect_same(c, h, "untouched " + shape(m, n, k, b));
        } else {
          loop_local_gemm(a, m, n, k, b);
          detail::charge_local_gemm(c, m, n, k, b);
          expect_same(a, c, shape(m, n, k, b));
        }
      }
    }
  }
  // Empty products touch nothing, even on a full L1.
  Hierarchy full({cap, 4096, Hierarchy::kUnbounded});
  full.alloc(0, cap);
  Hierarchy before = full;
  detail::charge_local_gemm(full, 0, 5, 5, 2);
  detail::charge_local_gemm(full, 5, 0, 5, 2);
  expect_same(full, before, "empty product");
  EXPECT_THROW(detail::charge_local_gemm(full, 1, 1, 0, 2),
               memsim::CapacityError);
}

// ---- the L3 / L2 streaming helpers -----------------------------------------

TEST(ChargeClosedForm, StreamingHelpersMatchChunkLoops) {
  for (std::size_t M2 : {2u, 3u, 16u, 640u, 4096u}) {
    for (std::size_t reserved : {std::size_t(0), std::size_t(1), M2 / 2,
                                 M2 - 2}) {
      if (reserved > M2 - 2) continue;
      for (std::size_t words :
           {0u, 1u, 2u, 5u, 63u, 64u, 65u, 160u, 1000u, 4097u}) {
        Hierarchy h({1, M2, Hierarchy::kUnbounded});
        h.alloc(1, reserved);  // the residents the chunks coexist with
        const std::string what = "M2=" + std::to_string(M2) + " reserved=" +
                                 std::to_string(reserved) +
                                 " words=" + std::to_string(words);
        expect_equivalent(
            h, [&](Hierarchy& x) { loop_l3_read(x, words, M2, reserved); },
            [&](Hierarchy& x) {
              detail::charge_l3_read(x, words, M2, reserved);
            },
            "read " + what);
        expect_equivalent(
            h, [&](Hierarchy& x) { loop_l3_write(x, words, M2, reserved); },
            [&](Hierarchy& x) {
              detail::charge_l3_write(x, words, M2, reserved);
            },
            "write " + what);
        expect_equivalent(
            h, [&](Hierarchy& x) { loop_l2_transit(x, words, M2, reserved); },
            [&](Hierarchy& x) {
              detail::charge_l2_transit(x, words, M2, reserved);
            },
            "transit " + what);
      }
    }
  }
}

TEST(ChargeClosedForm, StreamingHelpersCapacityVerdict) {
  // L2 holds more than the caller declared reserved: the first chunk
  // no longer fits, and both forms reject it.
  const std::size_t M2 = 640;
  const std::size_t chunk = detail::l2_room(M2, 0);
  for (const std::size_t pre : {M2 - chunk, M2 - chunk + 1}) {
    Hierarchy h({1, M2, Hierarchy::kUnbounded});
    h.alloc(1, pre);
    const Charge pairs[] = {
        [&](Hierarchy& x) { loop_l3_read(x, 1000, M2, 0); },
        [&](Hierarchy& x) { detail::charge_l3_read(x, 1000, M2); },
        [&](Hierarchy& x) { loop_l3_write(x, 1000, M2, 0); },
        [&](Hierarchy& x) { detail::charge_l3_write(x, 1000, M2); },
        [&](Hierarchy& x) { loop_l2_transit(x, 1000, M2, 0); },
        [&](Hierarchy& x) { detail::charge_l2_transit(x, 1000, M2, 0); }};
    for (std::size_t i = 0; i < std::size(pairs); i += 2) {
      // l2_transit chunks are half the whole free room, not l2_room.
      const std::size_t c = i == 4 ? M2 / 2 : chunk;
      const bool over = pre + std::min<std::size_t>(c, 1000) > M2;
      Hierarchy a = h, b = h;
      if (over) {
        EXPECT_THROW(pairs[i](a), memsim::CapacityError) << i;
        EXPECT_THROW(pairs[i + 1](b), memsim::CapacityError) << i;
        expect_same(b, h, "untouched " + std::to_string(i));
      } else {
        pairs[i](a);
        pairs[i + 1](b);
        expect_same(a, b, std::to_string(i));
      }
    }
  }
}

// ---- the bulk entry point itself -------------------------------------------

TEST(HierarchyBurst, ChargesTotalsAndChecksOnce) {
  Hierarchy h({16, 64, Hierarchy::kUnbounded});
  h.alloc(0, 4);
  memsim::Burst b;
  b.peak = 12;
  b.load = {30, 5};
  b.store = {6, 2};
  b.alloc = 3;
  b.discard = 25;
  h.burst(0, b);
  EXPECT_EQ(h.occupancy(0), 4u + 30 + 3 - 6 - 25);
  EXPECT_EQ(h.loads_words(0), 30u);
  EXPECT_EQ(h.loads_messages(0), 5u);
  EXPECT_EQ(h.stores_words(0), 6u);
  EXPECT_EQ(h.stores_messages(0), 2u);
  EXPECT_EQ(h.writes_to(0), 4u + 30 + 3);
  EXPECT_EQ(h.reads_from(1), 30u);
  EXPECT_EQ(h.writes_to(1), 6u);
  EXPECT_EQ(h.residencies(0).r1_begun, 30u);
  EXPECT_EQ(h.residencies(0).r2_begun, 7u);
  EXPECT_EQ(h.residencies(0).d1_ended, 6u);
  EXPECT_EQ(h.residencies(0).d2_ended, 25u);

  // Over capacity, a net underflow, or a bad level: rejected with no
  // counter touched.
  const Hierarchy before = h;
  memsim::Burst big;
  big.peak = 16 - h.occupancy(0) + 1;
  EXPECT_THROW(h.burst(0, big), memsim::CapacityError);
  memsim::Burst under;
  under.discard = h.occupancy(0) + 1;
  EXPECT_THROW(h.burst(0, under), std::logic_error);
  memsim::Burst top;
  top.load = {1, 1};
  EXPECT_THROW(h.burst(2, top), std::out_of_range);
  EXPECT_THROW(h.burst(3, memsim::Burst{}), std::out_of_range);
  expect_same(h, before, "rejected bursts");
  // The slowest level takes in-place bursts (no neighbour needed).
  memsim::Burst in_place;
  in_place.alloc = 5;
  in_place.peak = 5;
  h.burst(2, in_place);
  EXPECT_EQ(h.occupancy(2), 5u);
}

}  // namespace
}  // namespace wa::dist
