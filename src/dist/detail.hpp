#pragma once
// wa::dist::detail -- shared charging helpers for the distributed
// algorithms.  Numerics run on ordinary matrices; these helpers charge
// the corresponding local data movement to a processor's
// memsim::Hierarchy in capacity-respecting chunks, so an algorithm
// that claims to be blocked for M1/M2 words cannot silently cheat.
// Each helper models a loop of per-tile or per-chunk load/store calls
// but charges it in closed form through one Hierarchy::burst: the
// counters and the capacity verdict are the loop's, the cost is O(1).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/kernels.hpp"
#include "memsim/hierarchy.hpp"

namespace wa::dist::detail {

/// Throw unless C, A, B are all square with the same edge; returns n.
inline std::size_t require_square_equal(linalg::ConstMatrixView<double> C,
                                        linalg::ConstMatrixView<double> A,
                                        linalg::ConstMatrixView<double> B,
                                        const char* who) {
  const std::size_t n = C.rows();
  if (C.cols() != n || A.rows() != n || A.cols() != n || B.rows() != n ||
      B.cols() != n) {
    throw std::invalid_argument(std::string(who) +
                                ": matrices must be square and equal");
  }
  return n;
}

/// Largest square tile edge b with 3 b^2 <= M1 (>= 1).
inline std::size_t l1_tile(std::size_t M1) {
  std::size_t b = 1;
  while (3 * (b + 1) * (b + 1) <= M1) ++b;
  return b;
}

/// Chunk size for streaming through L2 without evicting residents.
inline std::size_t l2_chunk(std::size_t M2) {
  return std::max<std::size_t>(1, M2 / 4);
}

/// ceil(a / b) for b > 0.
inline std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

/// Charge the L1<->L2 traffic of a blocked local C(m x n) += A(m x k)
/// * B(k x n) in L1 tiles of edge b: each C tile is loaded into L1
/// once and stored back to L2 exactly once; the A/B tiles of every
/// k-step stream through and are discarded.  Closed form over the
/// ceil(m/b) x ceil(n/b) C tiles: m*n + k*(m*ceil(n/b) + n*ceil(m/b))
/// words in tiles*(1 + 2*ceil(k/b)) load messages, one store per tile,
/// and a peak of the first (largest) C tile plus its A and B tiles.
inline void charge_local_gemm(memsim::Hierarchy& h, std::size_t m,
                              std::size_t n, std::size_t k, std::size_t b) {
  if (m == 0 || n == 0) return;
  const std::uint64_t tm = ceil_div(m, b), tn = ceil_div(n, b);
  const std::uint64_t tiles = tm * tn;
  const std::uint64_t mn = std::uint64_t(m) * n;
  const std::uint64_t streamed = std::uint64_t(k) * (m * tn + n * tm);
  const std::size_t bm = std::min(b, m), bn = std::min(b, n);
  const std::size_t bk = std::min(b, k);
  memsim::Burst burst;
  burst.peak = bm * bn + bm * bk + bk * bn;
  burst.load = {mn + streamed, tiles * (1 + 2 * ceil_div(k, b))};
  burst.store = {mn, tiles};
  burst.discard = streamed;
  h.burst(0, burst);
  h.flops(2 * mn * k);
}

/// Charge the L1<->L2 traffic of an in-place blocked triangular solve
/// or panel factor on an m x n tile against a k-wide triangle: the
/// tile moves exactly like a blocked gemm of that shape (each output
/// tile loaded and stored once, operand tiles streamed), so the gemm
/// charger is reused.
inline void charge_local_solve(memsim::Hierarchy& h, std::size_t m,
                               std::size_t n, std::size_t k, std::size_t b) {
  charge_local_gemm(h, m, n, k, b);
}

/// Chunk size that fits next to @p reserved resident words in L2.
/// An over-reserved L2 (reserved > M2 - 2, leaving no room to stream
/// even a one-word chunk next to its double buffer) is a modeling
/// error in the caller: it used to degenerate silently into per-word
/// charge loops (quadratic simulated event counts); now it throws.
inline std::size_t l2_room(std::size_t M2, std::size_t reserved) {
  if (M2 < 2 || reserved > M2 - 2) {
    throw std::invalid_argument(
        "l2_room: " + std::to_string(reserved) + " reserved words leave no "
        "streaming room in an M2=" + std::to_string(M2) + "-word L2");
  }
  return std::max<std::size_t>(1,
                               std::min((M2 - reserved) / 2, l2_chunk(M2)));
}

/// Stream @p words from L3 through L2 (read and discard), in
/// l2_room-sized chunks so they coexist with @p reserved
/// already-resident L2 words: one load message per chunk.
inline void charge_l3_read(memsim::Hierarchy& h, std::size_t words,
                           std::size_t M2, std::size_t reserved = 0) {
  const std::size_t chunk = l2_room(M2, reserved);
  memsim::Burst burst;
  burst.peak = std::min(chunk, words);
  burst.load = {words, ceil_div(words, chunk)};
  burst.discard = words;
  h.burst(1, burst);
}

/// Stream @p words from L2 into L3 (NVM writes), each l2_room-sized
/// chunk allocated in L2 and stored: one store message per chunk.
inline void charge_l3_write(memsim::Hierarchy& h, std::size_t words,
                            std::size_t M2, std::size_t reserved = 0) {
  const std::size_t chunk = l2_room(M2, reserved);
  memsim::Burst burst;
  burst.peak = std::min(chunk, words);
  burst.alloc = words;
  burst.store = {words, ceil_div(words, chunk)};
  h.burst(1, burst);
}

/// Hold @p words transiently resident in L2 alongside @p reserved
/// already-resident words, in chunks of half the free room so the
/// level's capacity is never exceeded (pure occupancy bookkeeping: no
/// channel traffic).
inline void charge_l2_transit(memsim::Hierarchy& h, std::size_t words,
                              std::size_t M2, std::size_t reserved) {
  if (M2 < 2 || reserved > M2 - 2) {
    throw std::invalid_argument(
        "charge_l2_transit: " + std::to_string(reserved) + " reserved words "
        "leave no transit room in an M2=" + std::to_string(M2) +
        "-word L2");
  }
  const std::size_t chunk = std::max<std::size_t>(1, (M2 - reserved) / 2);
  memsim::Burst burst;
  burst.peak = std::min(chunk, words);
  burst.alloc = words;
  burst.discard = words;
  h.burst(1, burst);
}

/// Pack a (possibly strided) matrix block contiguously into @p
/// scratch, row-major, and return the packed pointer.  Used to hand
/// real payload bytes to a data-moving Transport when a collective is
/// charged; callers skip the pack entirely when
/// machine.transport().moves_data() is false.
inline const double* pack_block(linalg::ConstMatrixView<double> block,
                                std::vector<double>& scratch) {
  scratch.resize(block.rows() * block.cols());
  for (std::size_t i = 0; i < block.rows(); ++i) {
    for (std::size_t j = 0; j < block.cols(); ++j) {
      scratch[i * block.cols() + j] = block(i, j);
    }
  }
  return scratch.data();
}

/// Split @p words into @p pieces sizes differing by at most one word
/// (their sum is exactly @p words).
inline std::vector<std::size_t> split_words(std::size_t words,
                                            std::size_t pieces) {
  pieces = std::max<std::size_t>(1, pieces);
  std::vector<std::size_t> out(pieces, words / pieces);
  for (std::size_t i = 0; i < words % pieces; ++i) ++out[i];
  return out;
}

}  // namespace wa::dist::detail
