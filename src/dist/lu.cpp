#include "dist/lu.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "dist/detail.hpp"
#include "linalg/kernels.hpp"
#include "linalg/local_kernels.hpp"

namespace wa::dist {
namespace {

// Validate shapes and build the 2-D topology the panels and trailing
// matrix are dealt onto block-cyclically (block size = panel width b,
// block (ib, jb) owned by rank (ib % pr, jb % pc)).
ProcessGrid validate_lu(const Machine& m, linalg::ConstMatrixView<double> A,
                        std::size_t b) {
  if (A.rows() != A.cols() || A.rows() == 0) {
    throw std::invalid_argument("lu: matrix must be square and nonempty");
  }
  if (b == 0 || b > A.rows()) {
    throw std::invalid_argument("lu: panel width out of range");
  }
  return ProcessGrid(m.nprocs());
}

// Grid row i and grid column j as one deterministic rank list (the
// panel-solve group of step (i, j)); the shared corner appears once.
std::vector<std::size_t> cross_group(const ProcessGrid& g, std::size_t i,
                                     std::size_t j) {
  std::vector<std::size_t> ranks = g.row_group(i);
  for (std::size_t r : g.col_group(j)) {
    if (g.row_of(r) != i) ranks.push_back(r);
  }
  return ranks;
}

std::size_t sum_sizes(const std::vector<BlockRange>& blocks) {
  std::size_t words = 0;
  for (const BlockRange& r : blocks) words += r.sz;
  return words;
}

// Pack a list of (possibly strided) tiles back-to-back into
// @p scratch: the payload of one batched panel broadcast.
const double* pack_tiles(
    const std::vector<linalg::ConstMatrixView<double>>& tiles,
    std::vector<double>& scratch) {
  std::size_t total = 0;
  for (const auto& t : tiles) total += t.rows() * t.cols();
  scratch.resize(total);
  std::size_t off = 0;
  for (const auto& t : tiles) {
    for (std::size_t i = 0; i < t.rows(); ++i) {
      for (std::size_t j = 0; j < t.cols(); ++j) scratch[off++] = t(i, j);
    }
  }
  return scratch.data();
}

}  // namespace

void lu_right_looking(Machine& m, linalg::MatrixView<double> A,
                      std::size_t b) {
  const ProcessGrid g = validate_lu(m, A, b);
  const std::size_t n = A.rows();
  const std::size_t b1 = detail::l1_tile(m.M1());
  const bool move = m.transport().moves_data();
  std::vector<double> scratch;

  for (std::size_t k0 = 0; k0 < n; k0 += b) {
    const std::size_t kb = k0 / b;
    const std::size_t bs = std::min(b, n - k0);
    const std::size_t lo = k0 + bs;  // trailing matrix starts here
    const std::size_t or_ = g.cyclic_row_owner(kb);
    const std::size_t oc = g.cyclic_col_owner(kb);

    // Factor the diagonal block on its owner; the finished L11/U11
    // tile is read from and written back to NVM exactly once.
    m.run_local_on({g.rank(or_, oc)}, [&](std::size_t, memsim::Hierarchy& h) {
      linalg::lu_nopivot_unblocked(A.block(k0, k0, bs, bs));
      detail::charge_l3_read(h, bs * bs, m.M2());
      detail::charge_local_solve(h, bs, bs, bs, b1);
      detail::charge_l3_write(h, bs * bs, m.M2());
    });
    if (lo >= n) break;

    // The factored diagonal goes only to the ranks solving the two
    // panels: its grid row (U row-panel) and grid column (L column-
    // panel) -- not all_procs.  It was factored just above, so the
    // real L11/U11 bytes are available to move.
    const double* diag =
        move ? detail::pack_block(A.block(k0, k0, bs, bs), scratch) : nullptr;
    m.bcast(g.row_group(or_), bs * bs, diag);
    m.bcast(g.col_group(oc), bs * bs, diag);

    // Panel solves: rank (or_, j) owns the U tiles of block row kb in
    // its cyclic trailing columns; rank (i, oc) owns the L tiles of
    // block column kb in its cyclic trailing rows.  Every charge is
    // the rank's actual owned words; each finished panel tile is
    // written to NVM exactly once, here.
    m.run_local_on(
        cross_group(g, or_, oc), [&](std::size_t p, memsim::Hierarchy& h) {
          const std::size_t i = g.row_of(p), j = g.col_of(p);
          const std::size_t u_words =
              i == or_ ? bs * g.cyclic_col_words(n, b, j, lo) : 0;
          const std::size_t l_words =
              j == oc ? g.cyclic_row_words(n, b, i, lo) * bs : 0;
          detail::charge_l2_transit(h, bs * bs, m.M2(), 0);  // received diag
          detail::charge_l3_read(h, u_words + l_words, m.M2());
          if (i == or_) {
            for (const BlockRange& cb : g.cyclic_col_blocks(n, b, j, lo)) {
              linalg::active_kernels().trsm_left_unit_lower(A.block(k0, k0, bs, bs),
                                           A.block(k0, cb.off, bs, cb.sz));
              detail::charge_local_solve(h, bs, cb.sz, bs, b1);
            }
          }
          if (j == oc) {
            for (const BlockRange& rb : g.cyclic_row_blocks(n, b, i, lo)) {
              linalg::active_kernels().trsm_right_upper(A.block(k0, k0, bs, bs),
                                       A.block(rb.off, k0, rb.sz, bs));
              detail::charge_local_solve(h, rb.sz, bs, bs, b1);
            }
          }
          detail::charge_l3_write(h, u_words + l_words, m.M2());
        });

    // Finished panel tiles travel to their gemm consumers: L tiles
    // along the owning grid row, U tiles along the owning grid column.
    // The panels were just solved, so the batched broadcasts carry the
    // real concatenated tiles.
    for (std::size_t i = 0; i < g.rows(); ++i) {
      const std::size_t words = g.cyclic_row_words(n, b, i, lo) * bs;
      if (words == 0) continue;
      const double* payload = nullptr;
      if (move) {
        std::vector<linalg::ConstMatrixView<double>> tiles;
        for (const BlockRange& rb : g.cyclic_row_blocks(n, b, i, lo)) {
          tiles.push_back(A.block(rb.off, k0, rb.sz, bs));
        }
        payload = pack_tiles(tiles, scratch);
      }
      m.bcast(g.row_group(i), words, payload);
    }
    for (std::size_t j = 0; j < g.cols(); ++j) {
      const std::size_t words = bs * g.cyclic_col_words(n, b, j, lo);
      if (words == 0) continue;
      const double* payload = nullptr;
      if (move) {
        std::vector<linalg::ConstMatrixView<double>> tiles;
        for (const BlockRange& cb : g.cyclic_col_blocks(n, b, j, lo)) {
          tiles.push_back(A.block(k0, cb.off, bs, cb.sz));
        }
        payload = pack_tiles(tiles, scratch);
      }
      m.bcast(g.col_group(j), words, payload);
    }

    // Trailing update: every rank streams its own cyclic tiles of the
    // trailing matrix out of NVM, applies its gemms, and writes them
    // straight back -- the CA schedule's write amplification, charged
    // from the rank's actual owned words.
    m.run_local_each([&](std::size_t p, memsim::Hierarchy& h) {
      const auto rbs = g.cyclic_row_blocks(n, b, g.row_of(p), lo);
      const auto cbs = g.cyclic_col_blocks(n, b, g.col_of(p), lo);
      const std::size_t own_rows = sum_sizes(rbs);
      const std::size_t own_cols = sum_sizes(cbs);
      detail::charge_l2_transit(h, (own_rows + own_cols) * bs, m.M2(), 0);
      detail::charge_l3_read(h, own_rows * own_cols, m.M2());
      for (const BlockRange& rb : rbs) {
        for (const BlockRange& cb : cbs) {
          linalg::active_kernels().gemm_acc(A.block(rb.off, cb.off, rb.sz, cb.sz),
                           A.block(rb.off, k0, rb.sz, bs),
                           A.block(k0, cb.off, bs, cb.sz), -1.0);
        }
      }
      detail::charge_local_gemm(h, own_rows, own_cols, bs, b1);
      detail::charge_l3_write(h, own_rows * own_cols, m.M2());
    });
  }
}

void lu_left_looking(Machine& m, linalg::MatrixView<double> A, std::size_t b,
                     std::size_t s) {
  const ProcessGrid g = validate_lu(m, A, b);
  if (s == 0) throw std::invalid_argument("lu: s must be positive");
  const std::size_t n = A.rows();
  const std::size_t b1 = detail::l1_tile(m.M1());
  const bool move = m.transport().moves_data();
  std::vector<double> scratch;
  // The active column's finished U blocks, rows [0, j0) x w packed
  // contiguously as they are broadcast down the column group: the B
  // operand of every update of the column, read once per k instead of
  // once per strided row of A.
  std::vector<double> ucol(n * b);

  for (std::size_t j0 = 0; j0 < n; j0 += b) {
    const std::size_t jb = j0 / b;
    const std::size_t w = std::min(b, n - j0);
    const std::size_t jc = g.cyclic_col_owner(jb);
    const std::vector<std::size_t> colg = g.col_group(jc);
    const auto u_above = [&](std::size_t rows) {
      return linalg::ConstMatrixView<double>(ucol.data(), rows, w, w);
    };

    // Prior-panel refetch, the LL re-communication: every rank reads
    // the L tiles it owns in block columns < jb from its NVM and
    // ships them along its grid row to the column group factoring
    // block column jb.  @p s batches the shipments into s-panel
    // groups (fewer, larger messages; the words are unchanged).  Rank
    // (i, j) owns block columns q = j, j + pc, ... of width b (j0 is a
    // multiple of b) and, in each, its cyclic rows below the block.
    if (j0 > 0) {
      const auto l_words = [&](std::size_t i, std::size_t q) {
        return g.cyclic_row_words(n, b, i, (q + 1) * b) * b;
      };
      m.run_local_each([&](std::size_t p, memsim::Hierarchy& h) {
        const std::size_t i = g.row_of(p);
        std::size_t words = 0;
        for (std::size_t q = g.col_of(p); q < jb; q += g.cols()) {
          words += l_words(i, q);
        }
        detail::charge_l3_read(h, words, m.M2());
      });
      for (std::size_t i = 0; i < g.rows(); ++i) {
        for (std::size_t j = 0; j < g.cols(); ++j) {
          std::size_t batched = 0, in_batch = 0;
          for (std::size_t q = j; q < jb; q += g.cols()) {
            batched += l_words(i, q);
            if (++in_batch == s) {
              if (batched > 0) m.send(g.rank(i, j), g.rank(i, jc), batched);
              batched = 0;
              in_batch = 0;
            }
          }
          if (batched > 0) m.send(g.rank(i, j), g.rank(i, jc), batched);
        }
      }
    }

    // Top-triangle chain: the U blocks of column jb are produced in
    // block-row order; each owner pulls every pending panel update
    // into its tile, then solves against the stored unit-lower
    // diagonal -- the forward-substitution dependency that makes this
    // the sequential spine of LL.  The updates from all prior panels
    // run as one gemm over the whole K range [0, k0): the charge
    // still models b1-tiled L1 traffic, and each entry accumulates in
    // ascending k exactly as panel-by-panel calls would.
    for (std::size_t k0 = 0; k0 < j0; k0 += b) {
      const std::size_t kw = std::min(b, j0 - k0);
      const std::size_t uowner = g.rank(g.cyclic_row_owner(k0 / b), jc);
      m.run_local_on({uowner}, [&](std::size_t, memsim::Hierarchy& h) {
        detail::charge_l3_read(h, kw * w, m.M2());  // own U tile, once
        // Received L row tiles and earlier U blocks pass through L2.
        detail::charge_l2_transit(h, k0 * kw + k0 * w, m.M2(), 0);
        if (k0 > 0) {
          linalg::active_kernels().gemm_acc(A.block(k0, j0, kw, w),
                                            A.block(k0, 0, kw, k0),
                                            u_above(k0), -1.0);
        }
        linalg::active_kernels().trsm_left_unit_lower(A.block(k0, k0, kw, kw),
                                     A.block(k0, j0, kw, w));
        detail::charge_local_gemm(h, kw, w, k0, b1);
        detail::charge_local_solve(h, kw, w, kw, b1);
      });
      // The fresh U block feeds every later block of the column.
      m.bcast(colg, kw * w,
              move ? detail::pack_block(A.block(k0, j0, kw, w), scratch)
                   : nullptr);
      for (std::size_t r = k0; r < k0 + kw; ++r) {
        std::copy_n(&A(r, j0), w, ucol.data() + r * w);
      }
    }

    // Below-diagonal update: each rank of the column group applies
    // all prior panels to its cyclic rows of [j0, n), reading its
    // column blocks from NVM once (they stay resident until the final
    // write below -- no intermediate write-back).  One gemm per owned
    // row block covers every prior panel.
    m.run_local_on(colg, [&](std::size_t p, memsim::Hierarchy& h) {
      const auto rbs = g.cyclic_row_blocks(n, b, g.row_of(p), j0);
      const std::size_t own_rows = sum_sizes(rbs);
      detail::charge_l3_read(h, own_rows * w, m.M2());
      detail::charge_l2_transit(h, own_rows * j0 + j0 * w, m.M2(), 0);
      if (j0 > 0) {
        for (const BlockRange& rb : rbs) {
          linalg::active_kernels().gemm_acc(A.block(rb.off, j0, rb.sz, w),
                                            A.block(rb.off, 0, rb.sz, j0),
                                            u_above(j0), -1.0);
        }
      }
      detail::charge_local_gemm(h, own_rows, w, j0, b1);
    });

    // Factor the diagonal block (its tile was already read by the
    // update phase) and send it down the column group for the solves.
    m.run_local_on({g.rank(g.cyclic_row_owner(jb), jc)},
                   [&](std::size_t, memsim::Hierarchy& h) {
                     linalg::lu_nopivot_unblocked(A.block(j0, j0, w, w));
                     detail::charge_local_solve(h, w, w, w, b1);
                   });
    m.bcast(colg, w * w,
            move ? detail::pack_block(A.block(j0, j0, w, w), scratch)
                 : nullptr);

    // Solve below the diagonal and write the finished block column to
    // NVM exactly once -- the WA schedule's defining property.  Each
    // rank writes precisely the rows it owns, over the full column
    // height (top U tiles included).
    m.run_local_on(colg, [&](std::size_t p, memsim::Hierarchy& h) {
      const std::size_t i = g.row_of(p);
      detail::charge_l2_transit(h, w * w, m.M2(), 0);  // received diag
      for (const BlockRange& rb : g.cyclic_row_blocks(n, b, i, j0 + w)) {
        linalg::active_kernels().trsm_right_upper(A.block(j0, j0, w, w),
                                 A.block(rb.off, j0, rb.sz, w));
        detail::charge_local_solve(h, rb.sz, w, w, b1);
      }
      detail::charge_l3_write(h, g.cyclic_row_words(n, b, i, 0) * w, m.M2());
    });
  }
}

}  // namespace wa::dist
