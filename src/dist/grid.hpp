#pragma once
// wa::dist -- the topology layer of the distributed machine model.
//
// ProcessGrid owns every piece of geometry the Section 7 algorithms
// used to hand-roll: rank <-> (row, col) mapping, row/column
// communicator groups, and the *padded* block decomposition of an
// n x n matrix over the grid.  Any processor count P is accepted (P
// is factored into the nearest pr x pc rectangle, so prime P yields a
// 1 x P grid rather than a rejection), and any matrix edge n is
// accepted (edge blocks are sized with the balanced ceil/floor split,
// so rows/columns that do not divide evenly shrink the last blocks
// instead of throwing).
//
// ProcessGrid3D adds the replicated-layer dimension of the 2.5D
// algorithms: c layers of a ProcessGrid over P/c processors, with
// fiber groups across layers and a balanced split of the SUMMA step
// sequence over layers (c no longer has to divide the grid edge).

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace wa::dist {

/// Half-open index range [off, off + sz) of one block of a
/// 1-D balanced partition.
struct BlockRange {
  std::size_t off = 0;
  std::size_t sz = 0;
};

/// Block @p i of @p n items split into @p parts balanced pieces: the
/// first n % parts blocks get one extra item, so sizes differ by at
/// most one and always sum to n (blocks may be empty when n < parts).
inline BlockRange balanced_block(std::size_t n, std::size_t parts,
                                 std::size_t i) {
  if (parts == 0) {
    throw std::invalid_argument("balanced_block: parts must be positive");
  }
  const std::size_t q = n / parts, r = n % parts;
  return BlockRange{i * q + std::min(i, r), q + (i < r ? 1 : 0)};
}

/// Block-cyclic ownership over one dimension: the @p b-wide blocks of
/// [0, n) are dealt round-robin, block k to owner k % parts.  Returns
/// the portions of @p owner's blocks that intersect [lo, n), clipped
/// to the range -- the slice of a panel/trailing submatrix one grid
/// row (or column) owns in the LU schedules.
inline std::vector<BlockRange> cyclic_blocks(std::size_t n, std::size_t b,
                                             std::size_t parts,
                                             std::size_t owner,
                                             std::size_t lo = 0) {
  if (b == 0 || parts == 0) {
    throw std::invalid_argument("cyclic_blocks: b and parts must be positive");
  }
  std::vector<BlockRange> out;
  for (std::size_t k = lo / b; k * b < n; ++k) {
    if (k % parts != owner) continue;
    const std::size_t off = std::max(lo, k * b);
    const std::size_t end = std::min(n, (k + 1) * b);
    if (off < end) out.push_back(BlockRange{off, end - off});
  }
  return out;
}

/// Total size of @p owner's cyclic_blocks of [lo, n) -- the word count
/// behind every per-rank LU charge.  O(1): owner's share of a prefix
/// [0, x) is b words per full round of parts blocks plus its clipped
/// slot in the last partial round.
inline std::size_t cyclic_words(std::size_t n, std::size_t b,
                                std::size_t parts, std::size_t owner,
                                std::size_t lo = 0) {
  if (b == 0 || parts == 0) {
    throw std::invalid_argument("cyclic_words: b and parts must be positive");
  }
  if (owner >= parts || lo >= n) return 0;
  const std::size_t round = b * parts, slot = owner * b;
  const auto prefix = [&](std::size_t x) {
    const std::size_t rem = x % round;
    return x / round * b + (rem > slot ? std::min(b, rem - slot) : 0);
  };
  return prefix(n) - prefix(lo);
}

/// 2-D process topology: pr x pc ranks in row-major order.
class ProcessGrid {
 public:
  /// Factor @p P into the most-square pr x pc rectangle with
  /// pr <= pc and pr * pc == P (1 x P when P is prime).
  explicit ProcessGrid(std::size_t P) {
    if (P == 0) {
      throw std::invalid_argument("ProcessGrid: P must be positive");
    }
    std::size_t pr = 1;
    for (std::size_t d = 1; d * d <= P; ++d) {
      if (P % d == 0) pr = d;
    }
    pr_ = pr;
    pc_ = P / pr;
  }

  /// Explicit pr x pc shape.
  ProcessGrid(std::size_t pr, std::size_t pc) : pr_(pr), pc_(pc) {
    if (pr == 0 || pc == 0) {
      throw std::invalid_argument("ProcessGrid: dims must be positive");
    }
  }

  std::size_t rows() const { return pr_; }
  std::size_t cols() const { return pc_; }
  std::size_t size() const { return pr_ * pc_; }

  std::size_t rank(std::size_t i, std::size_t j) const { return i * pc_ + j; }
  std::size_t row_of(std::size_t p) const { return p / pc_; }
  std::size_t col_of(std::size_t p) const { return p % pc_; }

  /// All ranks of grid row @p i (the A-panel broadcast group).
  std::vector<std::size_t> row_group(std::size_t i) const {
    std::vector<std::size_t> g(pc_);
    for (std::size_t j = 0; j < pc_; ++j) g[j] = rank(i, j);
    return g;
  }

  /// All ranks of grid column @p j (the B-panel broadcast group).
  std::vector<std::size_t> col_group(std::size_t j) const {
    std::vector<std::size_t> g(pr_);
    for (std::size_t i = 0; i < pr_; ++i) g[i] = rank(i, j);
    return g;
  }

  /// Rows [off, off+sz) of an n-row matrix owned by grid row @p i.
  BlockRange row_block(std::size_t n, std::size_t i) const {
    return balanced_block(n, pr_, i);
  }

  /// Columns [off, off+sz) of an n-column matrix owned by grid
  /// column @p j.
  BlockRange col_block(std::size_t n, std::size_t j) const {
    return balanced_block(n, pc_, j);
  }

  /// Largest owned block, in words (the first blocks of a balanced
  /// split are the big ones) -- capacity preconditions check this.
  std::size_t max_block_words(std::size_t n) const {
    return row_block(n, 0).sz * col_block(n, 0).sz;
  }

  /// Grid row owning the @p kb-th b-wide row block of a block-cyclic
  /// layout (the LU panel ownership: blocks are dealt round-robin).
  std::size_t cyclic_row_owner(std::size_t kb) const { return kb % pr_; }

  /// Grid column owning the @p kb-th b-wide column block.
  std::size_t cyclic_col_owner(std::size_t kb) const { return kb % pc_; }

  /// Row ranges in [lo, n) owned by grid row @p i under a b-wide
  /// block-cyclic layout.
  std::vector<BlockRange> cyclic_row_blocks(std::size_t n, std::size_t b,
                                            std::size_t i,
                                            std::size_t lo = 0) const {
    return cyclic_blocks(n, b, pr_, i, lo);
  }

  /// Column ranges in [lo, n) owned by grid column @p j.
  std::vector<BlockRange> cyclic_col_blocks(std::size_t n, std::size_t b,
                                            std::size_t j,
                                            std::size_t lo = 0) const {
    return cyclic_blocks(n, b, pc_, j, lo);
  }

  /// Rows in [lo, n) owned by grid row @p i (block-cyclic, b-wide).
  std::size_t cyclic_row_words(std::size_t n, std::size_t b, std::size_t i,
                               std::size_t lo = 0) const {
    return cyclic_words(n, b, pr_, i, lo);
  }

  /// Columns in [lo, n) owned by grid column @p j.
  std::size_t cyclic_col_words(std::size_t n, std::size_t b, std::size_t j,
                               std::size_t lo = 0) const {
    return cyclic_words(n, b, pc_, j, lo);
  }

  /// All P ranks in row-major order -- the flat 1-D topology the
  /// row-partitioned Krylov solvers treat the grid as (their
  /// allreduce group spans every rank).
  std::vector<std::size_t> linear_group() const {
    std::vector<std::size_t> g(size());
    for (std::size_t p = 0; p < g.size(); ++p) g[p] = p;
    return g;
  }

  /// Rows [off, off+sz) of an n-row vector owned by linear rank @p p
  /// under the balanced 1-D row partition over all P ranks.
  BlockRange linear_block(std::size_t n, std::size_t p) const {
    return balanced_block(n, size(), p);
  }

  /// Linear rank owning global row @p i of an n-row vector.
  std::size_t linear_owner(std::size_t n, std::size_t i) const {
    const std::size_t P = size();
    const std::size_t q = n / P, r = n % P;
    if (i < r * (q + 1)) return i / (q + 1);
    return q == 0 ? r : r + (i - r * (q + 1)) / q;
  }

  /// Partition of the contraction dimension into SUMMA panels: the
  /// common refinement of the row-block and column-block boundaries,
  /// so every panel has a unique owner column (in A) and owner row
  /// (in B) even on rectangular grids.  On a square grid with
  /// pr | n this is exactly the classical pr panels of width n/pr.
  std::vector<BlockRange> k_panels(std::size_t n) const {
    std::vector<std::size_t> cuts;
    cuts.reserve(pr_ + pc_ + 1);
    cuts.push_back(0);
    for (std::size_t i = 1; i < pr_; ++i) cuts.push_back(row_block(n, i).off);
    for (std::size_t j = 1; j < pc_; ++j) cuts.push_back(col_block(n, j).off);
    cuts.push_back(n);
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    std::vector<BlockRange> panels;
    panels.reserve(cuts.size() - 1);
    for (std::size_t t = 0; t + 1 < cuts.size(); ++t) {
      panels.push_back(BlockRange{cuts[t], cuts[t + 1] - cuts[t]});
    }
    return panels;
  }

 private:
  std::size_t pr_ = 1, pc_ = 1;
};

/// One neighbour shipment of a 1-D ghost-zone exchange: @p rows rows
/// travel from their owner @p src to the requesting rank @p dst.
struct HaloTransfer {
  std::size_t src = 0;
  std::size_t dst = 0;
  std::size_t rows = 0;
};

/// Shipments of a width-@p ghost exchange over the balanced 1-D row
/// partition of n rows: every rank receives the @p ghost rows
/// immediately above and below its own range from their owners
/// (clipped at the domain edges).  A ghost zone wider than a
/// neighbour's block spills over to the next rank, so the list is
/// correct for any P, any n, and ghost widths spanning several
/// blocks; ranks with empty blocks request nothing.
inline std::vector<HaloTransfer> halo_transfers(const ProcessGrid& g,
                                                std::size_t n,
                                                std::size_t ghost) {
  std::vector<HaloTransfer> out;
  if (ghost == 0) return out;
  for (std::size_t p = 0; p < g.size(); ++p) {
    const BlockRange own = g.linear_block(n, p);
    if (own.sz == 0) continue;
    const auto request = [&](std::size_t lo, std::size_t hi) {
      // Split [lo, hi) by owning rank; each owner ships its overlap.
      while (lo < hi) {
        const std::size_t q = g.linear_owner(n, lo);
        const BlockRange blk = g.linear_block(n, q);
        const std::size_t end = std::min(hi, blk.off + blk.sz);
        out.push_back(HaloTransfer{q, p, end - lo});
        lo = end;
      }
    };
    request(own.off >= ghost ? own.off - ghost : 0, own.off);
    request(own.off + own.sz, std::min(n, own.off + own.sz + ghost));
  }
  return out;
}

/// Size of the intersection of half-open intervals [lo1, hi1) and
/// [lo2, hi2).
inline std::size_t interval_overlap(std::size_t lo1, std::size_t hi1,
                                    std::size_t lo2, std::size_t hi2) {
  const std::size_t lo = std::max(lo1, lo2);
  const std::size_t hi = std::min(hi1, hi2);
  return hi > lo ? hi - lo : 0;
}

/// Shipments of a depth-@p ghost exchange over the 2-D block
/// partition of an nx-by-ny node mesh: grid rank (i, j) owns the tile
/// row_block(ny, i) x col_block(nx, j), and its ghost region is the
/// tile dilated by @p ghost nodes per side -- faces AND corners, since
/// the powers of a (2b+1)^2 box stencil consume the full dilated box
/// -- clipped at the mesh edges.  Every ghost node is shipped once by
/// the rank owning it, so the list is correct for ragged P (uneven
/// tiles), nx/ny indivisible by the grid edges, and ghost widths
/// spilling across several tiles; empty tiles request and ship
/// nothing.  `rows` counts mesh nodes (a layered 3-D partition scales
/// each shipment by its nz pencils).
inline std::vector<HaloTransfer> halo_transfers_2d(const ProcessGrid& g,
                                                   std::size_t nx,
                                                   std::size_t ny,
                                                   std::size_t ghost) {
  std::vector<HaloTransfer> out;
  if (ghost == 0) return out;
  const std::size_t P = g.size();
  std::vector<BlockRange> tx(P), ty(P);
  for (std::size_t p = 0; p < P; ++p) {
    ty[p] = g.row_block(ny, g.row_of(p));
    tx[p] = g.col_block(nx, g.col_of(p));
  }
  for (std::size_t p = 0; p < P; ++p) {
    if (tx[p].sz == 0 || ty[p].sz == 0) continue;
    const std::size_t ex0 = tx[p].off >= ghost ? tx[p].off - ghost : 0;
    const std::size_t ex1 = std::min(nx, tx[p].off + tx[p].sz + ghost);
    const std::size_t ey0 = ty[p].off >= ghost ? ty[p].off - ghost : 0;
    const std::size_t ey1 = std::min(ny, ty[p].off + ty[p].sz + ghost);
    for (std::size_t q = 0; q < P; ++q) {
      if (q == p) continue;  // own tile is interior to the dilated box
      const std::size_t nodes =
          interval_overlap(ex0, ex1, tx[q].off, tx[q].off + tx[q].sz) *
          interval_overlap(ey0, ey1, ty[q].off, ty[q].off + ty[q].sz);
      if (nodes > 0) out.push_back(HaloTransfer{q, p, nodes});
    }
  }
  return out;
}

/// Diamond variant of halo_transfers_2d for *cross* stencils (axis
/// offsets only, e.g. the 5-point Laplacian): e applications of the
/// stencil reach only nodes within Manhattan distance e, so a rank's
/// depth-@p ghost region is the diamond gapx + gapy <= ghost around
/// its tile (gap = per-axis distance to the tile), not the full
/// dilated box.  The face strips are identical to the box variant;
/// each corner wedge shrinks from ghost^2 to ghost*(ghost-1)/2 nodes.
/// For radius-r cross stencils the diamond taken at ghost = s*r is a
/// superset of the exact s-hop reach (ceil(gapx/r) + ceil(gapy/r) <=
/// s implies gapx + gapy <= s*r), so shipping it is always safe and
/// exact for r = 1.
inline std::vector<HaloTransfer> halo_transfers_2d_diamond(
    const ProcessGrid& g, std::size_t nx, std::size_t ny,
    std::size_t ghost) {
  std::vector<HaloTransfer> out;
  if (ghost == 0) return out;
  const std::size_t P = g.size();
  std::vector<BlockRange> tx(P), ty(P);
  for (std::size_t p = 0; p < P; ++p) {
    ty[p] = g.row_block(ny, g.row_of(p));
    tx[p] = g.col_block(nx, g.col_of(p));
  }
  const auto gap = [](std::size_t v, const BlockRange& t) -> std::size_t {
    if (v < t.off) return t.off - v;
    if (v >= t.off + t.sz) return v - (t.off + t.sz) + 1;
    return 0;
  };
  for (std::size_t p = 0; p < P; ++p) {
    if (tx[p].sz == 0 || ty[p].sz == 0) continue;
    const std::size_t ex0 = tx[p].off >= ghost ? tx[p].off - ghost : 0;
    const std::size_t ex1 = std::min(nx, tx[p].off + tx[p].sz + ghost);
    const std::size_t ey0 = ty[p].off >= ghost ? ty[p].off - ghost : 0;
    const std::size_t ey1 = std::min(ny, ty[p].off + ty[p].sz + ghost);
    for (std::size_t q = 0; q < P; ++q) {
      if (q == p) continue;
      if (tx[q].sz == 0 || ty[q].sz == 0) continue;
      // Intersect q's tile with p's dilated box, then keep only the
      // nodes inside the diamond.
      const std::size_t x0 = std::max(ex0, tx[q].off);
      const std::size_t x1 = std::min(ex1, tx[q].off + tx[q].sz);
      const std::size_t y0 = std::max(ey0, ty[q].off);
      const std::size_t y1 = std::min(ey1, ty[q].off + ty[q].sz);
      std::size_t nodes = 0;
      for (std::size_t y = y0; y < y1; ++y) {
        const std::size_t gy = gap(y, ty[p]);
        for (std::size_t x = x0; x < x1; ++x) {
          if (gap(x, tx[p]) + gy <= ghost) ++nodes;
        }
      }
      if (nodes > 0) out.push_back(HaloTransfer{q, p, nodes});
    }
  }
  return out;
}

/// 3-D process topology for the 2.5D algorithms: @p c replicated
/// layers of a ProcessGrid over P/c ranks.  Rank of (i, j, l) is
/// l * (P/c) + layer rank, so layer 0 is the "home" layer holding the
/// canonical copy of the data.
class ProcessGrid3D {
 public:
  ProcessGrid3D(std::size_t P, std::size_t c)
      : layer_(checked_layer_size(P, c)), c_(c) {}

  const ProcessGrid& layer() const { return layer_; }
  std::size_t layers() const { return c_; }
  std::size_t size() const { return layer_.size() * c_; }

  std::size_t rank(std::size_t i, std::size_t j, std::size_t l) const {
    return l * layer_.size() + layer_.rank(i, j);
  }
  std::size_t layer_of(std::size_t p) const { return p / layer_.size(); }
  std::size_t layer_rank_of(std::size_t p) const { return p % layer_.size(); }

  /// The c ranks holding position (i, j) across all layers (the
  /// replication/reduction group).
  std::vector<std::size_t> fiber_group(std::size_t i, std::size_t j) const {
    std::vector<std::size_t> g(c_);
    for (std::size_t l = 0; l < c_; ++l) g[l] = rank(i, j, l);
    return g;
  }

  std::vector<std::size_t> row_group(std::size_t i, std::size_t l) const {
    std::vector<std::size_t> g(layer_.cols());
    for (std::size_t j = 0; j < layer_.cols(); ++j) g[j] = rank(i, j, l);
    return g;
  }

  std::vector<std::size_t> col_group(std::size_t j, std::size_t l) const {
    std::vector<std::size_t> g(layer_.rows());
    for (std::size_t i = 0; i < layer_.rows(); ++i) g[i] = rank(i, j, l);
    return g;
  }

  /// Layer @p l's balanced share of @p steps SUMMA steps (layers no
  /// longer have to divide the step count evenly).
  BlockRange layer_steps(std::size_t steps, std::size_t l) const {
    return balanced_block(steps, c_, l);
  }

 private:
  static std::size_t checked_layer_size(std::size_t P, std::size_t c) {
    if (P == 0) {
      throw std::invalid_argument("ProcessGrid3D: P must be positive");
    }
    if (c == 0 || P % c != 0) {
      throw std::invalid_argument("ProcessGrid3D: c must divide P");
    }
    return P / c;
  }

  ProcessGrid layer_;
  std::size_t c_;
};

}  // namespace wa::dist
