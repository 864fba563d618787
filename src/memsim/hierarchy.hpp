#pragma once
// wa::memsim -- explicit multi-level memory hierarchy with separate
// read/write accounting, implementing the machine model of Section 2 of
// "Write-Avoiding Algorithms" (Carson et al., UCB/EECS-2015-163).
//
// Levels are indexed 0..r-1 from the *fastest* (L1) to the *slowest*
// (e.g. DRAM or NVM).  A "load" at level s moves words from level s+1
// into level s and is counted as one read at s+1 plus one write at s;
// a "store" moves words from s to s+1 and is counted as one read at s
// plus one write at s+1.  Arithmetic never touches any counted level.
//
// The hierarchy also tracks *residencies* (Section 2): a residency
// begins with a load (R1) or an in-place allocation (R2) and ends with
// a store (D1) or a discard (D2).  Occupancy at each level is enforced
// against the level's capacity, so an algorithm that claims to be
// blocked for a fast memory of M words cannot silently cheat.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace wa::memsim {

/// Word/message counters for one direction of one inter-level channel.
struct ChannelCounters {
  std::uint64_t words = 0;
  std::uint64_t messages = 0;

  void add(std::size_t w) {
    words += w;
    messages += 1;
  }
};

/// Tallies of the four residency classes of Section 2 (in words).
struct ResidencyCounters {
  std::uint64_t r1_begun = 0;  ///< words whose residency began with a load
  std::uint64_t r2_begun = 0;  ///< words whose residency began in place
  std::uint64_t d1_ended = 0;  ///< words whose residency ended with a store
  std::uint64_t d2_ended = 0;  ///< words whose residency ended discarded
};

/// The net effect of a run of load/store/alloc/discard calls at one
/// level, charged in one step by Hierarchy::burst.  A closed-form
/// charger fills it from the shape of its loop instead of replaying
/// the loop call by call.
struct Burst {
  /// Most words the run holds resident at once above the occupancy it
  /// starts from (the capacity check of every step of the run).
  std::size_t peak = 0;
  ChannelCounters load;        ///< loads into the level (R1 begun)
  ChannelCounters store;       ///< stores out of the level (D1 ended)
  std::uint64_t alloc = 0;     ///< words allocated in place (R2 begun)
  std::uint64_t discard = 0;   ///< words discarded (D2 ended)
};

/// Exception thrown when a level's capacity would be exceeded.
class CapacityError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Explicit multi-level memory hierarchy (see file comment).
class Hierarchy {
 public:
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();

  /// @param capacity_words  capacity of each level, fastest first.  The
  ///   last (slowest) level is usually kUnbounded: all data fits there.
  explicit Hierarchy(std::vector<std::size_t> capacity_words);

  std::size_t levels() const { return capacity_.size(); }
  std::size_t capacity(std::size_t level) const { return capacity_.at(level); }
  std::size_t occupancy(std::size_t level) const {
    return occupancy_.at(level);
  }

  /// Move @p words from level s+1 into level s (begin an R1 residency).
  void load(std::size_t s, std::size_t words);

  /// Move @p words from level s into level s+1 (end a D1 residency).
  void store(std::size_t s, std::size_t words);

  /// Begin an R2 residency: create @p words at level s by writing them
  /// there (e.g. zero-initializing an accumulator), no slow-side read.
  void alloc(std::size_t s, std::size_t words);

  /// End a D2 residency: forget @p words at level s without traffic.
  void discard(std::size_t s, std::size_t words);

  /// Charge a whole run of load/store/alloc/discard calls at level s
  /// in O(1).  Every counter (channel words and messages, in-place
  /// allocations, residency classes, occupancy) ends exactly where the
  /// call-by-call run would leave it.  The caller vouches that the run
  /// never ends more residencies than it has begun at any step; the
  /// burst checks capacity once, against occupancy + b.peak, and
  /// throws CapacityError (or out_of_range / logic_error for a bad
  /// level or a net underflow) before touching any counter.
  void burst(std::size_t s, const Burst& b);

  /// Record @p n arithmetic operations (no memory traffic).
  void flops(std::uint64_t n) { flops_ += n; }

  // --- derived counters -------------------------------------------------

  /// Words written *to* level s by any neighbour (load into s from s+1,
  /// store into s from s-1, or in-place alloc at s).
  std::uint64_t writes_to(std::size_t s) const;

  /// Words read *from* level s by any neighbour.
  std::uint64_t reads_from(std::size_t s) const;

  /// Total load+store words crossing the (s, s+1) boundary.
  std::uint64_t traffic(std::size_t s) const;

  /// Messages crossing the (s, s+1) boundary.
  std::uint64_t messages(std::size_t s) const;

  /// Words loaded from level s+1 into level s.
  std::uint64_t loads_words(std::size_t s) const {
    return down_.at(s).words;
  }
  /// Words stored from level s into level s+1.
  std::uint64_t stores_words(std::size_t s) const { return up_.at(s).words; }
  std::uint64_t loads_messages(std::size_t s) const {
    return down_.at(s).messages;
  }
  std::uint64_t stores_messages(std::size_t s) const {
    return up_.at(s).messages;
  }

  std::uint64_t flops() const { return flops_; }
  const ResidencyCounters& residencies(std::size_t s) const {
    return res_.at(s);
  }

  /// Reset all counters (capacities and occupancies are kept).
  void reset_counters();

 private:
  void check_level_pair(std::size_t s, const char* what) const;
  // Throws CapacityError when @p words more would not fit at level s.
  void check_room(std::size_t s, std::size_t words, const char* what) const;

  std::vector<std::size_t> capacity_;
  std::vector<std::size_t> occupancy_;
  // down_[s]: words moving from level s+1 to s (loads of level s).
  // up_[s]:   words moving from level s to s+1 (stores of level s).
  std::vector<ChannelCounters> down_;
  std::vector<ChannelCounters> up_;
  std::vector<std::uint64_t> allocs_;  // words alloc'ed in place at s
  std::vector<ResidencyCounters> res_;
  std::uint64_t flops_ = 0;
};

/// RAII lease on a block of fast memory.  The default end-of-life is a
/// *discard* (D2); call store() to end with a writeback (D1) instead.
class BlockLease {
 public:
  /// Begin an R1 residency: load @p words into @p level.
  static BlockLease loaded(Hierarchy& h, std::size_t level,
                           std::size_t words) {
    h.load(level, words);
    return BlockLease(h, level, words);
  }
  /// Begin an R2 residency: allocate @p words at @p level in place.
  static BlockLease allocated(Hierarchy& h, std::size_t level,
                              std::size_t words) {
    h.alloc(level, words);
    return BlockLease(h, level, words);
  }

  BlockLease(const BlockLease&) = delete;
  BlockLease& operator=(const BlockLease&) = delete;
  BlockLease(BlockLease&& other) noexcept
      : h_(other.h_), level_(other.level_), words_(other.words_) {
    other.h_ = nullptr;
  }
  BlockLease& operator=(BlockLease&&) = delete;

  /// End the residency with a store to the next slower level (D1).
  void store() {
    if (h_ != nullptr) {
      h_->store(level_, words_);
      h_ = nullptr;
    }
  }

  ~BlockLease() {
    if (h_ != nullptr) h_->discard(level_, words_);
  }

 private:
  BlockLease(Hierarchy& h, std::size_t level, std::size_t words)
      : h_(&h), level_(level), words_(words) {}

  Hierarchy* h_;
  std::size_t level_;
  std::size_t words_;
};

}  // namespace wa::memsim
