#pragma once
// wa::dist -- the distributed machine model of Section 7 of the paper:
// P processors, each with a private three-level hierarchy L1 (M1
// words) / L2 (M2 words) / L3 (M3 words, e.g. NVM), connected by a
// network.  Algorithms execute their numerics on ordinary matrices
// while *charging* every word they move to per-processor counters:
//
//   nw        words/messages crossing the network (both endpoints)
//   l3_read   words moving L3 -> L2      (NVM reads)
//   l3_write  words moving L2 -> L3      (NVM writes -- the paper's
//                                         expensive channel)
//   l2_read   words moving L2 -> L1
//   l2_write  words moving L1 -> L2
//
// Collectives use a binomial-tree cost model: a broadcast among g
// processors charges ceil(log2 g) rounds to every participant; a
// reduction additionally charges each round's combine as L1 -> L2
// traffic (the received partial is merged and written back), so
// reduce and bcast are distinguishable in the counters.  The
// machine's cost is the maximum over processors of the alpha-beta
// time of its counters (the critical path), mirroring the per-channel
// max-cost accounting the paper uses for Tables 1 and 2.
//
// *How* local phases execute is delegated to the execution layer
// (dist/backend.hpp): the default SerialSimBackend reproduces the
// original serial simulation; a ThreadedBackend runs per-rank phases
// on a thread pool.  Wall-clock spent inside local phases is
// accumulated so modelled alpha-beta cost and measured time can be
// printed side by side.
//
// *Whether* a charged transfer also physically moves bytes is
// delegated to the data-movement layer (dist/transport.hpp): the
// default SimTransport keeps the original charge-only behavior, while
// ShmTransport (WA_TRANSPORT=shm) really moves every payload between
// per-rank heap arenas through checksummed message queues.  Charging
// always happens first and never depends on the transport, so the
// counters are byte-identical across transports by construction.
//
// This header is the *only* place allowed to mutate the ChanCount
// channels directly (tools/wa_lint.py enforces this as its wa-counter
// rule): algorithms charge exclusively through the Machine helpers
// below, which is what keeps every counter deterministic and
// byte-identical across backends and transports.  All charging and
// transport movement is issued from the orchestration thread; local
// phases charge fresh per-rank Hierarchies that the backend merges
// deterministically (see dist/backend.hpp), so none of these counters
// need locks.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dist/backend.hpp"
#include "dist/transport.hpp"
#include "memsim/hierarchy.hpp"

namespace wa::dist {

/// Word/message counters for one channel of one processor.
struct ChanCount {
  std::uint64_t words = 0;
  std::uint64_t messages = 0;

  void add(std::uint64_t w, std::uint64_t m = 1) {
    words += w;
    messages += m;
  }
};

/// All counted channels of one processor.
struct ProcTraffic {
  ChanCount nw;        ///< network words (sent + received)
  ChanCount l3_read;   ///< L3 -> L2
  ChanCount l3_write;  ///< L2 -> L3
  ChanCount l2_read;   ///< L2 -> L1
  ChanCount l2_write;  ///< L1 -> L2
};

/// Per-channel latency (alpha, s/message) and inverse bandwidth
/// (beta, s/word).  The named constructors bracket the NVM-speed
/// regimes the paper's Section 7 planner distinguishes.
struct HwParams {
  double alpha_nw = 1e-6;  ///< network latency
  double beta_nw = 2e-9;   ///< network inverse bandwidth
  double beta_32 = 4e-9;   ///< L3 -> L2 read bandwidth (NVM read)
  double beta_23 = 8e-9;   ///< L2 -> L3 write bandwidth (NVM write)
  double beta_21 = 1e-10;  ///< L2 -> L1
  double beta_12 = 1e-10;  ///< L1 -> L2

  /// NVM as fast as the network: replication through L3 pays off.
  static HwParams fast_nvm() {
    HwParams hw;
    hw.beta_32 = 0.25 * hw.beta_nw;
    hw.beta_23 = 0.25 * hw.beta_nw;
    return hw;
  }
  /// NVM writes far slower than the network: write-avoiding wins.
  static HwParams slow_nvm() {
    HwParams hw;
    hw.beta_32 = 10.0 * hw.beta_nw;
    hw.beta_23 = 30.0 * hw.beta_nw;
    return hw;
  }
};

/// The virtual distributed machine (see file comment).
class Machine {
 public:
  Machine(std::size_t P, std::size_t M1, std::size_t M2, std::size_t M3,
          HwParams hw = HwParams{},
          std::unique_ptr<Backend> backend = nullptr,
          std::unique_ptr<Transport> transport = nullptr)
      : P_(P), M1_(M1), M2_(M2), M3_(M3), capacities_{M1, M2, M3}, hw_(hw),
        procs_(P),
        backend_(backend != nullptr
                     ? std::move(backend)
                     : std::make_unique<SerialSimBackend>()),
        transport_(transport != nullptr ? std::move(transport)
                                        : transport_from_env()) {
    if (P == 0) throw std::invalid_argument("Machine: P must be positive");
    if (M1 == 0 || M1 >= M2 || M2 >= M3) {
      throw std::invalid_argument(
          "Machine: need 0 < M1 < M2 < M3 (strictly increasing levels)");
    }
    transport_->attach(P_);
  }

  std::size_t nprocs() const { return P_; }
  std::size_t M1() const { return M1_; }
  std::size_t M2() const { return M2_; }
  std::size_t M3() const { return M3_; }
  const HwParams& hw() const { return hw_; }

  Backend& backend() { return *backend_; }
  const Backend& backend() const { return *backend_; }
  void set_backend(std::unique_ptr<Backend> backend) {
    if (backend == nullptr) {
      throw std::invalid_argument("Machine: backend must not be null");
    }
    backend_ = std::move(backend);
  }

  Transport& transport() { return *transport_; }
  const Transport& transport() const { return *transport_; }
  void set_transport(std::unique_ptr<Transport> transport) {
    if (transport == nullptr) {
      throw std::invalid_argument("Machine: transport must not be null");
    }
    transport_ = std::move(transport);
    transport_->attach(P_);
  }

  const ProcTraffic& proc(std::size_t p) const { return procs_.at(p); }

  /// Point-to-point transfer: @p words are charged to both endpoints
  /// (the network channel counts words crossing a processor boundary).
  /// Under a data-moving transport the payload (or, when @p payload is
  /// null, a same-size synthetic pattern) really travels src -> dst.
  void send(std::size_t src, std::size_t dst, std::size_t words,
            const double* payload = nullptr) {
    check_proc(src);
    check_proc(dst);
    if (src == dst) return;  // local move, no network traffic
    procs_[src].nw.add(words);
    procs_[dst].nw.add(words);
    if (transport_->moves_data()) {
      const Timer t(comm_wall_seconds_, comm_timer_depth_);
      transport_->send(src, dst, words, payload);
    }
  }

  /// Rounds of a binomial-tree collective among @p g participants.
  static std::uint64_t bcast_rounds(std::size_t g) {
    std::uint64_t r = 0;
    std::size_t v = 1;
    while (v < g) {
      v *= 2;
      ++r;
    }
    return r;
  }

  /// Binomial-tree broadcast of @p words among @p group: every
  /// participant is charged ceil(log2 |group|) rounds of @p words.
  /// Under a data-moving transport the root's payload is fanned out
  /// hop by hop along the same binomial tree.
  void bcast(const std::vector<std::size_t>& group, std::size_t words,
             const double* payload = nullptr) {
    const std::uint64_t rounds = bcast_rounds(group.size());
    if (rounds == 0) return;
    for (std::size_t p : group) check_proc(p);  // all-or-nothing charging
    for (std::size_t p : group) procs_[p].nw.add(rounds * words, rounds);
    if (transport_->moves_data()) {
      const Timer t(comm_wall_seconds_, comm_timer_depth_);
      transport_->bcast(group, words, payload);
    }
  }

  /// Binomial-tree reduction: the network cost of a broadcast, plus
  /// each round's combine -- merging the received partial into the
  /// local one writes @p words from L1 back to L2 per round.  Under a
  /// data-moving transport partials are really combined elementwise
  /// at every hop of the gather tree.
  void reduce(const std::vector<std::size_t>& group, std::size_t words,
              const double* payload = nullptr) {
    const std::uint64_t rounds = bcast_rounds(group.size());
    if (rounds == 0) return;
    for (std::size_t p : group) check_proc(p);  // all-or-nothing charging
    for (std::size_t p : group) {
      procs_[p].nw.add(rounds * words, rounds);
      procs_[p].l2_write.add(rounds * words, rounds);
    }
    if (transport_->moves_data()) {
      const Timer t(comm_wall_seconds_, comm_timer_depth_);
      transport_->reduce(group, words, payload);
    }
  }

  /// Run a local phase on processor @p p: @p fn receives a fresh
  /// three-level memsim::Hierarchy {M1, M2, M3} (capacities enforced);
  /// the traffic it generates is absorbed into the processor's
  /// channel counters.
  template <class Fn>
  void run_local(std::size_t p, Fn&& fn) {
    check_proc(p);
    const Timer t(wall_seconds_, local_timer_depth_);
    backend_->run({p}, capacities(),
                  [&fn](std::size_t, memsim::Hierarchy& h) { fn(h); },
                  absorb_sink());
  }

  /// Run one identical charging-only phase on *every* processor; the
  /// backend may simulate the hierarchy once and replicate it, so a
  /// P-way symmetric phase costs O(1) simulations instead of O(P).
  template <class Fn>
  void run_local_all(Fn&& fn) {
    const Timer t(wall_seconds_, local_timer_depth_);
    backend_->run_replicated(all_ranks(), capacities(),
                             [&fn](memsim::Hierarchy& h) { fn(h); },
                             absorb_sink());
  }

  /// Run a per-rank local phase -- numerics plus charging -- on every
  /// processor: @p fn receives (rank, Hierarchy&).  The backend
  /// decides the execution strategy (serial simulation or a thread
  /// pool); counters are identical either way.
  template <class Fn>
  void run_local_each(Fn&& fn) {
    run_local_on(all_ranks(), std::forward<Fn>(fn));
  }

  /// Same as run_local_each, restricted to @p ranks (e.g. one grid
  /// layer), so a sparse phase does not pay per-rank setup for idle
  /// processors.
  template <class Fn>
  void run_local_on(const std::vector<std::size_t>& ranks, Fn&& fn) {
    for (std::size_t p : ranks) check_proc(p);
    const Timer t(wall_seconds_, local_timer_depth_);
    // The backend runs fn before returning, so a reference suffices
    // (and spares a heap copy of the closure on every phase).
    backend_->run(ranks, capacities(), Backend::LocalFn(std::ref(fn)),
                  absorb_sink());
  }

  /// Wall-clock seconds spent inside local phases so far (numerics +
  /// counter simulation), for comparison against the modelled cost().
  /// Nested phases (a run_local_each issued from inside another local
  /// phase) are counted once: only the outermost timer accumulates.
  double local_wall_seconds() const { return wall_seconds_; }

  /// Wall-clock seconds spent inside the transport moving bytes for
  /// charged collectives; always 0 under the charge-only SimTransport.
  double comm_wall_seconds() const { return comm_wall_seconds_; }

  /// Alpha-beta time of one processor's counters.
  double proc_cost(std::size_t p) const {
    check_proc(p);
    const ProcTraffic& t = procs_[p];
    return hw_.alpha_nw * double(t.nw.messages) +
           hw_.beta_nw * double(t.nw.words) +
           hw_.beta_32 * double(t.l3_read.words) +
           hw_.beta_23 * double(t.l3_write.words) +
           hw_.beta_21 * double(t.l2_read.words) +
           hw_.beta_12 * double(t.l2_write.words);
  }

  /// Max over processors of proc_cost (the modelled runtime).
  double cost() const {
    double c = 0.0;
    for (std::size_t p = 0; p < P_; ++p) c = std::max(c, proc_cost(p));
    return c;
  }

  /// Counters of the processor realizing cost() -- the critical path.
  const ProcTraffic& critical_path() const {
    std::size_t arg = 0;
    double best = -1.0;
    for (std::size_t p = 0; p < P_; ++p) {
      const double c = proc_cost(p);
      if (c > best) {
        best = c;
        arg = p;
      }
    }
    return procs_[arg];
  }

  /// Zero all counters (geometry and HwParams are kept).
  void reset() {
    for (auto& t : procs_) t = ProcTraffic{};
  }

 private:
  /// Accumulates elapsed wall-clock into @p out on destruction --
  /// but only for the *outermost* timer of its depth counter, so a
  /// nested phase (run_local_each issued from inside another local
  /// phase) is not double-counted.
  class Timer {
   public:
    Timer(double& out, std::atomic<int>& depth)
        : out_(out), depth_(depth), outermost_(depth.fetch_add(1) == 0),
          start_(std::chrono::steady_clock::now()) {}
    ~Timer() {
      if (outermost_) {
        out_ += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
      }
      depth_.fetch_sub(1);
    }

   private:
    double& out_;
    std::atomic<int>& depth_;
    bool outermost_;
    std::chrono::steady_clock::time_point start_;
  };

  static void absorb(ProcTraffic& t, const memsim::Hierarchy& h) {
    t.l2_read.add(h.loads_words(0), h.loads_messages(0));
    t.l2_write.add(h.stores_words(0), h.stores_messages(0));
    t.l3_read.add(h.loads_words(1), h.loads_messages(1));
    t.l3_write.add(h.stores_words(1), h.stores_messages(1));
  }

  Backend::Sink absorb_sink() {
    return [this](std::size_t p, const memsim::Hierarchy& h) {
      absorb(procs_[p], h);
    };
  }

  const std::vector<std::size_t>& capacities() const { return capacities_; }

  std::vector<std::size_t> all_ranks() const {
    std::vector<std::size_t> r(P_);
    std::iota(r.begin(), r.end(), std::size_t{0});
    return r;
  }

  void check_proc(std::size_t p) const {
    if (p >= P_) throw std::out_of_range("Machine: processor out of range");
  }

  std::size_t P_, M1_, M2_, M3_;
  std::vector<std::size_t> capacities_;  // {M1, M2, M3}: every phase's shape
  HwParams hw_;
  std::vector<ProcTraffic> procs_;
  std::unique_ptr<Backend> backend_;
  std::unique_ptr<Transport> transport_;
  double wall_seconds_ = 0.0;
  double comm_wall_seconds_ = 0.0;
  std::atomic<int> local_timer_depth_{0};
  std::atomic<int> comm_timer_depth_{0};
};

}  // namespace wa::dist
