#pragma once
// The benchmark's three workloads, each a public wa::dist entry point
// on inputs generated from the benchmark seed.  A workload owns its
// inputs, its working buffers and a reference result; the Machine it
// runs on is built separately, so one workload can be timed on the
// plain, the traced and the backend-comparison machine in turn.
//
//   lu_ll    dist::lu_left_looking, serial backend + sim transport
//   mm25d    dist::mm_25d 2.5DMML3ooL2, 2-thread pool + shm transport
//   cacg_3d  dist::ca_cg streaming s-step CG on poisson_3d, serial
//            backend + shm transport
//
// README.md gives the reason for each choice.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dist/machine.hpp"
#include "trace.hpp"

namespace wa::perfbench {

/// Pool size of every ThreadedBackend the benchmark builds: half the
/// 4-vCPU development box, so a phase does not wait on a busy vCPU.
inline constexpr std::size_t kPoolThreads = 2;

/// Where a machine's backend and transport come from.
struct MachineSpec {
  std::size_t P = 1;
  std::size_t M1 = 0, M2 = 0, M3 = 0;
  std::size_t threads = 0;  ///< pool threads; 0 = SerialSimBackend
  bool shm = false;         ///< ShmTransport (else SimTransport)
  /// The traced run also times the other backend: SerialSimBackend
  /// for a pooled workload, a kPoolThreads pool for a serial one.
  bool compare = false;
};

/// Everything an op must reproduce bit for bit: every rank's channel
/// counters and the output's bit pattern.
struct Signature {
  std::vector<std::uint64_t> counters;
  std::uint64_t output = 0;
  std::size_t iterations = 0;
  bool operator==(const Signature&) const = default;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the inputs from @p seed (part of the set-up time).
  virtual void generate(std::uint64_t seed) = 0;
  /// The reference result the ops are checked against; computed once,
  /// outside every timer.
  virtual void reference() = 0;
  /// Restore the op's working buffers (untimed).
  virtual void prepare() = 0;
  /// One timed op on @p m.
  virtual void op(dist::Machine& m) = 0;
  /// Empty when the last op's output and counters are right, else why
  /// not (untimed).
  virtual std::string check(const dist::Machine& m) const = 0;

  /// Nominal floating-point operations of one op.
  virtual double nominal_flops() const = 0;
  /// Outer steps of one op: CG steps, LU panel steps, SUMMA k-panels.
  virtual std::size_t iterations() const = 0;

  const MachineSpec& spec() const { return spec_; }
  Signature signature(const dist::Machine& m) const;

  /// A machine with this workload's geometry and transport on a pool
  /// of @p threads (0 = SerialSimBackend); a non-null @p tracer wraps
  /// backend and transport in the timing decorators of layers.hpp.
  std::unique_ptr<dist::Machine> machine(std::size_t threads,
                                         Tracer* tracer) const;

 protected:
  explicit Workload(MachineSpec spec) : spec_(spec) {}
  virtual std::uint64_t output_hash() const = 0;

 private:
  MachineSpec spec_;
};

/// Workload by name ("lu_ll", "mm25d", "cacg_3d"); @p tiny selects the
/// self-test shapes.  Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, bool tiny);

}  // namespace wa::perfbench
