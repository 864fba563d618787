#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <utility>

#include "dist/krylov.hpp"
#include "dist/lu.hpp"
#include "dist/mm25d.hpp"
#include "dist/partition.hpp"
#include "layers.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "sparse/csr.hpp"

namespace wa::perfbench {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Per-input seed derived from the benchmark seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t state = seed ^ (tag * 0xd1b54a32d192ed03ULL);
  return splitmix64(state);
}

std::uint64_t fnv1a(std::span<const double> v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (double x : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

double max_abs(const linalg::Matrix<double>& a) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a.data()[i]));
  }
  return m;
}

std::string fmt(const char* f, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

/// LL-LUNP (Section 7.2) on bench_lu's machine: the write-avoiding
/// schedule whose NVM writes are exactly n^2/P per rank.
class LuLeftLooking final : public Workload {
 public:
  explicit LuLeftLooking(bool tiny)
      : Workload({4, 48, 640, std::size_t(1) << 24, 0, false, false}),
        n_(tiny ? 48 : 384) {}

  void generate(std::uint64_t seed) override {
    a0_ = linalg::random_spd(n_, unsigned(derive_seed(seed, 1)));
    a_ = a0_;
  }
  void reference() override {
    ref_ = a0_;
    linalg::lu_nopivot_unblocked(ref_.view());
  }
  void prepare() override { a_ = a0_; }
  void op(dist::Machine& m) override {
    dist::lu_left_looking(m, a_.view(), kB, kS);
  }
  std::string check(const dist::Machine& m) const override {
    const double err = linalg::max_abs_diff(a_, ref_);
    const double tol = 1e-9 * std::max(1.0, max_abs(ref_));
    if (!(err <= tol)) return fmt("LU max|err| %.3g > %.3g", err, tol);
    const double want = double(n_) * double(n_) / double(spec().P);
    const double got = double(m.critical_path().l3_write.words);
    if (got != want) return fmt("NVM writes %.0f != n^2/P = %.0f", got, want);
    return {};
  }
  double nominal_flops() const override {
    return 2.0 * double(n_) * double(n_) * double(n_) / 3.0;
  }
  std::size_t iterations() const override { return (n_ + kB - 1) / kB; }

 private:
  std::uint64_t output_hash() const override {
    return fnv1a({a_.data(), a_.size()});
  }

  static constexpr std::size_t kB = 2, kS = 2;
  std::size_t n_;
  linalg::Matrix<double> a0_, a_, ref_;
};

/// 2.5DMML3ooL2 (Theorem 4's W2-attaining variant): c = 2 replicas
/// staged through NVM, data in L3, chunked replication.
class Mm25d final : public Workload {
 public:
  explicit Mm25d(bool tiny)
      : Workload({8, 192, 4096, std::size_t(1) << 24, kPoolThreads, true,
                  true}),
        n_(tiny ? 96 : 768) {}

  void generate(std::uint64_t seed) override {
    a_ = linalg::Matrix<double>(n_, n_);
    b_ = linalg::Matrix<double>(n_, n_);
    c_ = linalg::Matrix<double>(n_, n_);
    linalg::fill_random(a_, unsigned(derive_seed(seed, 2)));
    linalg::fill_random(b_, unsigned(derive_seed(seed, 3)));
  }
  void reference() override {
    ref_ = linalg::Matrix<double>(n_, n_);
    linalg::gemm_acc(ref_.view(), a_.view(), b_.view());
  }
  void prepare() override { std::fill_n(c_.data(), c_.size(), 0.0); }
  void op(dist::Machine& m) override {
    dist::mm_25d(m, c_.view(), a_.view(), b_.view(), kOpt);
  }
  std::string check(const dist::Machine&) const override {
    const double err = linalg::max_abs_diff(c_, ref_);
    const double tol = 1e-12 * double(n_) * max_abs(a_) * max_abs(b_);
    if (!(err <= tol)) return fmt("C max|err| %.3g > %.3g", err, tol);
    return {};
  }
  double nominal_flops() const override {
    return 2.0 * double(n_) * double(n_) * double(n_);
  }
  std::size_t iterations() const override {
    return dist::ProcessGrid3D(spec().P, kOpt.c).layer().k_panels(n_).size();
  }

 private:
  std::uint64_t output_hash() const override {
    return fnv1a({c_.data(), c_.size()});
  }

  static constexpr dist::Mm25dOptions kOpt{2, true, true, 1};
  std::size_t n_;
  linalg::Matrix<double> a_, b_, c_, ref_;
};

/// Streaming monomial CA-CG (Section 8) on a 3-D Poisson mesh over a
/// 2-D block partition built once in set-up.
class CaCg3d final : public Workload {
 public:
  explicit CaCg3d(bool tiny)
      : Workload({4, 192, 4096, std::size_t(1) << 26, 0, true, true}),
        edge_(tiny ? 8 : 16) {
    opt_.s = 4;
    opt_.mode = krylov::CaCgMode::kStreaming;
    opt_.basis = krylov::CaCgBasis::kMonomial;
    opt_.tol = 1e-8;
  }

  void generate(std::uint64_t seed) override {
    a_ = sparse::poisson_3d(edge_, edge_, edge_);
    part_ = dist::make_partition(spec().P, a_);
    std::uint64_t state = derive_seed(seed, 4);
    b_.resize(a_.n);
    for (double& v : b_) {
      v = double(splitmix64(state) >> 11) * 0x1.0p-52 - 1.0;
    }
    x_.assign(a_.n, 0.0);
  }
  void reference() override {}
  void prepare() override { std::fill(x_.begin(), x_.end(), 0.0); }
  void op(dist::Machine& m) override {
    result_ = dist::ca_cg(m, *part_, a_, b_, x_, opt_);
  }
  std::string check(const dist::Machine& m) const override {
    if (!result_.converged) return "CA-CG did not converge";
    std::vector<double> r(a_.n);
    sparse::spmv(a_, x_, r);
    for (std::size_t i = 0; i < a_.n; ++i) r[i] = b_[i] - r[i];
    const double res = sparse::norm2(r);
    const double bound = 10.0 * opt_.tol * sparse::norm2(b_);
    if (!(res <= bound)) {
      return fmt("true residual %.3g > 10 tol ||b|| = %.3g", res, bound);
    }
    const double per_step = double(m.critical_path().l3_write.words) /
                            double(result_.iterations);
    const double model = dist::cacg_model_writes_per_step(
        a_.n, spec().P, opt_.s, opt_.mode);
    if (!(std::abs(per_step / model - 1.0) <= 0.15)) {
      return fmt("NVM writes/step %.1f not within 15%% of model %.1f",
                 per_step, model);
    }
    return {};
  }
  double nominal_flops() const override {
    // Classical CG per step: one SpMV plus two dots and three axpys.
    return double(result_.iterations) *
           (2.0 * double(a_.nnz()) + 10.0 * double(a_.n));
  }
  std::size_t iterations() const override { return result_.iterations; }

 private:
  std::uint64_t output_hash() const override { return fnv1a(x_); }

  std::size_t edge_;
  krylov::CaCgOptions opt_;
  sparse::Csr a_;
  std::unique_ptr<dist::Partition> part_;
  std::vector<double> b_, x_;
  dist::KrylovResult result_;
};

}  // namespace

Signature Workload::signature(const dist::Machine& m) const {
  Signature s;
  for (std::size_t p = 0; p < m.nprocs(); ++p) {
    const dist::ProcTraffic& t = m.proc(p);
    for (const dist::ChanCount* c :
         {&t.nw, &t.l3_read, &t.l3_write, &t.l2_read, &t.l2_write}) {
      s.counters.push_back(c->words);
      s.counters.push_back(c->messages);
    }
  }
  s.output = output_hash();
  s.iterations = iterations();
  return s;
}

std::unique_ptr<dist::Machine> Workload::machine(std::size_t threads,
                                                 Tracer* tracer) const {
  std::unique_ptr<dist::Backend> backend;
  if (threads == 0) {
    backend = std::make_unique<dist::SerialSimBackend>();
  } else {
    backend = std::make_unique<dist::ThreadedBackend>(threads);
  }
  std::unique_ptr<dist::Transport> transport;
  if (spec_.shm) {
    // Every hop inline on the calling thread: the default threshold
    // spawns a sender and a receiver thread per hop of a large round,
    // up to P threads at once, more than the box has vCPUs.
    transport = std::make_unique<dist::ShmTransport>(
        std::numeric_limits<std::size_t>::max());
  } else {
    transport = std::make_unique<dist::SimTransport>();
  }
  if (tracer != nullptr) {
    backend = std::make_unique<TimedBackend>(std::move(backend), *tracer);
    transport =
        std::make_unique<TimedTransport>(std::move(transport), *tracer);
  }
  return std::make_unique<dist::Machine>(spec_.P, spec_.M1, spec_.M2,
                                         spec_.M3, dist::HwParams{},
                                         std::move(backend),
                                         std::move(transport));
}

std::unique_ptr<Workload> make_workload(const std::string& name, bool tiny) {
  if (name == "lu_ll") return std::make_unique<LuLeftLooking>(tiny);
  if (name == "mm25d") return std::make_unique<Mm25d>(tiny);
  if (name == "cacg_3d") return std::make_unique<CaCg3d>(tiny);
  return nullptr;
}

}  // namespace wa::perfbench
