// wa_perfbench -- the repo benchmark (README.md has the workloads, the
// metrics and the layer map).
//
//   wa_perfbench --workload lu_ll|mm25d|cacg_3d --seed N --seconds S
//                --trace 0|1 [--trace-out PATH] [--tiny]
//
// --trace 0 sets the workload up several times, then times ops for S
// seconds and prints the end-to-end metrics.  --trace 1 alternates
// ops on the plain machine, on a machine whose backend and transport
// sit in the timing decorators of layers.hpp and, for mm25d and
// cacg_3d, on the same machine with the other backend (serial vs
// pool); then it probes the kernels, memsim and the SpMV at the
// workloads' shapes, prints the per-layer metrics and writes the
// spans of the first traced op as Chrome trace-event JSON to PATH.
// Every op is verified, and its counters and output bits must equal
// the first op's; the last line of stdout is one JSON object, and the
// exit code is 0 only when every op was right.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "linalg/local_kernels.hpp"
#include "linalg/matrix.hpp"
#include "memsim/hierarchy.hpp"
#include "sparse/csr.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace wa;
using namespace wa::perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
  bool tiny = false;
};

bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return *end == '\0';
}

bool parse_args(int argc, char** argv, Args& a) {
  bool seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view k = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t u = 0;
    if (k == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (v == nullptr) return false;
    ++i;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      if (!parse_u64(v, a.seed)) return false;
      seed = true;
    } else if (k == "--seconds") {
      if (!parse_u64(v, u) || u == 0 || u > 600) return false;
      a.seconds = double(u);
    } else if (k == "--trace") {
      if (!parse_u64(v, u) || u > 1) return false;
      a.trace = int(u);
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && seed && a.seconds > 0 && a.trace >= 0;
}

/// Linear-interpolation quantile (numpy's default).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

/// Times ops on any machine of the workload and verifies each one:
/// output against the reference, the model pins, and counters plus
/// output bits against the first op verified.
class Runner {
 public:
  explicit Runner(Workload& w) : w_(w) {}

  double timed_op(dist::Machine& m) {
    w_.prepare();
    m.reset();
    const auto t0 = Clock::now();
    w_.op(m);
    return since(t0);
  }

  void verify(const dist::Machine& m, const char* where) {
    ++attempted_;
    std::string why = w_.check(m);
    const Signature sig = w_.signature(m);
    if (!first_) {
      first_ = std::make_unique<Signature>(sig);
    } else if (why.empty() && !(sig == *first_)) {
      why = "counters or output bits differ from the first op";
    }
    if (!why.empty()) {
      ++failed_;
      std::fprintf(stderr, "perfbench: %s op %zu failed: %s\n", where,
                   attempted_, why.c_str());
    }
  }

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

 private:
  Workload& w_;
  std::unique_ptr<Signature> first_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

// ---- per-layer analysis of one traced op ---------------------------------

// ShmTransport's default threaded-round hop size.
constexpr std::uint64_t kBulkWords = 1 << 15;
constexpr std::uint64_t kSmallWords = 1024;

struct LayerOp {
  double op_s = 0, self_s = 0;
  double backend_s = 0, busy_s = 0, overhead_s = 0;
  double transport_s = 0, bulk_bytes = 0, bulk_s = 0;
  std::uint64_t phases = 0, tasks = 0, calls = 0, words = 0;
  std::vector<double> small_s;
};

LayerOp analyze(const std::vector<Span>& spans) {
  LayerOp lo;
  lo.op_s = spans.at(0).seconds();
  lo.self_s = double(self_ns(spans)[0]) * 1e-9;
  // Busy seconds of each (phase, worker thread): a phase ends when its
  // busiest worker does.
  std::map<std::pair<std::int64_t, std::uint32_t>, double> worker;
  for (const Span& s : spans) {
    const std::string_view layer = s.layer, name = s.name;
    if (layer == "backend" && name == "run" && s.parent == 0) {
      ++lo.phases;
      lo.backend_s += s.seconds();
    } else if (layer == "backend" && name == "rank") {
      ++lo.tasks;
      lo.busy_s += s.seconds();
      worker[{s.parent, s.tid}] += s.seconds();
    } else if (layer == "transport" && s.parent == 0) {
      ++lo.calls;
      lo.words += s.count;
      lo.transport_s += s.seconds();
      if (s.count >= kBulkWords) {
        lo.bulk_bytes += 8.0 * double(s.count);
        lo.bulk_s += s.seconds();
      }
      if (s.count < kSmallWords) lo.small_s.push_back(s.seconds());
    }
  }
  std::map<std::int64_t, double> longest;
  for (const auto& [key, secs] : worker) {
    if (spans.at(std::size_t(key.first)).parent != 0) continue;
    longest[key.first] = std::max(longest[key.first], secs);
  }
  lo.overhead_s = lo.backend_s;
  for (const auto& [phase, secs] : longest) lo.overhead_s -= secs;
  return lo;
}

std::uint64_t charged_messages(const dist::Machine& m) {
  std::uint64_t n = 0;
  for (std::size_t p = 0; p < m.nprocs(); ++p) {
    const dist::ProcTraffic& t = m.proc(p);
    n += t.l2_read.messages + t.l2_write.messages + t.l3_read.messages +
         t.l3_write.messages;
  }
  return n;
}

// ---- same-run layer probes ------------------------------------------------

volatile double g_sink = 0.0;  // keeps probe results observable

/// Median seconds of @p f over repetitions filling @p budget seconds
/// (at least three).
double probe(double budget, const std::function<void()>& f) {
  std::vector<double> t;
  const auto start = Clock::now();
  while (t.size() < 3 || since(start) < budget) {
    const auto t0 = Clock::now();
    f();
    t.push_back(since(t0));
  }
  return median(t);
}

struct Probes {
  double gemm_gflops = 0, gemm_b2_gflops = 0, gram_gflops = 0;
  double ns_per_charge = 0, spmv_gflops = 0, spmv_s = 0;
};

/// Public layer entry points at the workloads' shapes: blocked gemm at
/// 512^3, LL's 2x2x2 tile, the CA-CG Gram panel (2s+1 = 9 columns of
/// n/P rows), a Hierarchy load+discard at LL's capacities and one SpMV
/// of the CA-CG matrix.
Probes run_probes(double budget, bool tiny) {
  const linalg::LocalKernels& k = linalg::active_kernels();
  const double each = budget / 5.0;
  Probes r;
  {
    const std::size_t n = tiny ? 128 : 512;
    linalg::Matrix<double> a(n, n), b(n, n), c(n, n);
    linalg::fill_random(a, 11);
    linalg::fill_random(b, 12);
    const double t = probe(each, [&] {
      k.gemm_acc(c.view(), a.view(), b.view(), 1.0);
    });
    r.gemm_gflops = 2.0 * double(n) * double(n) * double(n) / t * 1e-9;
    g_sink = g_sink + c(0, 0);
  }
  {
    constexpr int kCalls = 10000;
    linalg::Matrix<double> a(2, 2), b(2, 2), c(2, 2);
    linalg::fill_random(a, 13);
    linalg::fill_random(b, 14);
    const double t = probe(each, [&] {
      for (int i = 0; i < kCalls; ++i) {
        k.gemm_acc(c.view(), a.view(), b.view(), 1e-3);
      }
    });
    r.gemm_b2_gflops = 16.0 * kCalls / t * 1e-9;
    g_sink = g_sink + c(0, 0);
  }
  {
    constexpr std::size_t kCols = 9;  // 2s + 1 at s = 4
    constexpr int kCalls = 50;
    const std::size_t rows = tiny ? 128 : 1024;  // n / P of cacg_3d
    linalg::Matrix<double> v(kCols, rows);
    linalg::fill_random(v, 15);
    std::vector<const double*> cols(kCols);
    for (std::size_t j = 0; j < kCols; ++j) cols[j] = v.data() + j * rows;
    std::vector<double> g(kCols * kCols, 0.0);
    const double t = probe(each, [&] {
      for (int i = 0; i < kCalls; ++i) {
        k.gram_upper_acc(g.data(), kCols, cols.data(), 0, rows);
      }
    });
    r.gram_gflops =
        double(kCols * (kCols + 1)) * double(rows) * kCalls / t * 1e-9;
    g_sink = g_sink + g[0];
  }
  {
    constexpr int kCharges = 100000;
    memsim::Hierarchy h({48, 640, std::size_t(1) << 24});
    const double t = probe(each, [&] {
      for (int i = 0; i < kCharges; ++i) {
        h.load(0, 4);
        h.discard(0, 4);
      }
    });
    r.ns_per_charge = t / kCharges * 1e9;
    g_sink = g_sink + double(h.loads_words(0));
  }
  {
    constexpr int kCalls = 10;
    const std::size_t e = tiny ? 8 : 16;
    const sparse::Csr a = sparse::poisson_3d(e, e, e);
    std::vector<double> x(a.n, 1.0), y(a.n);
    const double t = probe(each, [&] {
      for (int i = 0; i < kCalls; ++i) sparse::spmv(a, x, y);
    });
    r.spmv_s = t / kCalls;
    r.spmv_gflops = 2.0 * double(a.nnz()) / r.spmv_s * 1e-9;
    g_sink = g_sink + y[0];
  }
  return r;
}

// ---- the two runs ---------------------------------------------------------

struct Result {
  std::size_t attempted = 0, failed = 0;
  bool cross_checks_hold = true;  ///< traced run: layer clocks and counts
  std::vector<Metric> metrics;
};

Result run_plain(const Args& a) {
  const std::size_t setups = a.tiny ? 2 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  std::unique_ptr<dist::Machine> m;
  for (std::size_t i = 0; i < setups; ++i) {
    m.reset();
    w.reset();
    const auto t0 = Clock::now();
    w = make_workload(a.workload, a.tiny);
    w->generate(a.seed);
    m = w->machine(w->spec().threads, nullptr);
    w->prepare();
    w->op(*m);  // warm-up: pool start, arena first touch
    setup_s.push_back(since(t0));
  }
  w->reference();
  Runner run(*w);
  run.verify(*m, "warm-up");

  std::vector<double> op_s;
  const auto start = Clock::now();
  while (op_s.empty() || since(start) < a.seconds) {
    op_s.push_back(run.timed_op(*m));
    run.verify(*m, "timed");
  }

  const dist::ProcTraffic& cp = m->critical_path();
  const double p50 = median(op_s);
  double total = 0.0;
  for (double t : op_s) total += t;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::fprintf(stderr, "perfbench: %s: %zu timed ops, p50 %.4f s\n",
               a.workload.c_str(), op_s.size(), p50);

  Result r;
  r.attempted = run.attempted();
  r.failed = run.failed();
  r.metrics = {
      {"op_s.p50", p50, "s"},
      {"op_s.p90", quantile(op_s, 0.9), "s"},
      {"gflops", w->nominal_flops() / p50 * 1e-9, "GF/s"},
      {"solves_per_s", double(op_s.size()) / total, "1/s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", double(ru.ru_maxrss) / 1024.0, "MB"},
      {"success_rate",
       double(r.attempted - r.failed) / double(r.attempted), "ratio"},
      {"nvm_write_words", double(cp.l3_write.words), "words"},
      {"net_words", double(cp.nw.words), "words"},
      {"net_messages", double(cp.nw.messages), "count"},
      {"iterations", double(w->iterations()), "count"},
  };
  return r;
}

Result run_traced(const Args& a) {
  const std::unique_ptr<Workload> w = make_workload(a.workload, a.tiny);
  w->generate(a.seed);
  w->reference();
  Tracer tracer;
  const std::size_t own = w->spec().threads;
  const auto plain = w->machine(own, nullptr);
  const auto traced = w->machine(own, &tracer);
  // The backend comparison: a pooled workload also runs on
  // SerialSimBackend, a serial one on a pool.
  const auto other = w->spec().compare
                         ? w->machine(own > 0 ? 0 : kPoolThreads, nullptr)
                         : nullptr;
  const std::size_t threads = std::max<std::size_t>(1, own);
  Runner run(*w);

  // Warm-ups, then ops on the machines in turn so host drift hits all
  // of them alike.
  run.timed_op(*plain);
  run.verify(*plain, "warm-up");
  tracer.begin_op(0);
  run.timed_op(*traced);
  tracer.end_op(0);
  run.verify(*traced, "traced warm-up");
  if (other) {
    run.timed_op(*other);
    run.verify(*other, "other-backend warm-up");
  }

  const dist::TransportStats stats0 = traced->transport().stats();
  std::vector<double> plain_s, other_s, traced_s, self_s, backend_s, busy_s,
      overhead_s, efficiency, transport_s, small_s;
  double bulk_bytes = 0, bulk_s = 0;
  // Machine clock minus decorator clock, and its allowance: the
  // Machine times a phase or transfer from just outside the backend or
  // transport call, so its clock exceeds the decorators' by the call
  // set-up only -- never less, and at most a microsecond per call
  // plus a small share of the op.  A phase or call the decorators
  // missed would break the bound.
  double local_gap = 0, comm_gap = 0, local_allow = 0, comm_allow = 0;
  LayerOp first{};
  bool counts_stable = true, clocks_nested = true;
  std::uint64_t op_id = 0;
  std::uint64_t messages = 0;
  const auto start = Clock::now();
  while (plain_s.empty() || since(start) < 0.7 * a.seconds) {
    plain_s.push_back(run.timed_op(*plain));
    run.verify(*plain, "plain");

    const double local0 = traced->local_wall_seconds();
    const double comm0 = traced->comm_wall_seconds();
    tracer.begin_op(++op_id);
    traced_s.push_back(run.timed_op(*traced));
    tracer.end_op(1);
    run.verify(*traced, "traced");
    const LayerOp lo = analyze(tracer.spans());
    // The decorators and the Machine's own clocks must agree on where
    // the time went.
    const double lg = traced->local_wall_seconds() - local0 - lo.backend_s;
    const double cg = traced->comm_wall_seconds() - comm0 - lo.transport_s;
    clocks_nested = clocks_nested && lg >= -1e-9 && cg >= -1e-9;
    local_gap += lg;
    comm_gap += cg;
    local_allow += 0.05 * lo.op_s + 1e-6 * double(lo.phases);
    comm_allow += 0.05 * lo.op_s + 1e-6 * double(lo.calls);
    if (op_id == 1) {
      first = lo;
      messages = charged_messages(*traced);
    }
    counts_stable = counts_stable && lo.phases == first.phases &&
                    lo.tasks == first.tasks && lo.calls == first.calls &&
                    lo.words == first.words;
    self_s.push_back(lo.self_s);
    backend_s.push_back(lo.backend_s);
    busy_s.push_back(lo.busy_s);
    overhead_s.push_back(lo.overhead_s);
    efficiency.push_back(lo.backend_s > 0
                             ? lo.busy_s / (double(threads) * lo.backend_s)
                             : 0.0);
    transport_s.push_back(lo.transport_s);
    small_s.insert(small_s.end(), lo.small_s.begin(), lo.small_s.end());
    bulk_bytes += lo.bulk_bytes;
    bulk_s += lo.bulk_s;

    if (other) {
      other_s.push_back(run.timed_op(*other));
      run.verify(*other, "other backend");
    }
  }
  const dist::TransportStats stats1 = traced->transport().stats();

  Result r;
  r.attempted = run.attempted();
  r.failed = run.failed();
  std::fprintf(stderr,
               "perfbench: %s traced: %zu rounds, Machine-minus-decorator "
               "clock gaps local %.3g s (allowed %.3g) comm %.3g s "
               "(allowed %.3g)\n",
               a.workload.c_str(), plain_s.size(), local_gap, local_allow,
               comm_gap, comm_allow);
  if (!clocks_nested || local_gap > local_allow || comm_gap > comm_allow ||
      !counts_stable) {
    std::fprintf(stderr, "perfbench: layer cross-check failed (counts %s)\n",
                 counts_stable ? "stable" : "moved");
    r.cross_checks_hold = false;
  }

  const Probes pr = run_probes(0.3 * a.seconds, a.tiny);
  const double p50 = median(plain_s);
  const std::uint64_t moved = stats1.words - stats0.words;
  const bool krylov = a.workload == "cacg_3d";
  // SerialSimBackend p50 over pooled p50, whichever one is own.
  double speedup = 1.0;
  if (other) {
    speedup = own > 0 ? median(other_s) / p50 : p50 / median(other_s);
  }
  r.metrics = {
      {"linalg.gemm_gflops", pr.gemm_gflops, "GF/s"},
      {"linalg.gemm_b2_gflops", pr.gemm_b2_gflops, "GF/s"},
      {"linalg.gram_gflops", pr.gram_gflops, "GF/s"},
      {"memsim.charged_messages", double(messages), "count"},
      {"memsim.ns_per_charge", pr.ns_per_charge, "ns"},
      {"backend.phases", double(first.phases), "count"},
      {"backend.tasks", double(first.tasks), "count"},
      {"backend.s", median(backend_s), "s"},
      {"backend.busy_s", median(busy_s), "s"},
      {"backend.overhead_s", median(overhead_s), "s"},
      {"backend.efficiency", median(efficiency), "ratio"},
      {"backend.speedup", speedup, "x"},
      {"transport.calls", double(first.calls), "count"},
      {"transport.words", double(first.words), "words"},
      {"transport.s", median(transport_s), "s"},
      {"transport.bulk_gbps", bulk_s > 0 ? bulk_bytes / bulk_s * 1e-9 : 0.0,
       "GB/s"},
      {"transport.small_us", median(small_s) * 1e6, "us"},
      {"transport.verified_ratio",
       moved > 0 ? double(stats1.verified - stats0.verified) / double(moved)
                 : 1.0,
       "ratio"},
      {"dist.self_s", median(self_s), "s"},
      {"sparse.spmv_gflops", pr.spmv_gflops, "GF/s"},
      {"krylov.step_over_spmv",
       krylov ? p50 / double(w->iterations()) / pr.spmv_s : 0.0, "ratio"},
      {"trace.overhead", median(traced_s) / p50 - 1.0, "ratio"},
  };
  if (!a.trace_out.empty()) tracer.write_chrome_json(a.trace_out);
  return r;
}

/// Print the result line; true when every op was right, the cross-checks
/// held and every metric is a finite number.
bool print_result(const Result& r) {
  bool finite = true;
  std::string m;
  for (const Metric& x : r.metrics) {
    finite = finite && std::isfinite(x.value);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  m.empty() ? "" : ", ", x.name,
                  std::isfinite(x.value) ? x.value : 0.0, x.unit);
    m += buf;
  }
  const bool correct = finite && r.failed == 0 && r.cross_checks_hold;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", r.attempted, r.failed, m.c_str());
  std::fflush(stdout);
  return correct;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a) || !make_workload(a.workload, true)) {
    std::fprintf(stderr,
                 "usage: wa_perfbench --workload lu_ll|mm25d|cacg_3d "
                 "--seed N --seconds S --trace 0|1 [--trace-out PATH] "
                 "[--tiny]\n");
    return 2;
  }
  try {
    const Result r = a.trace == 1 ? run_traced(a) : run_plain(a);
    std::fprintf(stderr, "perfbench: probe sink %g\n", double(g_sink));
    return print_result(r) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
