#pragma once
// Shared helpers for the experiment harnesses: fixed-width table
// printing (the benches regenerate the paper's tables/figures as
// ASCII tables), centralized environment parsing, and the --json
// machine-readable report CI diffs against checked-in baselines.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dist/backend.hpp"
#include "dist/machine.hpp"

namespace wa::bench {

/// Monotonic wall clock in seconds.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-@p reps wall time of @p fn (seconds).
template <typename Fn>
double best_of(std::size_t reps, Fn&& fn) {
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    const double t0 = now_s();
    fn();
    best = std::min(best, now_s() - t0);
  }
  return best;
}

/// True when every channel counter (words and messages) of every
/// processor agrees -- the backends' byte-identical-counters claim
/// the dist benches print next to their wall-clock comparison.
inline bool same_counters(const dist::Machine& x, const dist::Machine& y) {
  const auto eq = [](const dist::ChanCount& a, const dist::ChanCount& b) {
    return a.words == b.words && a.messages == b.messages;
  };
  for (std::size_t p = 0; p < x.nprocs(); ++p) {
    const dist::ProcTraffic& a = x.proc(p);
    const dist::ProcTraffic& b = y.proc(p);
    if (!eq(a.nw, b.nw) || !eq(a.l3_read, b.l3_read) ||
        !eq(a.l3_write, b.l3_write) || !eq(a.l2_read, b.l2_read) ||
        !eq(a.l2_write, b.l2_write)) {
      return false;
    }
  }
  return true;
}

/// Abort the bench with a clear message (exit code 2, the harness's
/// usage-error convention) -- every malformed WA_* value lands here
/// instead of silently benchmarking the wrong configuration.
[[noreturn]] inline void die(const std::string& what) {
  std::fprintf(stderr, "%s\n", what.c_str());
  std::exit(2);
}

/// WA_SCALE=2 doubles problem/cache sizes toward the paper's scale.
/// Garbage or non-positive values are rejected loudly (they used to
/// fall back to 1.0 silently via atof).
inline double env_scale() {
  const char* s = std::getenv("WA_SCALE");
  if (s == nullptr || *s == '\0') return 1.0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (*end != '\0' || !(v > 0)) {
    die("env_scale: WA_SCALE must be a positive number, got '" +
        std::string(s) + "'");
  }
  return v;
}

/// WA_PROCS overrides a distributed bench's processor count (any
/// P >= 1: non-square and prime counts run on rectangular grids).
inline std::size_t env_procs(std::size_t fallback) {
  const char* s = std::getenv("WA_PROCS");
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (*end != '\0' || v <= 0) {
    die("env_procs: WA_PROCS must be a positive integer, got '" +
        std::string(s) + "'");
  }
  return std::size_t(v);
}

/// WA_THREADS for the threaded backend (0 = pick a default).  The
/// parse lives in dist::threads_from_env; here its exception becomes
/// the benches' uniform usage error instead of a raw terminate.
inline std::size_t env_threads() {
  try {
    return dist::threads_from_env();
  } catch (const std::invalid_argument& e) {
    die(e.what());
  }
}

/// Backend selected by WA_BACKEND/WA_THREADS (serial when unset),
/// with unknown names rejected as a usage error.
inline std::unique_ptr<dist::Backend> env_backend() {
  try {
    return dist::backend_from_env();
  } catch (const std::invalid_argument& e) {
    die(e.what());
  }
}

/// Transport selected by WA_TRANSPORT (sim when unset), with unknown
/// names rejected as the same uniform usage error as WA_BACKEND.
inline std::unique_ptr<dist::Transport> env_transport() {
  try {
    return dist::transport_from_env();
  } catch (const std::invalid_argument& e) {
    die(e.what());
  }
}

/// Local-kernel choice from WA_KERNELS (blocked when unset),
/// installed as the process-wide active table so every local numeric
/// in the bench runs through it; counters are unaffected by design.
inline linalg::KernelImpl env_kernels() {
  try {
    const linalg::KernelImpl impl = dist::kernels_from_env();
    linalg::set_active_kernels(impl);
    return impl;
  } catch (const std::invalid_argument& e) {
    die(e.what());
  }
}

class Table {
 public:
  explicit Table(std::vector<std::string> headers, int width = 14)
      : headers_(std::move(headers)), width_(width) {}

  Table& row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  void print() const {
    auto line = [&] {
      for (std::size_t i = 0; i < headers_.size(); ++i) {
        std::printf("+%.*s", width_, "--------------------------------");
      }
      std::printf("+\n");
    };
    line();
    print_row(headers_);
    line();
    for (const auto& r : rows_) print_row(r);
    line();
  }

 private:
  void print_row(const std::vector<std::string>& cells) const {
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      std::printf("|%*s", width_, i < cells.size() ? cells[i].c_str() : "");
    }
    std::printf("|\n");
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  int width_;
};

inline std::string fmt_u(std::uint64_t v) {
  if (v >= 10'000'000) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2fM", double(v) / 1e6);
    return buf;
  }
  if (v >= 100'000) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1fK", double(v) / 1e3);
    return buf;
  }
  return std::to_string(v);
}

inline std::string fmt_d(double v, int prec = 2) {
  char buf[32];
  if (v != 0 && (v >= 1e6 || v < 1e-3)) {
    std::snprintf(buf, sizeof buf, "%.2e", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  }
  return buf;
}

/// Machine-readable counterpart of the printed tables: `--json PATH`
/// on any bench collects named (case, key, value) triples and dumps
/// them as one JSON object on exit.  CI uploads the files as
/// BENCH_<bench>.json artifacts and diffs the counter values against
/// bench/baselines/ (keys containing "wall" or "seconds" are timing,
/// excluded from the drift check; everything else is a deterministic
/// simulator counter).
class JsonReport {
 public:
  /// Parses `--json PATH` out of argv; unknown arguments are left for
  /// the bench (none of ours take any today).
  JsonReport(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--json") {
        if (i + 1 >= argc) die("JsonReport: --json needs a file path");
        path_ = argv[i + 1];
        ++i;
      }
    }
  }

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  bool enabled() const { return !path_.empty(); }

  /// Record one value; cases and keys keep insertion order so the
  /// emitted file is deterministic.
  void add(const std::string& case_name, const std::string& key, double v) {
    if (!enabled()) return;
    for (auto& [name, kv] : cases_) {
      if (name == case_name) {
        kv.emplace_back(key, v);
        return;
      }
    }
    cases_.emplace_back(case_name,
                        std::vector<std::pair<std::string, double>>{
                            {key, v}});
  }

  void add(const std::string& case_name, const std::string& key,
           std::uint64_t v) {
    add(case_name, key, double(v));
  }

  /// Writes the report; called from the destructor so a bench only
  /// has to construct the report and feed it.
  void write() {
    if (!enabled() || written_) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) die("JsonReport: cannot open '" + path_ + "'");
    std::fprintf(f, "{\n");
    for (std::size_t c = 0; c < cases_.size(); ++c) {
      std::fprintf(f, "  \"%s\": {\n", cases_[c].first.c_str());
      const auto& kv = cases_[c].second;
      for (std::size_t k = 0; k < kv.size(); ++k) {
        std::fprintf(f, "    \"%s\": %.17g%s\n", kv[k].first.c_str(),
                     kv[k].second, k + 1 < kv.size() ? "," : "");
      }
      std::fprintf(f, "  }%s\n", c + 1 < cases_.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    written_ = true;
  }

  ~JsonReport() { write(); }

 private:
  std::string path_;
  bool written_ = false;
  std::vector<std::pair<std::string,
                        std::vector<std::pair<std::string, double>>>>
      cases_;
};

}  // namespace wa::bench
