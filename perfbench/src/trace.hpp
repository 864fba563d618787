#pragma once
// In-memory span recorder for the traced benchmark run.
//
// Every span carries its layer, a name, start/end on one steady clock,
// the recording thread, the span that caused it (parent) and the op it
// belongs to, plus one count: words for a transport call, the rank for
// a rank function or a merge, the number of ranks for a backend phase.
// Spans are kept in memory while the benchmark runs and written once,
// at exit, as Chrome trace-event JSON (loads in Perfetto and
// chrome://tracing).  Parents are tracked per thread, so a rank
// function on a pool worker parents to the backend phase that
// dispatched it and the phase parents to the op.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace wa::perfbench {

struct Span {
  const char* layer = "";  ///< string literal: "op", "backend", ...
  const char* name = "";   ///< string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;   ///< small per-thread index, 0 = first seen
  std::int64_t parent = -1;  ///< index into the same op's spans
  std::uint64_t op = 0;
  std::uint64_t count = 0;  ///< see the file comment

  double seconds() const { return double(end_ns - start_ns) * 1e-9; }
};

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Open op @p op: drops the previous op's spans and makes the op's
  /// root span the calling thread's current parent.
  void begin_op(std::uint64_t op);
  /// Close the op's root span, and keep the op's spans for the trace
  /// file while fewer than @p keep ops are kept.  The spans stay
  /// readable via spans() until the next begin_op.
  void end_op(std::size_t keep);
  const std::vector<Span>& spans() const { return spans_; }

  /// Record the start of a span under @p parent; returns its index.
  /// Thread-safe.
  std::int64_t open(const char* layer, const char* name, std::uint64_t count,
                    std::int64_t parent);
  /// Record the end of span @p id.  Thread-safe.
  void close(std::int64_t id);

  /// The calling thread's innermost open span (-1 outside any op).
  static std::int64_t& current();

  /// Spans of the kept ops as Chrome trace-event JSON.
  void write_chrome_json(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<Span> kept_;
  std::vector<std::int64_t> kept_self_ns_;
  std::uint64_t op_ = 0;
  std::size_t kept_ops_ = 0;
};

/// RAII span: a child of @p parent (by default the calling thread's
/// current span) that is the thread's current span while it lives.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* layer, const char* name,
             std::uint64_t count = 0,
             std::int64_t parent = Tracer::current())
      : t_(t), id_(t.open(layer, name, count, parent)),
        prev_(Tracer::current()) {
    Tracer::current() = id_;
  }
  ~ScopedSpan() {
    t_.close(id_);
    Tracer::current() = prev_;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }

 private:
  Tracer& t_;
  std::int64_t id_;
  std::int64_t prev_;
};

/// Self time of every span of one op: its duration minus the part of
/// its interval that its children cover (children running in parallel
/// on several threads are counted once).
std::vector<std::int64_t> self_ns(const std::vector<Span>& spans);

}  // namespace wa::perfbench
