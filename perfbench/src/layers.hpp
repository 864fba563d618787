#pragma once
// Timing decorators over the library's public execution and
// data-movement seams.  The benchmark hands them to a Machine in place
// of the real backend and transport, so every layer is measured from
// outside: the library itself is not instrumented.
//
//   TimedBackend    a "backend/run" span per phase on the calling
//                   thread, a "backend/rank" span per rank function on
//                   whichever thread runs it, and a "backend/merge"
//                   span per sink call (the counter merge).
//   TimedTransport  a "transport/<call>" span per send/bcast/reduce,
//                   carrying the call's word count.
//
// Both forward every call unchanged, so counters and output bits are
// those of the wrapped implementation (the traced run asserts this).

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "dist/backend.hpp"
#include "dist/transport.hpp"
#include "trace.hpp"

namespace wa::perfbench {

class TimedBackend final : public dist::Backend {
 public:
  TimedBackend(std::unique_ptr<dist::Backend> inner, Tracer& t)
      : inner_(std::move(inner)), t_(t) {}

  const char* name() const override { return inner_->name(); }

  void run(const std::vector<std::size_t>& ranks,
           const std::vector<std::size_t>& capacities, const LocalFn& fn,
           const Sink& sink) override {
    const ScopedSpan phase(t_, "backend", "run", ranks.size());
    const std::int64_t parent = phase.id();
    inner_->run(
        ranks, capacities,
        [&](std::size_t p, memsim::Hierarchy& h) {
          const ScopedSpan rank(t_, "backend", "rank", p, parent);
          fn(p, h);
        },
        [&](std::size_t p, const memsim::Hierarchy& h) {
          const ScopedSpan merge(t_, "backend", "merge", p, parent);
          sink(p, h);
        });
  }

  void run_replicated(const std::vector<std::size_t>& ranks,
                      const std::vector<std::size_t>& capacities,
                      const PhaseFn& fn, const Sink& sink) override {
    const ScopedSpan phase(t_, "backend", "run", ranks.size());
    const std::int64_t parent = phase.id();
    inner_->run_replicated(
        ranks, capacities,
        [&](memsim::Hierarchy& h) {
          const ScopedSpan rank(t_, "backend", "rank", 0, parent);
          fn(h);
        },
        [&](std::size_t p, const memsim::Hierarchy& h) {
          const ScopedSpan merge(t_, "backend", "merge", p, parent);
          sink(p, h);
        });
  }

 private:
  std::unique_ptr<dist::Backend> inner_;
  Tracer& t_;
};

class TimedTransport final : public dist::Transport {
 public:
  TimedTransport(std::unique_ptr<dist::Transport> inner, Tracer& t)
      : inner_(std::move(inner)), t_(t) {}

  const char* name() const override { return inner_->name(); }
  bool moves_data() const override { return inner_->moves_data(); }
  void attach(std::size_t P) override { inner_->attach(P); }

  void send(std::size_t src, std::size_t dst, std::size_t words,
            const double* payload) override {
    const ScopedSpan span(t_, "transport", "send", words);
    inner_->send(src, dst, words, payload);
  }
  void bcast(const std::vector<std::size_t>& group, std::size_t words,
             const double* payload) override {
    const ScopedSpan span(t_, "transport", "bcast", words);
    inner_->bcast(group, words, payload);
  }
  void reduce(const std::vector<std::size_t>& group, std::size_t words,
              const double* payload) override {
    const ScopedSpan span(t_, "transport", "reduce", words);
    inner_->reduce(group, words, payload);
  }
  dist::TransportStats stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<dist::Transport> inner_;
  Tracer& t_;
};

}  // namespace wa::perfbench
