#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace wa::perfbench {
namespace {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

std::int64_t& Tracer::current() {
  thread_local std::int64_t id = -1;
  return id;
}

void Tracer::begin_op(std::uint64_t op) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  op_ = op;
  spans_.push_back(Span{"op", "op", now_ns(), 0, thread_index(), -1, op, 0});
  current() = 0;
}

void Tracer::end_op(std::size_t keep) {
  close(0);
  current() = -1;
  const std::lock_guard<std::mutex> lock(mu_);
  if (kept_ops_ < keep) {
    const std::vector<std::int64_t> self = self_ns(spans_);
    kept_.insert(kept_.end(), spans_.begin(), spans_.end());
    kept_self_ns_.insert(kept_self_ns_.end(), self.begin(), self.end());
    ++kept_ops_;
  }
}

std::int64_t Tracer::open(const char* layer, const char* name,
                          std::uint64_t count, std::int64_t parent) {
  const std::int64_t start = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(
      Span{layer, name, start, start, thread_index(), parent, op_, count});
  return std::int64_t(spans_.size()) - 1;
}

void Tracer::close(std::int64_t id) {
  const std::int64_t end = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.at(std::size_t(id)).end_ns = end;
}

std::vector<std::int64_t> self_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids.at(std::size_t(s.parent)).emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (auto [a, b] : iv) {
      a = std::max(a, reach);
      b = std::min(b, s.end_ns);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"op\":%llu,\"parent\":%lld,\"count\":%llu,"
                 "\"self_us\":%.3f}}\n",
                 i == 0 ? "" : ",", s.name, s.layer, double(s.start_ns) * 1e-3,
                 double(s.end_ns - s.start_ns) * 1e-3, s.tid,
                 static_cast<unsigned long long>(s.op),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.count),
                 double(kept_self_ns_[i]) * 1e-3);
  }
  std::fputs("]}\n", f);
  if (std::fclose(f) != 0) {
    throw std::runtime_error("cannot finish trace " + path);
  }
}

}  // namespace wa::perfbench
