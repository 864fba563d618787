#include "memsim/hierarchy.hpp"

namespace wa::memsim {

Hierarchy::Hierarchy(std::vector<std::size_t> capacity_words)
    : capacity_(std::move(capacity_words)) {
  if (capacity_.size() < 2) {
    throw std::invalid_argument("Hierarchy needs at least two levels");
  }
  for (std::size_t s = 0; s + 1 < capacity_.size(); ++s) {
    if (capacity_[s] == 0) {
      throw std::invalid_argument("level capacity must be positive");
    }
    if (capacity_[s] >= capacity_[s + 1]) {
      throw std::invalid_argument(
          "level capacities must strictly increase toward slow memory");
    }
  }
  occupancy_.assign(capacity_.size(), 0);
  down_.assign(capacity_.size(), ChannelCounters{});
  up_.assign(capacity_.size(), ChannelCounters{});
  allocs_.assign(capacity_.size(), 0);
  res_.assign(capacity_.size(), ResidencyCounters{});
}

void Hierarchy::check_level_pair(std::size_t s, const char* what) const {
  if (s + 1 >= capacity_.size()) {
    throw std::out_of_range(std::string(what) +
                            ": level has no slower neighbour");
  }
}

void Hierarchy::check_room(std::size_t s, std::size_t words,
                           const char* what) const {
  if (capacity_[s] != kUnbounded && words > capacity_[s] - occupancy_[s]) {
    throw CapacityError(std::string(what) +
                        " would exceed capacity of level " +
                        std::to_string(s) + " (" +
                        std::to_string(occupancy_[s]) + "+" +
                        std::to_string(words) + " > " +
                        std::to_string(capacity_[s]) + " words)");
  }
}

void Hierarchy::load(std::size_t s, std::size_t words) {
  check_level_pair(s, "load");
  check_room(s, words, "load");
  occupancy_[s] += words;
  down_[s].add(words);
  res_[s].r1_begun += words;
}

void Hierarchy::store(std::size_t s, std::size_t words) {
  check_level_pair(s, "store");
  if (occupancy_[s] < words) {
    throw std::logic_error("store of more words than resident at level " +
                           std::to_string(s));
  }
  occupancy_[s] -= words;
  up_[s].add(words);
  res_[s].d1_ended += words;
}

void Hierarchy::alloc(std::size_t s, std::size_t words) {
  if (s >= capacity_.size()) throw std::out_of_range("alloc: bad level");
  check_room(s, words, "alloc");
  occupancy_[s] += words;
  allocs_[s] += words;
  res_[s].r2_begun += words;
}

void Hierarchy::discard(std::size_t s, std::size_t words) {
  if (s >= capacity_.size()) throw std::out_of_range("discard: bad level");
  if (occupancy_[s] < words) {
    throw std::logic_error("discard of more words than resident at level " +
                           std::to_string(s));
  }
  occupancy_[s] -= words;
  res_[s].d2_ended += words;
}

void Hierarchy::burst(std::size_t s, const Burst& b) {
  if (s >= capacity_.size()) throw std::out_of_range("burst: bad level");
  if (b.load.words + b.load.messages + b.store.words + b.store.messages > 0) {
    check_level_pair(s, "burst");
  }
  check_room(s, b.peak, "burst");
  const std::uint64_t begun = occupancy_[s] + b.load.words + b.alloc;
  const std::uint64_t ended = b.store.words + b.discard;
  if (ended > begun) {
    throw std::logic_error("burst ends more words than resident at level " +
                           std::to_string(s));
  }
  occupancy_[s] = begun - ended;
  down_[s].words += b.load.words;
  down_[s].messages += b.load.messages;
  up_[s].words += b.store.words;
  up_[s].messages += b.store.messages;
  allocs_[s] += b.alloc;
  res_[s].r1_begun += b.load.words;
  res_[s].r2_begun += b.alloc;
  res_[s].d1_ended += b.store.words;
  res_[s].d2_ended += b.discard;
}

std::uint64_t Hierarchy::writes_to(std::size_t s) const {
  std::uint64_t w = allocs_.at(s);
  // Loads into s from s+1 write at s.
  if (s + 1 < capacity_.size()) w += down_[s].words;
  // Stores from s-1 into s write at s.
  if (s > 0) w += up_[s - 1].words;
  return w;
}

std::uint64_t Hierarchy::reads_from(std::size_t s) const {
  std::uint64_t r = 0;
  // Loads into s-1 read from s.
  if (s > 0) r += down_[s - 1].words;
  // Stores from s read at s.
  if (s + 1 < capacity_.size()) r += up_[s].words;
  return r;
}

std::uint64_t Hierarchy::traffic(std::size_t s) const {
  check_level_pair(s, "traffic");
  return down_[s].words + up_[s].words;
}

std::uint64_t Hierarchy::messages(std::size_t s) const {
  check_level_pair(s, "messages");
  return down_[s].messages + up_[s].messages;
}

void Hierarchy::reset_counters() {
  for (auto& c : down_) c = ChannelCounters{};
  for (auto& c : up_) c = ChannelCounters{};
  for (auto& a : allocs_) a = 0;
  for (auto& r : res_) r = ResidencyCounters{};
  flops_ = 0;
}

}  // namespace wa::memsim
