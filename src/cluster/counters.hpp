// Hadoop-style named counters.
//
// Jobs accumulate counts (records read, duplicates removed, candidate
// pairs, refined pairs) that the paper's analysis reasons about
// qualitatively; counters make them measurable per run. Thread-safe:
// tasks on the pool increment concurrently, but every add() takes one
// mutex shared by all of them — per-task totals belong here, per-record
// sums belong in a task- or job-local tally flushed once (see
// SpatialHadoop's partition job).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace sjc::cluster {

class Counters {
 public:
  Counters() = default;
  // Copy/move transfer the current values (the mutex itself is not
  // movable); concurrent mutation during a move is a caller bug.
  Counters(const Counters& other) : values_(other.values()) {}
  Counters(Counters&& other) noexcept : values_(other.values()) {}
  Counters& operator=(const Counters& other) {
    if (this != &other) {
      auto theirs = other.values();
      std::lock_guard<std::mutex> lock(mutex_);
      values_ = std::move(theirs);
    }
    return *this;
  }
  Counters& operator=(Counters&& other) noexcept { return *this = other; }

  /// Adds `delta` to `name`, creating it (at 0) on first use even when
  /// `delta` is 0. Only the first add of a name allocates its key.
  void add(std::string_view name, std::uint64_t delta) {
    std::lock_guard<std::mutex> lock(mutex_);
    add_locked(name, delta);
  }

  std::uint64_t get(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second;
  }

  std::map<std::string, std::uint64_t> snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return {values_.begin(), values_.end()};
  }

  void merge(const Counters& other) {
    const auto theirs = other.values();
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, value] : theirs) values_[name] += value;
  }

 private:
  // std::less<> makes find/lower_bound take a string_view as is.
  using Values = std::map<std::string, std::uint64_t, std::less<>>;

  Values values() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return values_;
  }

  void add_locked(std::string_view name, std::uint64_t delta) {
    auto it = values_.lower_bound(name);
    if (it == values_.end() || it->first != name) {
      it = values_.emplace_hint(it, std::string(name), 0);
    }
    it->second += delta;
  }

  mutable std::mutex mutex_;
  Values values_;
};

}  // namespace sjc::cluster
