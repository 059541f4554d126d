// A bounded insertion-ordered set of string keys with FIFO eviction.
//
// The GoFlow server dedups ingest by batch_id and by per-observation
// (client, span) key. Those sets only ever grew — a long-running deployment
// would exhaust memory on dedup state for observations stored years ago.
// A BoundedKeySet keeps the most recent `capacity` keys: at-least-once
// redelivery happens within retry windows of minutes, so evicting the
// oldest keys preserves dedup where it matters while bounding memory.
//
// Keys iterate in insertion order, which makes snapshots deterministic and
// lets recovery rebuild the exact same eviction queue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_set>
#include <vector>

namespace mps {

class BoundedKeySet {
 public:
  explicit BoundedKeySet(std::size_t capacity) : capacity_(capacity) {}

  /// Inserts `key`; returns false when it was already present. When the
  /// set is full the oldest key is evicted first.
  bool insert(const std::string& key) {
    if (keys_.count(key) > 0) return false;
    while (order_.size() >= capacity_ && !order_.empty()) {
      keys_.erase(order_.front());
      order_.pop_front();
      ++evictions_;
    }
    order_.push_back(key);
    keys_.insert(key);
    return true;
  }

  bool contains(const std::string& key) const { return keys_.count(key) > 0; }

  std::size_t size() const { return order_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Keys evicted since construction (clear() keeps the count). A
  /// reference, so an owner can register it as a metrics source.
  const std::uint64_t& evictions() const { return evictions_; }

  /// Keys oldest-first — snapshot in this order and re-insert to rebuild
  /// an identical eviction queue.
  const std::deque<std::string>& ordered() const { return order_; }

  void clear() {
    keys_.clear();
    order_.clear();
  }

  /// Removes every key matching `pred` and returns them oldest-first.
  /// Relative order of both the extracted and the surviving keys is
  /// preserved, so re-inserting the result into another set rebuilds the
  /// same eviction order there (shard rebalance moves dedup state this
  /// way). Does not count as eviction.
  template <typename Pred>
  std::vector<std::string> extract_if(Pred pred) {
    std::vector<std::string> out;
    std::deque<std::string> kept;
    for (auto& key : order_) {
      if (pred(key)) {
        keys_.erase(key);
        out.push_back(std::move(key));
      } else {
        kept.push_back(std::move(key));
      }
    }
    order_ = std::move(kept);
    return out;
  }

 private:
  std::size_t capacity_;
  std::unordered_set<std::string> keys_;
  std::deque<std::string> order_;  ///< insertion order, front = oldest
  std::uint64_t evictions_ = 0;
};

}  // namespace mps
