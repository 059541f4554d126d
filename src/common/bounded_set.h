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
// lets recovery rebuild the exact same eviction queue. That order is a
// sealed sequence (common/sealed.h): snapshots write each key once, and
// an eviction or an extract_if that removes a sealed key makes the next
// snapshot write the whole order again.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/sealed.h"

namespace mps {

class BoundedKeySet {
 public:
  explicit BoundedKeySet(std::size_t capacity) : capacity_(capacity) {}

  /// Inserts `key`; returns false when it was already present. When the
  /// set is full the oldest key is evicted first.
  bool insert(const std::string& key) {
    if (!make_room(key)) return false;
    order_.push_back(key);
    keys_.insert(key);
    return true;
  }
  /// The same, moving `key` into the insertion order (recovery).
  bool insert(std::string&& key) {
    if (!make_room(key)) return false;
    keys_.insert(key);
    order_.push_back(std::move(key));
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

  /// The prefix of ordered() the snapshots have sealed; the snapshot
  /// writer advances it, and recovery sets it from the loaded segments.
  SealedPrefix& sealed() { return sealed_; }

  void clear() {
    keys_.clear();
    order_.clear();
    sealed_.forget();
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
    bool sealed_changed = false;
    for (std::size_t i = 0; i < order_.size(); ++i) {
      std::string& key = order_[i];
      if (pred(key)) {
        sealed_changed |= i < sealed_.end;
        keys_.erase(key);
        out.push_back(std::move(key));
      } else {
        kept.push_back(std::move(key));
      }
    }
    order_ = std::move(kept);
    if (sealed_changed) sealed_.forget();
    return out;
  }

 private:
  /// False when `key` is present; otherwise evicts the oldest keys until
  /// one more fits.
  bool make_room(const std::string& key) {
    if (keys_.count(key) > 0) return false;
    while (order_.size() >= capacity_ && !order_.empty()) {
      keys_.erase(order_.front());
      order_.pop_front();
      ++evictions_;
      if (sealed_.end > 0) sealed_.forget();  // the oldest key was sealed
    }
    return true;
  }

  std::size_t capacity_;
  std::unordered_set<std::string> keys_;
  std::deque<std::string> order_;  ///< insertion order, front = oldest
  std::uint64_t evictions_ = 0;
  SealedPrefix sealed_;
};

}  // namespace mps
