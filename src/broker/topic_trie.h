// Compiled topic-binding matcher: a word trie with wildcard nodes.
//
// Evaluating `topic_matches(pattern, key)` once per binding is O(bindings
// x words) per publish — the paper's 45M observations each paid that on
// every hop of the Figure-3 exchange chain.
// This trie compiles all of an exchange's binding patterns into one
// structure so routing a key is a single walk: literal words are hash-map
// edges, '*' is a one-word wildcard edge and '#' a zero-or-more-words
// wildcard edge (RabbitMQ semantics, same as topic_matches, which remains
// the reference oracle for the property tests).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.h"

namespace mps::broker {

/// Word trie over binding patterns. add() registers a pattern under an
/// opaque binding index; match() returns the indices of every registered
/// pattern matching a routing key, sorted ascending (the broker's original
/// binding-declaration order, preserving delivery order).
class TopicTrie {
 public:
  TopicTrie() { nodes_.emplace_back(); }

  /// Removes all patterns (nodes are kept allocated for reuse).
  void clear();

  /// Registers `pattern` (already validated by valid_binding_pattern)
  /// under `binding_index`.
  void add(std::string_view pattern, std::uint32_t binding_index);

  /// Appends to `out` the binding indices whose patterns match
  /// `routing_key`, sorted ascending. `out` is cleared first.
  void match(std::string_view routing_key,
             std::vector<std::uint32_t>& out) const;

  std::size_t node_count() const { return nodes_.size(); }
  bool empty() const { return pattern_count_ == 0; }

 private:
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      // fnv1a64, not std::hash: routing tables are rebuilt from journals
      // and shipped across processes, so every key derivation feeding
      // them must be stable across hosts and standard-library builds.
      return static_cast<std::size_t>(fnv1a64(s));
    }
  };
  struct Node {
    /// Literal word edges. Heterogeneous lookup so matching never builds
    /// temporary std::strings from routing-key words.
    std::unordered_map<std::string, int, StringHash, std::equal_to<>> children;
    int star = -1;  ///< '*' edge: consumes exactly one word
    int hash = -1;  ///< '#' edge: consumes zero or more words
    std::vector<std::uint32_t> terminals;  ///< patterns ending at this node
  };

  int ensure_child(int node, std::string_view word);
  void walk(int node, std::size_t i) const;

  std::vector<Node> nodes_;
  std::size_t pattern_count_ = 0;

  // Per-match scratch (the broker is single-threaded; reusing the buffers
  // keeps the hot path allocation-free once warmed up). `visited_` is a
  // dense (node, word-position) bitmap bounding the wildcard walk to
  // O(nodes x words).
  mutable std::vector<std::string_view> words_;
  mutable std::vector<char> visited_;
  mutable std::vector<std::uint32_t>* out_ = nullptr;
};

}  // namespace mps::broker
