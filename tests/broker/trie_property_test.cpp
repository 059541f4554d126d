// Property tests of the compiled routing trie against topic_matches, the
// reference oracle: for random (and adversarial) pattern sets and routing
// keys, TopicTrie::match must return exactly the indices of the patterns
// the oracle accepts. A second suite checks the broker end to end by
// publishing random traffic through it and through an oracle that walks
// the bindings the test made with topic_matches.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "broker/broker.h"
#include "broker/topic.h"
#include "broker/topic_trie.h"
#include "common/rng.h"

namespace mps::broker {
namespace {

/// Indices of `patterns` matching `key` per the oracle, ascending.
std::vector<std::uint32_t> oracle_match(
    const std::vector<std::string>& patterns, const std::string& key) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < patterns.size(); ++i)
    if (topic_matches(patterns[i], key)) out.push_back(i);
  return out;
}

std::vector<std::uint32_t> trie_match(const TopicTrie& trie,
                                      const std::string& key) {
  std::vector<std::uint32_t> out;
  trie.match(key, out);
  return out;
}

TEST(TopicTrieTest, HashEdgeCases) {
  // '#' matches zero words, so these pattern/key pairs are the ones a
  // naive "at least one word" trie edge gets wrong.
  const std::vector<std::string> patterns = {
      "#",     "a.#",   "#.a",   "a.#.b", "#.#",  "*",
      "a..b",  "",      "#.b.#", "*.#",   "#.*",  "a.*.#",
  };
  TopicTrie trie;
  for (std::uint32_t i = 0; i < patterns.size(); ++i)
    trie.add(patterns[i], i);
  const std::vector<std::string> keys = {
      "",      "a",     "b",         "a.b",     "b.a",    "a.b.c",
      "a..b",  ".",     "..",        "a.",      ".a",     "a.a.b",
      "a.b.b", "a.b.a.b", "b.b.b.b", "a.x.y.b", "a.b.c.d.e",
  };
  for (const std::string& key : keys)
    EXPECT_EQ(trie_match(trie, key), oracle_match(patterns, key))
        << "key=\"" << key << "\"";
}

TEST(TopicTrieTest, ClearForgetsPatterns) {
  TopicTrie trie;
  trie.add("a.#", 0);
  EXPECT_FALSE(trie.empty());
  trie.clear();
  EXPECT_TRUE(trie.empty());
  EXPECT_TRUE(trie_match(trie, "a.b").empty());
  trie.add("a.b", 7);
  EXPECT_EQ(trie_match(trie, "a.b"), (std::vector<std::uint32_t>{7}));
}

TEST(TopicTrieTest, DuplicatePatternsKeepDistinctIndices) {
  TopicTrie trie;
  trie.add("a.*", 0);
  trie.add("a.*", 3);
  trie.add("a.b", 1);
  EXPECT_EQ(trie_match(trie, "a.b"), (std::vector<std::uint32_t>{0, 1, 3}));
}

std::string random_words(Rng& rng, bool wildcards) {
  // Small alphabet maximizes collisions between patterns and keys; empty
  // words ("a..b", leading/trailing dots) are deliberately included.
  static const char* literal[] = {"a", "b", "c", "FR75013", ""};
  static const char* wild[] = {"a", "b", "c", "FR75013", "", "*", "#"};
  auto n = rng.uniform_int(0, 4);
  std::string out;
  for (int i = 0; i < n; ++i) {
    if (i > 0) out.push_back('.');
    out += wildcards ? wild[rng.uniform_int(0, 6)]
                     : literal[rng.uniform_int(0, 4)];
  }
  return out;
}

class TriePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TriePropertyTest, RandomPatternsAgreeWithOracle) {
  Rng rng(GetParam());
  std::vector<std::string> patterns;
  TopicTrie trie;
  for (std::uint32_t i = 0; i < 40; ++i) {
    patterns.push_back(random_words(rng, /*wildcards=*/true));
    trie.add(patterns.back(), i);
  }
  for (int i = 0; i < 400; ++i) {
    std::string key = random_words(rng, /*wildcards=*/false);
    EXPECT_EQ(trie_match(trie, key), oracle_match(patterns, key))
        << "key=\"" << key << "\"";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

struct Bound {
  std::string src, dst, key;
  bool to_queue;
  bool operator==(const Bound&) const = default;
};

/// The bindings the test made, routed as the broker routes: a publish
/// visits each exchange at most once and follows every binding whose key
/// matches, in declaration order.
struct BindingOracle {
  std::map<std::string, ExchangeType> types;
  std::vector<Bound> bindings;  // declaration order, no duplicates

  /// A repeated binding is a no-op, as in the broker.
  void bind(const Bound& b) {
    if (std::find(bindings.begin(), bindings.end(), b) == bindings.end())
      bindings.push_back(b);
  }
  /// False when no such binding exists.
  bool unbind(const Bound& b) {
    auto it = std::find(bindings.begin(), bindings.end(), b);
    if (it == bindings.end()) return false;
    bindings.erase(it);
    return true;
  }
  /// Deliveries per queue of one publish.
  std::map<std::string, std::size_t> route(const std::string& exchange,
                                           const std::string& key) const {
    std::map<std::string, std::size_t> delivered;
    std::vector<std::string> visited;
    walk(exchange, key, visited, delivered);
    return delivered;
  }

 private:
  void walk(const std::string& exchange, const std::string& key,
            std::vector<std::string>& visited,
            std::map<std::string, std::size_t>& delivered) const {
    if (std::find(visited.begin(), visited.end(), exchange) != visited.end())
      return;
    visited.push_back(exchange);
    const ExchangeType type = types.at(exchange);
    for (const Bound& b : bindings) {
      if (b.src != exchange) continue;
      const bool match = type == ExchangeType::kFanout ||
                         (type == ExchangeType::kDirect && b.key == key) ||
                         (type == ExchangeType::kTopic &&
                          topic_matches(b.key, key));
      if (!match) continue;
      if (b.to_queue) {
        ++delivered[b.dst];
      } else {
        walk(b.dst, key, visited, delivered);
      }
    }
  }
};

/// Declares a random topology in the broker and the oracle and returns
/// the (exchange, queue) name lists.
struct Topology {
  std::vector<std::string> exchanges;
  std::vector<std::string> queues;
};

Topology build_random_topology(Rng& rng, Broker& broker,
                               BindingOracle& oracle) {
  Topology topo;
  for (int i = 0; i < 5; ++i) {
    std::string name = "ex" + std::to_string(i);
    // ex0 is always a topic exchange so every seed exercises the trie.
    auto type = i == 0 ? ExchangeType::kTopic
                       : static_cast<ExchangeType>(rng.uniform_int(0, 2));
    broker.declare_exchange(name, type).throw_if_error();
    oracle.types[name] = type;
    topo.exchanges.push_back(name);
  }
  for (int i = 0; i < 4; ++i) {
    std::string name = "q" + std::to_string(i);
    broker.declare_queue(name).throw_if_error();
    topo.queues.push_back(name);
  }
  return topo;
}

class CompiledRoutingPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompiledRoutingPropertyTest, CompiledBrokerMatchesLinearBroker) {
  Rng rng(GetParam());
  Broker compiled;
  BindingOracle oracle;
  Topology topo = build_random_topology(rng, compiled, oracle);

  // Interleave binds, unbinds and publishes so the trie and the route
  // cache are rebuilt/invalidated mid-traffic, not just at setup time.
  std::vector<Bound> bound;  // every successful bind, repeats included
  std::map<std::string, std::size_t> expected_depth;
  for (int round = 0; round < 300; ++round) {
    double action = rng.uniform(0.0, 1.0);
    if (action < 0.25) {
      const std::string& src =
          topo.exchanges[static_cast<std::size_t>(rng.uniform_int(0, 4))];
      Bound b{src, "", random_words(rng, /*wildcards=*/true), false};
      bool ok = false;
      if (rng.bernoulli(0.5)) {
        b.dst = topo.exchanges[static_cast<std::size_t>(rng.uniform_int(0, 4))];
        ok = compiled.bind_exchange(b.src, b.dst, b.key).ok();
      } else {
        b.dst = topo.queues[static_cast<std::size_t>(rng.uniform_int(0, 3))];
        b.to_queue = true;
        ok = compiled.bind_queue(b.src, b.dst, b.key).ok();
      }
      if (ok) {
        bound.push_back(b);
        oracle.bind(b);
      }
    } else if (action < 0.32 && !bound.empty()) {
      auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(bound.size()) - 1));
      const Bound& b = bound[idx];
      const bool ok = b.to_queue
                          ? compiled.unbind_queue(b.src, b.dst, b.key).ok()
                          : compiled.unbind_exchange(b.src, b.dst, b.key).ok();
      ASSERT_EQ(ok, oracle.unbind(b));
      bound.erase(bound.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      const std::string& exchange =
          topo.exchanges[static_cast<std::size_t>(rng.uniform_int(0, 4))];
      std::string key = random_words(rng, /*wildcards=*/false);
      auto a = compiled.publish(exchange, key, Value(Object{{"n", Value(round)}}));
      ASSERT_TRUE(a.ok()) << "exchange=" << exchange << " key=" << key;
      std::size_t deliveries = 0;
      for (const auto& [q, n] : oracle.route(exchange, key)) {
        deliveries += n;
        expected_depth[q] += n;
      }
      EXPECT_EQ(a.value_or_throw().queues_delivered, deliveries)
          << "exchange=" << exchange << " key=\"" << key << "\"";
    }
  }
  for (const std::string& q : topo.queues)
    EXPECT_EQ(compiled.queue_depth(q), expected_depth[q]) << q;
  // The broker must actually have exercised the fast path.
  EXPECT_GT(compiled.stats().route_cache_hits +
                compiled.stats().route_cache_misses,
            0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledRoutingPropertyTest,
                         ::testing::Values(7, 11, 23, 42, 77, 101));

}  // namespace
}  // namespace mps::broker
