#include "broker/topic.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>

namespace mps::broker {
namespace {

TEST(Topic, ExactMatch) {
  EXPECT_TRUE(topic_matches("a.b.c", "a.b.c"));
  EXPECT_FALSE(topic_matches("a.b.c", "a.b.d"));
  EXPECT_FALSE(topic_matches("a.b.c", "a.b"));
  EXPECT_FALSE(topic_matches("a.b", "a.b.c"));
}

TEST(Topic, StarMatchesExactlyOneWord) {
  EXPECT_TRUE(topic_matches("a.*.c", "a.b.c"));
  EXPECT_TRUE(topic_matches("a.*.c", "a.x.c"));
  EXPECT_FALSE(topic_matches("a.*.c", "a.c"));
  EXPECT_FALSE(topic_matches("a.*.c", "a.b.b.c"));
  EXPECT_TRUE(topic_matches("*", "anything"));
  EXPECT_FALSE(topic_matches("*", "two.words"));
}

TEST(Topic, HashMatchesZeroOrMoreWords) {
  EXPECT_TRUE(topic_matches("#", ""));
  EXPECT_TRUE(topic_matches("#", "a"));
  EXPECT_TRUE(topic_matches("#", "a.b.c"));
  EXPECT_TRUE(topic_matches("a.#", "a"));
  EXPECT_TRUE(topic_matches("a.#", "a.b.c"));
  EXPECT_FALSE(topic_matches("a.#", "b.a"));
  EXPECT_TRUE(topic_matches("#.c", "c"));
  EXPECT_TRUE(topic_matches("#.c", "a.b.c"));
  EXPECT_FALSE(topic_matches("#.c", "c.d"));
}

TEST(Topic, HashInMiddle) {
  EXPECT_TRUE(topic_matches("a.#.c", "a.c"));
  EXPECT_TRUE(topic_matches("a.#.c", "a.b.c"));
  EXPECT_TRUE(topic_matches("a.#.c", "a.x.y.z.c"));
  EXPECT_FALSE(topic_matches("a.#.c", "a.b.d"));
}

TEST(Topic, MultipleWildcards) {
  EXPECT_TRUE(topic_matches("*.*", "a.b"));
  EXPECT_FALSE(topic_matches("*.*", "a"));
  EXPECT_TRUE(topic_matches("#.#", "a.b.c"));
  EXPECT_TRUE(topic_matches("#.#", ""));
  EXPECT_TRUE(topic_matches("a.*.#", "a.b"));
  EXPECT_TRUE(topic_matches("a.*.#", "a.b.c.d"));
  EXPECT_FALSE(topic_matches("a.*.#", "a"));
}

TEST(Topic, PaperFigure3Keys) {
  // Location+datatype bindings as used by GoFlow's channel management.
  EXPECT_TRUE(topic_matches("FR75013.Feedback.#", "FR75013.Feedback.mob2"));
  EXPECT_FALSE(topic_matches("FR75013.Feedback.#", "FR92120.Feedback.mob2"));
  EXPECT_TRUE(topic_matches("FR92120.Journey.#", "FR92120.Journey.user7.pub"));
  EXPECT_TRUE(topic_matches("*.Feedback.#", "FR75013.Feedback.mob1"));
}

TEST(Topic, EmptyKeyAndPattern) {
  EXPECT_TRUE(topic_matches("", ""));
  EXPECT_FALSE(topic_matches("", "a"));
  EXPECT_FALSE(topic_matches("a", ""));
}

TEST(Topic, ValidRoutingKey) {
  EXPECT_TRUE(valid_routing_key("a.b.c"));
  EXPECT_TRUE(valid_routing_key(""));
  EXPECT_FALSE(valid_routing_key(std::string(256, 'x')));
}

TEST(Topic, ValidBindingPattern) {
  EXPECT_TRUE(valid_binding_pattern("a.*.#"));
  EXPECT_TRUE(valid_binding_pattern("plain.words"));
  EXPECT_FALSE(valid_binding_pattern("a.*b"));
  EXPECT_FALSE(valid_binding_pattern("a#.b"));
  EXPECT_FALSE(valid_binding_pattern(std::string(256, 'x')));
}

// Property: '#'-free patterns match only keys with the same word count.
// The parameters are std::string, not const char*: gtest prints a char
// pointer with its address, which would put a per-run address in each
// case's name.
class TopicWordCountTest
    : public ::testing::TestWithParam<std::pair<std::string, std::string>> {};

TEST_P(TopicWordCountTest, StarPreservesWordCount) {
  auto [pattern, key] = GetParam();
  auto words = [](std::string_view s) {
    std::size_t n = 1;
    for (char c : s)
      if (c == '.') ++n;
    return n;
  };
  if (topic_matches(pattern, key) &&
      std::string_view(pattern).find('#') == std::string_view::npos) {
    EXPECT_EQ(words(pattern), words(key));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TopicWordCountTest,
    ::testing::Values(std::make_pair("a.*", "a.b"), std::make_pair("*", "a"),
                      std::make_pair("*.*.c", "a.b.c"),
                      std::make_pair("a.*", "a.b.c"),
                      std::make_pair("x.y", "x.y")));

}  // namespace
}  // namespace mps::broker
