// Mutation under an open iteration: update_many's callback is allowed to
// reentrantly remove documents (including the one being updated) and
// insert new ones mid-pass. The two-pass execution must neither crash,
// nor resurrect removed documents, nor visit documents inserted by the
// callback itself — and the planner must not change any of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "docstore/collection.h"
#include "scan_twin.h"

namespace mps::docstore {
namespace {

Value doc(int k, const std::string& tag) {
  return Value(Object{{"k", Value(k)}, {"tag", Value(tag)}});
}

TEST(MutationDuringIteration, CallbackRemovingCurrentDocDropsTheUpdate) {
  Collection c("t");
  c.create_index("k");
  std::string id0 = c.insert(doc(1, "a"));
  c.insert(doc(1, "b"));
  c.insert(doc(2, "c"));

  std::size_t updated =
      c.update_many(Query::eq("k", Value(1)), [&](Value& d) {
        if (d.get_string("tag") == "a") c.remove(d.get_string("_id"));
        d.as_object().set("tag", Value("updated"));
      });
  // The removed document is gone — not resurrected with the new tag.
  EXPECT_EQ(updated, 1u);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_FALSE(c.get(id0).has_value());
  auto matches = c.find(Query::eq("tag", Value("updated")));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].get_string("tag"), "updated");
  // The index never points at the dead slot.
  EXPECT_EQ(c.find(Query::eq("k", Value(1))).size(), 1u);
}

TEST(MutationDuringIteration, CallbackRemovingLaterMatchSkipsIt) {
  Collection c("t");
  std::vector<std::string> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(c.insert(doc(7, "v" + std::to_string(i))));

  bool first = true;
  std::size_t updated = c.update_many(Query::eq("k", Value(7)), [&](Value& d) {
    if (first) {
      first = false;
      c.remove(ids[2]);  // a match the pass has not reached yet
    }
    d.as_object().set("tag", Value(d.get_string("tag") + "+"));
  });
  EXPECT_EQ(updated, 3u);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_FALSE(c.get(ids[2]).has_value());
  for (const std::string& id : {ids[0], ids[1], ids[3]}) {
    auto d = c.get(id);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->get_string("tag").back(), '+');
  }
}

TEST(MutationDuringIteration, CallbackInsertsAreNotVisitedThisPass) {
  Collection c("t");
  c.create_index("k");
  for (int i = 0; i < 3; ++i) c.insert(doc(5, "orig"));

  // Each visited document spawns another match; a scan-while-mutating
  // implementation would either loop forever or crash on reallocation.
  std::size_t updated = c.update_many(Query::eq("k", Value(5)), [&](Value& d) {
    c.insert(doc(5, "spawned"));
    d.as_object().set("tag", Value("seen"));
  });
  EXPECT_EQ(updated, 3u);
  EXPECT_EQ(c.size(), 6u);
  EXPECT_EQ(c.find(Query::eq("tag", Value("seen"))).size(), 3u);
  EXPECT_EQ(c.find(Query::eq("tag", Value("spawned"))).size(), 3u);
  // All six (originals and spawned) are reachable through the index.
  EXPECT_EQ(c.find(Query::eq("k", Value(5))).size(), 6u);
}

TEST(MutationDuringIteration, IndexedFieldMutationKeepsIndexConsistent) {
  Collection c("t");
  c.create_index("k");
  for (int i = 0; i < 10; ++i) c.insert(doc(i % 2, "t" + std::to_string(i)));

  // Move every k==0 document to k==9 while removing half of them.
  int visit = 0;
  c.update_many(Query::eq("k", Value(0)), [&](Value& d) {
    if (++visit % 2 == 0) c.remove(d.get_string("_id"));
    d.as_object().set("k", Value(9));
  });
  // Indexed lookups agree with the full-scan oracle afterwards.
  Collection reference = scan_twin(c);
  for (int k : {0, 1, 9})
    EXPECT_EQ(c.find(Query::eq("k", Value(k))).size(),
              reference.find(Query::eq("k", Value(k))).size())
        << "k=" << k;
  EXPECT_EQ(c.find(Query::eq("k", Value(0))).size(), 0u);
}

// Property: a randomized mix of reentrant removes and inserts under
// update_many leaves an indexed collection and an index-free one (the
// reference scan) in identical states, across seeds.
TEST(MutationDuringIteration, PlannerOnAndOffConvergeAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Collection indexed("indexed");
    indexed.create_index("k");
    Collection reference("reference");

    auto drive = [&](Collection& c) {
      Rng rng(seed);  // same stream for both collections
      for (int i = 0; i < 60; ++i)
        c.insert(Value(Object{{"_id", Value("d" + std::to_string(i))},
                              {"k", Value(static_cast<std::int64_t>(
                                        rng.uniform(0, 5)))},
                              {"n", Value(i)}}));
      for (int round = 0; round < 4; ++round) {
        auto target = static_cast<std::int64_t>(rng.uniform(0, 5));
        int spawned = 0;
        c.update_many(Query::eq("k", Value(target)), [&](Value& d) {
          double dice = rng.uniform();
          if (dice < 0.3) {
            c.remove(d.get_string("_id"));
          } else if (dice < 0.5) {
            c.insert(Value(Object{
                {"_id", Value("r" + std::to_string(round) + "-" +
                              std::to_string(spawned++))},
                {"k", Value(static_cast<std::int64_t>(rng.uniform(0, 5)))},
                {"n", Value(-1)}}));
          }
          d.as_object().set("k", Value((d.get_int("k") + 1) % 5));
        });
      }
    };
    drive(indexed);
    drive(reference);

    // Identical final states, by value.
    ASSERT_EQ(indexed.size(), reference.size());
    std::set<std::string> left, right;
    indexed.for_each([&](const Value& d) { left.insert(d.to_json()); });
    reference.for_each([&](const Value& d) { right.insert(d.to_json()); });
    EXPECT_EQ(left, right);
    // And identical query answers, indexed vs scanned.
    for (std::int64_t k = 0; k < 5; ++k)
      EXPECT_EQ(indexed.count(Query::eq("k", Value(k))),
                reference.count(Query::eq("k", Value(k))))
          << "k=" << k;
  }
}

}  // namespace
}  // namespace mps::docstore
