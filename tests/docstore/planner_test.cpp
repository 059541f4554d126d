// Planner tests: the query planner must (a) pick indexed access paths and
// say so through the stats counters, and (b) return byte-identical
// results to the full-scan reference execution: the same documents in an
// index-free collection (scan_twin.h).
#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "docstore/collection.h"
#include "scan_twin.h"

namespace mps::docstore {
namespace {

Value doc(const std::string& user, int t, double spl) {
  return Value(Object{{"user", Value(user)},
                      {"captured_at", Value(t)},
                      {"spl", Value(spl)}});
}

/// A collection with indexes on user and captured_at: 300 docs across 10
/// users, shuffled insertion order so index order != insertion order.
Collection make_indexed_collection() {
  Collection c("obs");
  c.create_index("user");
  c.create_index("captured_at");
  std::vector<int> times;
  for (int i = 0; i < 300; ++i) times.push_back(i * 7 % 500);
  for (int i = 0; i < 300; ++i) {
    int t = times[static_cast<std::size_t>(i)];
    c.insert(doc("u" + std::to_string(i % 10), t, 30.0 + i % 60));
  }
  // A few documents without the indexed fields at all.
  c.insert(Value(Object{{"spl", Value(55.0)}}));
  c.insert(Value(Object{{"user", Value("u3")}}));
  return c;
}

/// Runs `find` twice — on `c` and on its index-free twin — and asserts
/// identical results (order included) before returning them.
std::vector<Document> find_both_ways(const Collection& c, const Query& q,
                                     const FindOptions& options = {}) {
  auto fast = c.find(q, options);
  auto reference = scan_twin(c).find(q, options);
  EXPECT_EQ(fast.size(), reference.size()) << q.to_string();
  for (std::size_t i = 0; i < std::min(fast.size(), reference.size()); ++i)
    EXPECT_EQ(fast[i], reference[i]) << q.to_string() << " at " << i;
  return fast;
}

TEST(PlannerTest, IndexedEqBumpsIndexedCounter) {
  Collection c = make_indexed_collection();
  std::uint64_t before = c.stats().plans_indexed;
  auto results = c.find(Query::eq("user", Value("u3")));
  EXPECT_EQ(results.size(), 31u);  // 30 full docs + 1 user-only doc
  EXPECT_EQ(c.stats().plans_indexed, before + 1);
}

TEST(PlannerTest, NonIndexedFieldFallsBackToScan) {
  Collection c = make_indexed_collection();
  std::uint64_t before = c.stats().plans_scan;
  auto results = c.find(Query::gt("spl", Value(80.0)));
  EXPECT_FALSE(results.empty());
  EXPECT_EQ(c.stats().plans_scan, before + 1);
}

TEST(PlannerTest, IndexedExecutionEqualsScanExecution) {
  Collection c = make_indexed_collection();
  find_both_ways(c, Query::eq("user", Value("u7")));
  find_both_ways(c, Query::in("user", {Value("u1"), Value("u5"), Value("u5")}));
  find_both_ways(c, Query::range("captured_at", Value(100), Value(200)));
  find_both_ways(c, Query::lte("captured_at", Value(50)));
  find_both_ways(c, Query::gt("captured_at", Value(450)));
  find_both_ways(c, Query::exists("user"));
  find_both_ways(c, Query::ne("user", Value("u0")));
}

TEST(PlannerTest, AndIntersectionUsesMultipleIndexes) {
  Collection c = make_indexed_collection();
  Query q = Query::and_({Query::eq("user", Value("u2")),
                         Query::range("captured_at", Value(0), Value(400))});
  std::uint64_t before = c.stats().plans_intersect;
  auto fast = find_both_ways(c, q);
  EXPECT_GE(c.stats().plans_intersect, before + 1);
  for (const auto& d : fast) EXPECT_EQ(d.get_string("user"), "u2");
}

TEST(PlannerTest, SortByIndexedPathSkipsStableSort) {
  Collection c = make_indexed_collection();
  for (bool descending : {false, true}) {
    FindOptions options;
    options.sort_by = "captured_at";
    options.descending = descending;
    std::uint64_t before = c.stats().plans_sort_index;
    find_both_ways(c, Query::all(), options);
    EXPECT_EQ(c.stats().plans_sort_index, before + 1) << descending;
  }
}

TEST(PlannerTest, SortIndexHonorsSkipAndLimit) {
  Collection c = make_indexed_collection();
  for (bool descending : {false, true}) {
    FindOptions options;
    options.sort_by = "captured_at";
    options.descending = descending;
    options.skip = 13;
    options.limit = 20;
    options.projection = {"captured_at"};
    auto fast = find_both_ways(c, Query::all(), options);
    EXPECT_EQ(fast.size(), 20u);
  }
}

TEST(PlannerTest, SortIndexPlacesMissingFieldDocsLikeStableSort) {
  // The two docs lacking captured_at must land exactly where stable_sort
  // puts documents whose sort key is missing (the null group).
  Collection c = make_indexed_collection();
  FindOptions asc;
  asc.sort_by = "captured_at";
  auto fast = find_both_ways(c, Query::all(), asc);
  EXPECT_EQ(fast.size(), c.size());
  FindOptions desc = asc;
  desc.descending = true;
  find_both_ways(c, Query::all(), desc);
}

TEST(PlannerTest, SortByNonIndexedPathStillSorts) {
  Collection c = make_indexed_collection();
  FindOptions options;
  options.sort_by = "spl";
  auto fast = find_both_ways(c, Query::all(), options);
  for (std::size_t i = 1; i < fast.size(); ++i) {
    auto* a = fast[i - 1].find_path("spl");
    auto* b = fast[i].find_path("spl");
    if (a != nullptr && b != nullptr)
      EXPECT_LE(Value::compare(*a, *b), 0) << i;
  }
}

TEST(PlannerTest, CoveredCountMatchesScanCount) {
  Collection c = make_indexed_collection();
  std::vector<Query> queries = {
      Query::eq("user", Value("u4")),
      Query::in("user", {Value("u0"), Value("u9"), Value("nobody")}),
      Query::lt("captured_at", Value(250)),
      Query::lte("captured_at", Value(250)),
      Query::gt("captured_at", Value(250)),
      Query::gte("captured_at", Value(250)),
      Query::exists("captured_at"),
      Query::range("captured_at", Value(100), Value(101)),
  };
  Collection reference = scan_twin(c);
  for (const Query& q : queries)
    EXPECT_EQ(c.count(q), reference.count(q)) << q.to_string();
  EXPECT_GE(c.stats().plans_covered, queries.size() - 1);
}

TEST(PlannerTest, CoveredCountDoesNotMissEqOnAbsentValue) {
  Collection c = make_indexed_collection();
  EXPECT_EQ(c.count(Query::eq("user", Value("stranger"))), 0u);
}

TEST(PlannerTest, CrossTypeNumericKeysStayExact) {
  // 1 (int) and 1.0 (double) are operator==-equal and compare-equal; the
  // covered paths must count both under either literal, like a scan does.
  Collection c("t");
  c.create_index("k");
  c.insert(Value(Object{{"k", Value(1)}}));
  c.insert(Value(Object{{"k", Value(1.0)}}));
  c.insert(Value(Object{{"k", Value(2)}}));
  Collection reference = scan_twin(c);
  for (const Query& q :
       {Query::eq("k", Value(1)), Query::eq("k", Value(1.0))}) {
    std::size_t fast = c.count(q);
    EXPECT_EQ(fast, reference.count(q)) << q.to_string();
    EXPECT_EQ(fast, 2u);
  }
}

TEST(PlannerTest, CoveredDistinctAndGroupCountMatchScan) {
  Collection c = make_indexed_collection();
  std::uint64_t before = c.stats().plans_covered;
  auto fast_distinct = c.distinct("user");
  auto fast_groups = c.group_count("user");
  EXPECT_GT(c.stats().plans_covered, before);
  Collection reference = scan_twin(c);
  auto ref_distinct = reference.distinct("user");
  auto ref_groups = reference.group_count("user");
  EXPECT_EQ(fast_distinct, ref_distinct);
  ASSERT_EQ(fast_groups.size(), ref_groups.size());
  for (std::size_t i = 0; i < fast_groups.size(); ++i) {
    EXPECT_EQ(fast_groups[i].first, ref_groups[i].first) << i;
    EXPECT_EQ(fast_groups[i].second, ref_groups[i].second) << i;
  }
}

TEST(PlannerTest, DistinctWithFilterStillCorrect) {
  Collection c = make_indexed_collection();
  Query q = Query::lt("captured_at", Value(100));
  EXPECT_EQ(c.distinct("user", q), scan_twin(c).distinct("user", q));
}

TEST(PlannerTest, UpdateManyKeepsIndexedExecutionExact) {
  // After update_many rewrites indexed fields, indexed and scan execution
  // must still agree (reindexing moves slots between multimap groups).
  Collection c = make_indexed_collection();
  c.update_many(Query::eq("user", Value("u1")), [](Document& d) {
    d.as_object().set("captured_at", Value(42));
  });
  find_both_ways(c, Query::eq("captured_at", Value(42)));
  FindOptions options;
  options.sort_by = "captured_at";
  find_both_ways(c, Query::all(), options);
}

TEST(PlannerTest, RandomizedQueriesAgreeWithReference) {
  Rng rng(2024);
  // Ints, plus the doubles that stress the number order: NaN (which must
  // sort before every other number and equal only NaN) and both
  // infinities.
  auto number = [&rng](std::int64_t lo, std::int64_t hi) {
    double roll = rng.uniform();
    if (roll < 0.06) return Value(std::nan(""));
    if (roll < 0.09) return Value(std::numeric_limits<double>::infinity());
    if (roll < 0.12) return Value(-std::numeric_limits<double>::infinity());
    return Value(rng.uniform_int(lo, hi));
  };
  Collection c("f");
  c.create_index("a");
  c.create_index("b");
  for (int i = 0; i < 400; ++i) {
    Object o;
    if (!rng.bernoulli(0.1)) o.set("a", number(0, 20));
    if (!rng.bernoulli(0.1))
      o.set("b", Value("s" + std::to_string(rng.uniform_int(0, 5))));
    o.set("c", Value(rng.uniform(0.0, 1.0)));
    c.insert(Value(std::move(o)));
  }
  Collection reference = scan_twin(c);
  for (int i = 0; i < 200; ++i) {
    Query q = Query::all();
    switch (rng.uniform_int(0, 4)) {
      case 0: q = Query::eq("a", number(0, 20)); break;
      case 1: {
        Value lo = number(0, 10);  // draw order pinned: lo, then hi
        q = Query::range("a", std::move(lo), number(10, 21));
        break;
      }
      case 2: q = Query::eq("b", Value("s" + std::to_string(rng.uniform_int(0, 5)))); break;
      case 3:
        q = Query::and_({Query::gte("a", number(0, 15)),
                         Query::eq("b", Value("s" + std::to_string(
                                                  rng.uniform_int(0, 5))))});
        break;
      case 4: q = Query::exists("a"); break;
    }
    FindOptions options;
    if (rng.bernoulli(0.5)) {
      options.sort_by = rng.bernoulli(0.5) ? "a" : "c";
      options.descending = rng.bernoulli(0.5);
      options.skip = static_cast<std::size_t>(rng.uniform_int(0, 5));
      options.limit = static_cast<std::size_t>(rng.uniform_int(0, 30));
    }
    find_both_ways(c, q, options);
    EXPECT_EQ(c.count(q), reference.count(q)) << q.to_string();
  }
}

}  // namespace
}  // namespace mps::docstore
