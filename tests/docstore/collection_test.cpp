#include "docstore/collection.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ingest/obs_batch.h"
#include "obs/metrics.h"
#include "phone/observation.h"
#include "scan_twin.h"

namespace mps::docstore {
namespace {

Document obs(const char* user, double spl, std::int64_t time,
             const char* provider = "network", double accuracy = 30.0) {
  return Value(Object{{"user", Value(user)},
                      {"spl", Value(spl)},
                      {"time", Value(time)},
                      {"provider", Value(provider)},
                      {"accuracy", Value(accuracy)}});
}

TEST(Collection, InsertAssignsIds) {
  Collection c("obs");
  std::string id1 = c.insert(obs("u1", 50, 1));
  std::string id2 = c.insert(obs("u1", 51, 2));
  EXPECT_NE(id1, id2);
  EXPECT_EQ(c.size(), 2u);
  ASSERT_TRUE(c.get(id1).has_value());
  EXPECT_DOUBLE_EQ(c.get(id1)->get_double("spl"), 50.0);
}

TEST(Collection, InsertHonorsProvidedId) {
  Collection c("obs");
  Document d = obs("u1", 50, 1);
  d.as_object().set("_id", Value("my-id"));
  EXPECT_EQ(c.insert(std::move(d)), "my-id");
  EXPECT_TRUE(c.get("my-id").has_value());
}

// A live insert with an explicit id in the generator's form advances the
// generator past it, as replay does, so no generated id repeats it.
TEST(Collection, ExplicitIdAdvancesTheGenerator) {
  Collection c("obs");
  Document planted = obs("u1", 50, 1);
  planted.as_object().set("_id", Value("obs-3"));
  EXPECT_EQ(c.insert(planted), "obs-3");
  std::set<std::string> ids{"obs-3"};
  for (int i = 0; i < 3; ++i) ids.insert(c.insert(obs("u1", 51 + i, 2 + i)));
  EXPECT_EQ(ids.size(), 4u);
  EXPECT_EQ(c.size(), 4u);
  std::size_t docs = 0;
  c.for_each([&](const Document&) { ++docs; });
  EXPECT_EQ(docs, 4u);
}

TEST(Collection, DuplicateIdThrows) {
  Collection c("obs");
  Document d1 = obs("u1", 50, 1);
  d1.as_object().set("_id", Value("x"));
  c.insert(std::move(d1));
  Document d2 = obs("u2", 51, 2);
  d2.as_object().set("_id", Value("x"));
  EXPECT_THROW(c.insert(std::move(d2)), std::invalid_argument);
}

TEST(Collection, NonObjectInsertThrows) {
  Collection c("obs");
  EXPECT_THROW(c.insert(Value(5)), std::invalid_argument);
  EXPECT_THROW(c.insert(Value(Array{})), std::invalid_argument);
}

TEST(Collection, GetMissingReturnsNullopt) {
  Collection c("obs");
  EXPECT_FALSE(c.get("nope").has_value());
}

TEST(Collection, FindWithFilter) {
  Collection c("obs");
  c.insert(obs("u1", 50, 1, "gps"));
  c.insert(obs("u2", 60, 2, "network"));
  c.insert(obs("u1", 70, 3, "gps"));
  auto res = c.find(Query::eq("user", Value("u1")));
  EXPECT_EQ(res.size(), 2u);
  res = c.find(Query::eq("provider", Value("network")));
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].get_string("user"), "u2");
}

TEST(Collection, FindSortSkipLimit) {
  Collection c("obs");
  for (int i = 0; i < 10; ++i)
    c.insert(obs("u", 50.0 + i, 100 - i * 10));
  FindOptions opt;
  opt.sort_by = "time";
  opt.skip = 2;
  opt.limit = 3;
  auto res = c.find(Query::all(), opt);
  ASSERT_EQ(res.size(), 3u);
  EXPECT_EQ(res[0].get_int("time"), 30);
  EXPECT_EQ(res[1].get_int("time"), 40);
  EXPECT_EQ(res[2].get_int("time"), 50);
}

TEST(Collection, FindSortDescending) {
  Collection c("obs");
  c.insert(obs("a", 1, 5));
  c.insert(obs("b", 2, 15));
  c.insert(obs("c", 3, 10));
  FindOptions opt;
  opt.sort_by = "time";
  opt.descending = true;
  auto res = c.find(Query::all(), opt);
  ASSERT_EQ(res.size(), 3u);
  EXPECT_EQ(res[0].get_int("time"), 15);
  EXPECT_EQ(res[2].get_int("time"), 5);
}

TEST(Collection, SkipBeyondEnd) {
  Collection c("obs");
  c.insert(obs("a", 1, 1));
  FindOptions opt;
  opt.skip = 10;
  EXPECT_TRUE(c.find(Query::all(), opt).empty());
}

TEST(Collection, Projection) {
  Collection c("obs");
  c.insert(obs("u1", 50, 1));
  FindOptions opt;
  opt.projection = {"spl"};
  auto res = c.find(Query::all(), opt);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_TRUE(res[0].find("spl") != nullptr);
  EXPECT_TRUE(res[0].find("_id") != nullptr);
  EXPECT_EQ(res[0].find("user"), nullptr);
}

TEST(Collection, CountMatchesFind) {
  Collection c("obs");
  for (int i = 0; i < 20; ++i)
    c.insert(obs(i % 2 == 0 ? "even" : "odd", i, i));
  Query q = Query::eq("user", Value("even"));
  EXPECT_EQ(c.count(q), c.find(q).size());
  EXPECT_EQ(c.count(Query::all()), 20u);
}

TEST(Collection, ReplaceKeepsId) {
  Collection c("obs");
  std::string id = c.insert(obs("u1", 50, 1));
  EXPECT_TRUE(c.replace(id, obs("u1", 99, 1)));
  EXPECT_DOUBLE_EQ(c.get(id)->get_double("spl"), 99.0);
  EXPECT_EQ(c.get(id)->get_string("_id"), id);
  EXPECT_FALSE(c.replace("missing", obs("x", 1, 1)));
}

TEST(Collection, UpdateManyMutatesMatches) {
  Collection c("obs");
  for (int i = 0; i < 6; ++i) c.insert(obs(i < 3 ? "a" : "b", 50, i));
  std::size_t n = c.update_many(Query::eq("user", Value("a")),
                                [](Document& d) {
                                  d.as_object().set("calibrated", Value(true));
                                });
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(c.count(Query::eq("calibrated", Value(true))), 3u);
}

TEST(Collection, UpdateManyCannotChangeId) {
  Collection c("obs");
  std::string id = c.insert(obs("a", 50, 1));
  c.update_many(Query::all(), [](Document& d) {
    d.as_object().set("_id", Value("hijacked"));
  });
  EXPECT_TRUE(c.get(id).has_value());
  EXPECT_FALSE(c.get("hijacked").has_value());
}

TEST(Collection, RemoveAndRemoveMany) {
  Collection c("obs");
  std::string id = c.insert(obs("a", 50, 1));
  c.insert(obs("b", 51, 2));
  c.insert(obs("b", 52, 3));
  EXPECT_TRUE(c.remove(id));
  EXPECT_FALSE(c.remove(id));
  EXPECT_EQ(c.remove_many(Query::eq("user", Value("b"))), 2u);
  EXPECT_TRUE(c.empty());
}

TEST(Collection, RemovedDocsExcludedFromFind) {
  Collection c("obs");
  std::string id = c.insert(obs("a", 50, 1));
  c.insert(obs("a", 51, 2));
  c.remove(id);
  EXPECT_EQ(c.find(Query::eq("user", Value("a"))).size(), 1u);
}

TEST(Collection, IndexedFindEqualsScan) {
  Collection indexed("i"), plain("p");
  indexed.create_index("user");
  Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    const char* users[] = {"u1", "u2", "u3", "u4"};
    Document d = obs(users[rng.uniform_int(0, 3)],
                     rng.uniform(30, 90), rng.uniform_int(0, 1000));
    indexed.insert(d);
    plain.insert(d);
  }
  for (const char* u : {"u1", "u2", "u3", "u4", "u5"}) {
    Query q = Query::eq("user", Value(u));
    EXPECT_EQ(indexed.count(q), plain.count(q)) << u;
  }
  EXPECT_GT(indexed.stats().indexed_finds, 0u);
}

TEST(Collection, IndexedRangeQueries) {
  Collection c("obs");
  c.create_index("time");
  for (int i = 0; i < 100; ++i) c.insert(obs("u", 50, i));
  EXPECT_EQ(c.count(Query::range("time", Value(10), Value(20))), 10u);
  EXPECT_EQ(c.count(Query::lt("time", Value(5))), 5u);
  EXPECT_EQ(c.count(Query::gte("time", Value(95))), 5u);
  EXPECT_EQ(c.count(Query::lte("time", Value(0))), 1u);
  EXPECT_EQ(c.count(Query::gt("time", Value(99))), 0u);
}

TEST(Collection, IndexInsideAndClause) {
  Collection c("obs");
  c.create_index("user");
  for (int i = 0; i < 50; ++i)
    c.insert(obs(i % 2 ? "a" : "b", 50, i));
  Query q = Query::and_({Query::eq("user", Value("a")),
                         Query::lt("time", Value(10))});
  EXPECT_EQ(c.count(q), 5u);
  EXPECT_GT(c.stats().indexed_finds, 0u);
}

TEST(Collection, IndexCreatedAfterInsertsCoversExisting) {
  Collection c("obs");
  for (int i = 0; i < 20; ++i) c.insert(obs(i % 2 ? "a" : "b", 50, i));
  c.create_index("user");
  EXPECT_EQ(c.count(Query::eq("user", Value("a"))), 10u);
  EXPECT_TRUE(c.has_index("user"));
  EXPECT_FALSE(c.has_index("time"));
}

TEST(Collection, IndexMaintainedAcrossUpdateAndRemove) {
  Collection c("obs");
  c.create_index("user");
  std::string id = c.insert(obs("a", 50, 1));
  c.insert(obs("a", 51, 2));
  c.update_many(Query::eq("time", Value(1)), [](Document& d) {
    d.as_object().set("user", Value("z"));
  });
  EXPECT_EQ(c.count(Query::eq("user", Value("a"))), 1u);
  EXPECT_EQ(c.count(Query::eq("user", Value("z"))), 1u);
  c.remove(id);
  EXPECT_EQ(c.count(Query::eq("user", Value("z"))), 0u);
}

TEST(Collection, Distinct) {
  Collection c("obs");
  c.insert(obs("u1", 50, 1, "gps"));
  c.insert(obs("u2", 51, 2, "network"));
  c.insert(obs("u3", 52, 3, "gps"));
  auto vals = c.distinct("provider");
  ASSERT_EQ(vals.size(), 2u);
  EXPECT_EQ(vals[0].as_string(), "gps");
  EXPECT_EQ(vals[1].as_string(), "network");
}

TEST(Collection, GroupCount) {
  Collection c("obs");
  c.insert(obs("u1", 50, 1, "gps"));
  c.insert(obs("u2", 51, 2, "network"));
  c.insert(obs("u3", 52, 3, "network"));
  auto groups = c.group_count("provider");
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].first.as_string(), "gps");
  EXPECT_EQ(groups[0].second, 1u);
  EXPECT_EQ(groups[1].first.as_string(), "network");
  EXPECT_EQ(groups[1].second, 2u);
}

TEST(Collection, GroupCountWithFilter) {
  Collection c("obs");
  c.insert(obs("u1", 50, 1, "gps"));
  c.insert(obs("u1", 51, 200, "gps"));
  c.insert(obs("u2", 51, 2, "network"));
  auto groups = c.group_count("provider", Query::lt("time", Value(100)));
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].second, 1u);
}

TEST(Collection, GroupAggregate) {
  Collection c("obs");
  c.insert(obs("u1", 50, 1, "gps"));
  c.insert(obs("u1", 60, 2, "gps"));
  c.insert(obs("u2", 80, 3, "network"));
  auto groups = c.group_aggregate("provider", "spl");
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].key.as_string(), "gps");
  EXPECT_EQ(groups[0].count, 2u);
  EXPECT_DOUBLE_EQ(groups[0].sum, 110.0);
  EXPECT_DOUBLE_EQ(groups[0].mean, 55.0);
  EXPECT_DOUBLE_EQ(groups[0].min, 50.0);
  EXPECT_DOUBLE_EQ(groups[0].max, 60.0);
  EXPECT_EQ(groups[1].key.as_string(), "network");
  EXPECT_DOUBLE_EQ(groups[1].mean, 80.0);
}

TEST(Collection, GroupAggregateWithFilterAndMissingFields) {
  Collection c("obs");
  c.insert(obs("u1", 50, 1));
  c.insert(obs("u1", 70, 200));
  c.insert(Value(Object{{"user", Value("u1")}}));  // no spl: skipped
  auto groups = c.group_aggregate("user", "spl", Query::lt("time", Value(100)));
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].count, 1u);
  EXPECT_DOUBLE_EQ(groups[0].mean, 50.0);
}

TEST(Collection, GroupAggregateEmptyCollection) {
  Collection c("obs");
  EXPECT_TRUE(c.group_aggregate("user", "spl").empty());
}

TEST(Collection, ForEachVisitsAllLive) {
  Collection c("obs");
  std::string id = c.insert(obs("a", 1, 1));
  c.insert(obs("b", 2, 2));
  c.remove(id);
  int n = 0;
  c.for_each([&](const Document&) { ++n; });
  EXPECT_EQ(n, 1);
}

TEST(Collection, StatsTracking) {
  Collection c("obs");
  c.insert(obs("a", 1, 1));
  std::string id = c.insert(obs("b", 2, 2));
  c.remove(id);
  EXPECT_EQ(c.stats().total_inserts, 2u);
  EXPECT_EQ(c.stats().total_removes, 1u);
  EXPECT_EQ(c.stats().document_count, 1u);
  c.find(Query::eq("user", Value("a")));
  EXPECT_EQ(c.stats().scanned_finds, 1u);
}

/// Eight flat rows of client `k`: two users, every third row without a
/// location, the rest split between two providers.
std::shared_ptr<const ingest::ObsBatch> flat_rows(ingest::BatchPool& pool,
                                                  int k) {
  std::vector<phone::Observation> rows;
  for (int i = 0; i < 8; ++i) {
    phone::Observation o;
    o.user = "u" + std::to_string(i % 2);
    o.model = "m";
    o.captured_at = 100 * k + i;
    o.spl_db = 50.0 + i;
    if (i % 3 != 0)
      o.location = phone::LocationFix{i % 2 == 0
                                          ? phone::LocationProvider::kGps
                                          : phone::LocationProvider::kNetwork,
                                      1.0 * i, 2.0 * k, 10.0 + i};
    o.span_id = static_cast<std::uint64_t>(10 * k + i + 1);
    rows.push_back(std::move(o));
  }
  const std::string client = "c" + std::to_string(k);
  return pool.make_batch("app1", client, client + "#1", 0, rows);
}

// An index on a path that is not a batch column ("location") reads each
// lazy row's key from a temporary document: building it, and inserting
// rows after it, leaves every row lazy, and the index answers exactly as
// a scan does.
TEST(Collection, IndexOnANonColumnPathLeavesRowsLazy) {
  obs::Registry registry;
  ingest::BatchPool pool;
  Collection c("observations");
  c.set_metrics(&registry);
  ASSERT_EQ(c.insert_batch(flat_rows(pool, 0), 0, 8, 1000), 8u);
  ASSERT_EQ(c.insert_batch(flat_rows(pool, 1), 0, 8, 1100), 8u);
  c.create_index("location.provider");
  c.create_index("location");
  ASSERT_EQ(c.insert_batch(flat_rows(pool, 2), 2, 6, 1200), 6u);
  EXPECT_EQ(registry.gauge("docstore.lazy_rows").value(), 22.0);

  const Value located = c.get("observations-2")->at("location");
  Collection reference = scan_twin(c);
  for (const Query& q :
       {Query::eq("location.provider", Value("gps")),
        Query::eq("location", located), Query::exists("location"),
        Query::gte("location", located)}) {
    EXPECT_EQ(c.find(q), reference.find(q)) << q.to_string();
    EXPECT_EQ(c.count(q), reference.count(q)) << q.to_string();
  }
  FindOptions by_location;
  by_location.sort_by = "location";
  EXPECT_EQ(c.find(Query::all(), by_location),
            reference.find(Query::all(), by_location));
}

// Property test: indexed and unindexed execution agree on random queries.
class IndexEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IndexEquivalenceTest, RandomQueriesAgree) {
  Rng rng(GetParam());
  Collection indexed("i"), plain("p");
  indexed.create_index("k");
  indexed.create_index("n");
  for (int i = 0; i < 200; ++i) {
    Document d = Value(Object{
        {"k", Value(rng.uniform_int(0, 9))},
        {"n", Value(rng.uniform(0.0, 100.0))},
    });
    indexed.insert(d);
    plain.insert(d);
  }
  for (int trial = 0; trial < 50; ++trial) {
    double lo = rng.uniform(0, 100), hi = rng.uniform(0, 100);
    if (lo > hi) std::swap(lo, hi);
    Query q = Query::and_({Query::eq("k", Value(rng.uniform_int(0, 9))),
                           Query::range("n", Value(lo), Value(hi))});
    EXPECT_EQ(indexed.count(q), plain.count(q)) << q.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexEquivalenceTest,
                         ::testing::Values(1, 22, 333, 4444));

}  // namespace
}  // namespace mps::docstore
