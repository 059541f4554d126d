#include "docstore/collection.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "docstore/database.h"
#include "durable/journal.h"
#include "durable/snapshot.h"
#include "durable/storage.h"
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
  EXPECT_GT(indexed.stats().plans_covered, 0u);
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
  EXPECT_GT(c.stats().plans_indexed, 0u);
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
  EXPECT_EQ(c.size(), 1u);
  c.find(Query::eq("user", Value("a")));
  EXPECT_EQ(c.stats().plans_scan, 1u);
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

// An index on a path that is not a batch column ("_id") reads each lazy
// row's key from a temporary document, and one on "location" from the
// column that builds the object: building them, and inserting rows after
// them, leaves every row lazy, and the indexes answer exactly as a scan
// does.
TEST(Collection, IndexOnANonColumnPathLeavesRowsLazy) {
  obs::Registry registry;
  ingest::BatchPool pool;
  Collection c("observations");
  c.set_metrics(&registry);
  ASSERT_EQ(c.insert_batch(flat_rows(pool, 0), 0, 8, 1000), 8u);
  ASSERT_EQ(c.insert_batch(flat_rows(pool, 1), 0, 8, 1100), 8u);
  c.create_index("location.provider");
  c.create_index("location");
  c.create_index("_id");
  ASSERT_EQ(c.insert_batch(flat_rows(pool, 2), 2, 6, 1200), 6u);
  EXPECT_EQ(registry.gauge("docstore.lazy_rows").value(), 22.0);

  const Value located = c.get("observations-2")->at("location");
  Collection reference = scan_twin(c);
  for (const Query& q :
       {Query::eq("location.provider", Value("gps")),
        Query::eq("location", located), Query::exists("location"),
        Query::gte("location", located),
        Query::lt("_id", Value("observations-2"))}) {
    EXPECT_EQ(c.find(q), reference.find(q)) << q.to_string();
    EXPECT_EQ(c.count(q), reference.count(q)) << q.to_string();
  }
  FindOptions by_location;
  by_location.sort_by = "location";
  EXPECT_EQ(c.find(Query::all(), by_location),
            reference.find(Query::all(), by_location));
}

/// A random flat batch of client `client`: rows with and without a fix,
/// span ids zero and not, and now and then a NaN spl.
std::shared_ptr<const ingest::ObsBatch> random_flat_batch(
    ingest::BatchPool& pool, Rng& rng, int client, int batch) {
  static const char* const kUsers[] = {"u0", "u1", "u2"};
  static const char* const kModels[] = {"SAMSUNG GT-I9505", "LGE NEXUS 5"};
  std::vector<phone::Observation> rows(
      static_cast<std::size_t>(rng.uniform_int(1, 12)));
  for (phone::Observation& o : rows) {
    o.user = kUsers[rng.uniform_int(0, 2)];
    o.model = kModels[rng.uniform_int(0, 1)];
    o.captured_at = rng.uniform_int(0, 50);
    o.spl_db = rng.bernoulli(0.1) ? std::nan("") : rng.uniform(30.0, 90.0);
    o.mode = static_cast<phone::SensingMode>(rng.uniform_int(0, 2));
    o.activity = static_cast<phone::Activity>(rng.uniform_int(0, 6));
    if (rng.bernoulli(0.6))
      o.location = phone::LocationFix{
          static_cast<phone::LocationProvider>(rng.uniform_int(0, 2)),
          static_cast<double>(rng.uniform_int(0, 3)),
          static_cast<double>(rng.uniform_int(0, 3)),
          static_cast<double>(rng.uniform_int(5, 8))};
    if (rng.bernoulli(0.5))
      o.span_id = static_cast<std::uint64_t>(rng.uniform_int(1, 4));
  }
  const std::string name = "c" + std::to_string(client);
  return pool.make_batch(rng.bernoulli(0.8) ? "app1" : "app2", name,
                         name + "#" + std::to_string(batch),
                         rng.uniform_int(0, 9), rows);
}

/// Every column path of a stored observation, the "location" column, a
/// non-column path every row has (_id) and paths no row has.
const std::vector<std::string>& observation_paths() {
  static const std::vector<std::string> paths = {
      "user",       "model",      "captured_at", "spl",
      "mode",       "activity",   "app",         "client",
      "received_at", "delay_ms",  "span",        "location.provider",
      "location.x", "location.y", "location.accuracy", "location",
      "_id",        "nope",       "location.nope"};
  return paths;
}

/// A value to compare `path` against: mostly one a stored row holds.
Value random_operand(Rng& rng, const std::vector<Document>& docs,
                     const std::string& path) {
  if (rng.bernoulli(0.8)) {
    const Document& doc = docs[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(docs.size()) - 1))];
    if (const Value* v = doc.find_path(path)) return *v;
  }
  static const Value kOthers[] = {Value(), Value(std::nan("")), Value(3),
                                  Value(6.0), Value("gps"), Value("u1")};
  return kOthers[rng.uniform_int(0, 5)];
}

/// A random filter of every QueryOp, and/or/not nested up to `depth`.
Query random_query(Rng& rng, const std::vector<Document>& docs, int depth) {
  const auto& paths = observation_paths();
  const std::string& path = paths[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(paths.size()) - 1))];
  auto children = [&] {
    std::vector<Query> out;
    for (auto k = rng.uniform_int(1, 3); k > 0; --k)
      out.push_back(random_query(rng, docs, depth - 1));
    return out;
  };
  switch (static_cast<QueryOp>(rng.uniform_int(0, depth > 0 ? 11 : 8))) {
    case QueryOp::kAll: return Query::all();
    case QueryOp::kEq: return Query::eq(path, random_operand(rng, docs, path));
    case QueryOp::kNe: return Query::ne(path, random_operand(rng, docs, path));
    case QueryOp::kLt: return Query::lt(path, random_operand(rng, docs, path));
    case QueryOp::kLte: return Query::lte(path, random_operand(rng, docs, path));
    case QueryOp::kGt: return Query::gt(path, random_operand(rng, docs, path));
    case QueryOp::kGte: return Query::gte(path, random_operand(rng, docs, path));
    case QueryOp::kIn:
      return Query::in(path, {random_operand(rng, docs, path),
                              random_operand(rng, docs, path)});
    case QueryOp::kExists: return Query::exists(path);
    case QueryOp::kAnd: return Query::and_(children());
    case QueryOp::kOr: return Query::or_(children());
    case QueryOp::kNot: return Query::not_(random_query(rng, docs, depth - 1));
  }
  return Query::all();
}

std::vector<std::string> as_json(const std::vector<Document>& docs) {
  std::vector<std::string> out;
  for (const Document& d : docs) out.push_back(d.to_json());
  return out;
}

// Property: a store of lazy rows, indexed on a random subset of column
// paths and "location" before and after its rows arrive, answers every
// read exactly as a scan over their documents does, and no read turns a
// row into a document.
TEST(Collection, LazyRowsAnswerEveryQueryLikeTheirDocuments) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    obs::Registry registry;
    ingest::BatchPool pool;
    Collection c("observations");
    c.set_metrics(&registry);
    const std::vector<std::string> indexable = {
        "app", "user", "model", "captured_at", "location.provider",
        "location"};
    auto create_some_indexes = [&] {
      for (const std::string& path : indexable)
        if (rng.bernoulli(0.3)) c.create_index(path);
    };
    create_some_indexes();
    std::size_t rows = 0;
    for (int b = 0; b < 14; ++b) {
      auto batch = random_flat_batch(pool, rng, b % 4, b);
      const auto first = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(batch->size()) - 1));
      rows += c.insert_batch(batch, first, batch->size() - first,
                             rng.uniform_int(10, 60));
      if (b == 7) create_some_indexes();
    }
    ASSERT_EQ(registry.gauge("docstore.lazy_rows").value(),
              static_cast<double>(rows));
    Collection twin = scan_twin(c);
    std::vector<Document> docs;
    twin.for_each([&docs](const Document& d) { docs.push_back(d); });
    ASSERT_EQ(docs.size(), rows);

    const auto& paths = observation_paths();
    auto random_path = [&] {
      return paths[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(paths.size()) - 1))];
    };
    for (int i = 0; i < 200; ++i) {
      const Query q = random_query(rng, docs, 3);
      SCOPED_TRACE(q.to_string());
      FindOptions options;
      if (rng.bernoulli(0.7)) options.sort_by = random_path();
      options.descending = rng.bernoulli(0.5);
      options.skip = static_cast<std::size_t>(rng.uniform_int(0, 4));
      options.limit = static_cast<std::size_t>(rng.uniform_int(0, 8));
      if (rng.bernoulli(0.3))
        options.projection = {"user", "location", "span", "nope"};
      EXPECT_EQ(as_json(c.find(q, options)), as_json(twin.find(q, options)))
          << "sort_by=" << options.sort_by;
      EXPECT_EQ(c.count(q), twin.count(q));
      const std::string& path = random_path();
      EXPECT_EQ(c.distinct(path, q), twin.distinct(path, q)) << path;
      EXPECT_EQ(c.group_count(path, q), twin.group_count(path, q)) << path;
      const std::string& value_path = random_path();
      const auto got = c.group_aggregate(path, value_path, q);
      const auto want = twin.group_aggregate(path, value_path, q);
      ASSERT_EQ(got.size(), want.size()) << path << " by " << value_path;
      for (std::size_t g = 0; g < got.size(); ++g) {
        EXPECT_EQ(got[g].key, want[g].key);
        EXPECT_EQ(got[g].count, want[g].count);
        // Value equality: NaN equals NaN.
        for (auto field : {&Collection::GroupAggregate::sum,
                           &Collection::GroupAggregate::mean,
                           &Collection::GroupAggregate::min,
                           &Collection::GroupAggregate::max})
          EXPECT_EQ(Value(got[g].*field), Value(want[g].*field));
      }
    }
    EXPECT_EQ(registry.gauge("docstore.lazy_rows").value(),
              static_cast<double>(rows));
  }
}

// No read writes a slot: with the server's four indexes, every read
// kind leaves every row lazy.
TEST(Collection, ReadsLeaveRowsLazy) {
  obs::Registry registry;
  ingest::BatchPool pool;
  Collection c("observations");
  c.set_metrics(&registry);
  for (const char* path : {"app", "user", "model", "captured_at"})
    c.create_index(path);
  for (int k = 0; k < 4; ++k)
    ASSERT_EQ(c.insert_batch(flat_rows(pool, k), 0, 8, 1000 + k), 8u);
  const obs::Gauge& lazy_rows = registry.gauge("docstore.lazy_rows");
  auto expect_lazy = [&](const char* read) {
    EXPECT_EQ(lazy_rows.value(), 32.0) << "after " << read;
  };
  expect_lazy("insert_batch");

  ASSERT_TRUE(c.get("observations-3").has_value());
  expect_lazy("get");
  const Query located = Query::eq("location.provider", Value("gps"));
  EXPECT_EQ(c.find(located).size(), 8u);
  expect_lazy("find");
  FindOptions sorted;
  sorted.sort_by = "captured_at";
  sorted.descending = true;
  EXPECT_EQ(c.find(Query::all(), sorted).size(), 32u);
  expect_lazy("find sorted on an indexed path");
  sorted.sort_by = "spl";
  EXPECT_EQ(c.find(located, sorted).size(), 8u);
  expect_lazy("find sorted on an unindexed path");
  FindOptions paged;
  paged.sort_by = "location.x";
  paged.skip = 3;
  paged.limit = 5;
  paged.projection = {"user", "location"};
  EXPECT_EQ(c.find(Query::exists("location"), paged).size(), 5u);
  expect_lazy("find paged and projected");
  EXPECT_EQ(c.count(Query::eq("user", Value("u1"))), 16u);
  expect_lazy("covered count");
  EXPECT_EQ(c.count(Query::and_({Query::eq("user", Value("u1")), located})),
            0u);
  expect_lazy("count");
  EXPECT_EQ(c.distinct("location.provider").size(), 2u);
  expect_lazy("distinct");
  EXPECT_EQ(c.group_count("client", located).size(), 4u);
  expect_lazy("group_count");
  EXPECT_EQ(c.group_aggregate("user", "spl").size(), 2u);
  expect_lazy("group_aggregate");
  std::size_t visited = 0;
  c.for_each([&visited](const Document&) { ++visited; });
  EXPECT_EQ(visited, 32u);
  expect_lazy("for_each");
  const Query none = Query::eq("_id", Value("observations-0"));
  EXPECT_EQ(c.update_many(none, [](Document& d) { d = Value(Object{}); }), 0u);
  expect_lazy("update_many");
  EXPECT_EQ(c.remove_many(none), 0u);
  expect_lazy("remove_many");
}

std::vector<std::string> stored_json(const Collection& c) {
  std::vector<std::string> out;
  c.for_each([&out](const Document& d) { out.push_back(d.to_json()); });
  return out;
}

/// Random reads of `c`, each against the same read of scan_twin(c):
/// filters of every QueryOp, sorted and limited finds, counts and group
/// counts.
void expect_reads_like_scan_twin(const Collection& c, Rng& rng) {
  const Collection twin = scan_twin(c);
  std::vector<Document> docs;
  twin.for_each([&docs](const Document& d) { docs.push_back(d); });
  const auto& paths = observation_paths();
  for (int i = 0; i < 60; ++i) {
    const Query q = random_query(rng, docs, 2);
    SCOPED_TRACE(q.to_string());
    FindOptions options;
    options.sort_by = paths[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(paths.size()) - 1))];
    options.descending = rng.bernoulli(0.5);
    options.limit = static_cast<std::size_t>(rng.uniform_int(0, 8));
    EXPECT_EQ(as_json(c.find(q, options)), as_json(twin.find(q, options)));
    EXPECT_EQ(c.count(q), twin.count(q));
    EXPECT_EQ(c.group_count(options.sort_by, q),
              twin.group_count(options.sort_by, q));
  }
}

/// A stored document of `client` (none when empty).
Document client_document(Rng& rng, const std::string& client) {
  Object doc{{"user", Value("u9")},
             {"captured_at", Value(rng.uniform_int(0, 50))},
             {"spl", Value(rng.uniform(30.0, 90.0))}};
  if (!client.empty()) doc.set("client", Value(client));
  return Value(std::move(doc));
}

// A rebalance's row move: extract_if hands out the snapshot's entries —
// each run of lazy rows as one [received_at, id, columns] entry, each
// document as itself — and apply_entry with fresh ids stores them on a
// collection that already holds rows. The moved rows stay lazy, read
// back as the source's documents under the target's next ids, both
// stores answer like their scan twins, and a snapshot of the target
// restores the same documents, still lazy.
TEST(Collection, ExtractIfMovesRowsInTheirStoredForm) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    ingest::BatchPool pool;
    obs::Registry source_registry;
    obs::Registry target_registry;
    Database source_db;
    Database target_db;
    source_db.set_metrics(&source_registry);
    target_db.set_metrics(&target_registry);
    Collection& source = source_db.collection("observations");
    Collection& target = target_db.collection("observations");
    for (Collection* c : {&source, &target})
      for (const char* path : {"app", "user", "model", "captured_at"})
        c->create_index(path);
    std::set<std::string> moved;
    const auto moving = rng.uniform_int(1, 3);
    while (static_cast<std::int64_t>(moved.size()) < moving)
      moved.insert("c" + std::to_string(rng.uniform_int(0, 3)));
    auto moves = [&moved](const Value* client) {
      return client != nullptr && client->is_string() &&
             moved.count(client->as_string()) > 0;
    };

    // What the test knows of each source slot (slot s holds the id
    // "observations-<s+1>"): the insert_batch call it came in (-1 for a
    // document), its client and whether it is live.
    struct SlotModel {
      int run = -1;
      std::string client;
      bool live = true;
    };
    std::vector<SlotModel> slots;
    for (int b = 0; b < 12; ++b) {
      const int client = b % 4;
      auto batch = random_flat_batch(pool, rng, client, b);
      const std::size_t n = source.insert_batch(batch, 0, batch->size(),
                                                rng.uniform_int(10, 60));
      slots.insert(slots.end(), n, SlotModel{b, "c" + std::to_string(client)});
      if (rng.bernoulli(0.4)) {
        const std::string owner =
            rng.bernoulli(0.2) ? "" : "c" + std::to_string(rng.uniform_int(0, 3));
        source.insert(client_document(rng, owner));
        slots.push_back(SlotModel{-1, owner});
      }
    }
    // The replaced and the removed row each split a run that moves.
    auto random_lazy_slot = [&] {
      for (;;) {
        const auto s = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(slots.size()) - 1));
        const Value client(slots[s].client);
        if (slots[s].live && slots[s].run >= 0 && moves(&client)) return s;
      }
    };
    const std::size_t replaced = random_lazy_slot();
    ASSERT_TRUE(source.replace("observations-" + std::to_string(replaced + 1),
                               client_document(rng, slots[replaced].client)));
    slots[replaced].run = -1;
    const std::size_t removed = random_lazy_slot();
    ASSERT_TRUE(source.remove("observations-" + std::to_string(removed + 1)));
    slots[removed].live = false;

    auto held = random_flat_batch(pool, rng, 4, 0);
    std::size_t target_ids = target.insert_batch(held, 0, held->size(), 5);
    target.insert(client_document(rng, "c4"));
    ++target_ids;

    // The entries the move must hand out, in slot order: 0 for a
    // document, a run's row count for a run.
    std::vector<std::size_t> want_entries;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      const SlotModel& m = slots[s];
      const Value client(m.client);
      if (!m.live || !moves(&client)) continue;
      if (m.run >= 0 && s > 0 && slots[s - 1].live &&
          slots[s - 1].run == m.run) {
        ++want_entries.back();
      } else {
        want_entries.push_back(m.run >= 0 ? 1 : 0);
      }
    }
    // The documents each side must read back afterwards.
    std::vector<std::string> want_source;
    std::vector<std::string> want_target = stored_json(target);
    source.for_each([&](const Document& d) {
      if (!moves(d.find("client"))) {
        want_source.push_back(d.to_json());
        return;
      }
      Document doc = d;
      doc.as_object().erase("_id");
      doc.as_object().set("_id",
                          Value("observations-" + std::to_string(++target_ids)));
      want_target.push_back(doc.to_json());
    });
    const double source_lazy =
        source_registry.gauge("docstore.lazy_rows").value();
    const double target_lazy =
        target_registry.gauge("docstore.lazy_rows").value();

    const Array entries = source.extract_if(
        "client", [&](const Value& client) { return moves(&client); });
    ASSERT_EQ(entries.size(), want_entries.size());
    double moved_lazy = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (want_entries[i] == 0) {
        EXPECT_TRUE(entries[i].is_object()) << "entry " << i;
        continue;
      }
      ASSERT_TRUE(entries[i].is_array()) << "entry " << i;
      ASSERT_EQ(entries[i].as_array().size(), 3u);
      auto run = ingest::decode_batch(entries[i].as_array()[2].as_string());
      ASSERT_NE(run, nullptr);
      EXPECT_EQ(run->size(), want_entries[i]) << "entry " << i;
      moved_lazy += static_cast<double>(want_entries[i]);
    }
    for (const Value& entry : entries)
      target.apply_entry(entry, /*fresh_ids=*/true);

    EXPECT_EQ(source_registry.gauge("docstore.lazy_rows").value(),
              source_lazy - moved_lazy);
    EXPECT_EQ(target_registry.gauge("docstore.lazy_rows").value(),
              target_lazy + moved_lazy);
    EXPECT_EQ(stored_json(source), want_source);
    EXPECT_EQ(stored_json(target), want_target);
    expect_reads_like_scan_twin(source, rng);
    expect_reads_like_scan_twin(target, rng);

    durable::MemStorageEnv env;
    durable::Journal journal(env);
    journal.write_snapshot(
        [&](durable::SnapshotWriter& writer) { target_db.encode_snapshot(writer); });
    target_db.crash();
    journal.recover(
        [&](durable::LoadedSnapshot& snap) {
          target_db.restore_snapshot(snap.state, snap.segments);
        },
        [&](const Value& record) { target_db.apply_journal_record(record); });
    EXPECT_EQ(stored_json(target), want_target);
    EXPECT_EQ(target_registry.gauge("docstore.lazy_rows").value(),
              target_lazy + moved_lazy);
  }
}

/// A key from a pool that stresses the posting rules: int64s that
/// collide as doubles (2^53 and 2^53 + 1), int/double pairs (3 and 3.0,
/// 2^53 and 2^53 as a double), NaN, both zeros, a string and null.
Value colliding_key(Rng& rng) {
  constexpr std::int64_t kTwo53 = std::int64_t{1} << 53;
  switch (rng.uniform_int(0, 10)) {
    case 0: return Value(kTwo53);
    case 1: return Value(kTwo53 + 1);
    case 2: return Value(static_cast<double>(kTwo53));
    case 3: return Value(3);
    case 4: return Value(3.0);
    case 5: return Value(std::nan(""));
    case 6: return Value(0.0);
    case 7: return Value(-0.0);
    case 8: return Value("k");
    case 9: return Value();
    default: return Value(rng.uniform_int(0, 50));
  }
}

/// A document row sharing the lazy rows' postings (user, app, model,
/// captured_at) with keys from colliding_key(), and now and then
/// lacking an indexed path.
Document colliding_document(Rng& rng) {
  static const char* const kUsers[] = {"u0", "u1", "u2", "u9"};
  Object doc;
  doc.set("user", Value(kUsers[rng.uniform_int(0, 3)]));
  if (rng.bernoulli(0.8)) doc.set("app", Value("app1"));
  if (rng.bernoulli(0.5)) doc.set("model", Value("LGE NEXUS 5"));
  if (rng.bernoulli(0.9)) doc.set("captured_at", colliding_key(rng));
  if (rng.bernoulli(0.9)) doc.set("k", colliding_key(rng));
  doc.set("client", Value("c" + std::to_string(rng.uniform_int(0, 3))));
  return Value(std::move(doc));
}

/// A filter over the indexed paths: eq, in, one or two bounds, and ANDs
/// of them, with operands that hit the colliding keys.
Query posting_query(Rng& rng) {
  static const char* const kPaths[] = {"k", "captured_at", "user", "app",
                                       "model"};
  const std::string path = kPaths[rng.uniform_int(0, 4)];
  auto operand = [&]() -> Value {
    if (path == "user") return Value("u" + std::to_string(rng.uniform_int(0, 3)));
    if (path == "app") return Value(rng.bernoulli(0.8) ? "app1" : "app2");
    if (path == "model") return Value("LGE NEXUS 5");
    return colliding_key(rng);
  };
  switch (rng.uniform_int(0, 6)) {
    case 0: return Query::eq(path, operand());
    case 1: return Query::in(path, {operand(), operand(), operand()});
    case 2: return Query::lt(path, operand());
    case 3: return Query::gte(path, operand());
    case 4: {
      Value lo = operand();  // draw order pinned: lo, then hi
      return Query::range(path, std::move(lo), operand());
    }
    case 5:
      return Query::and_({Query::eq("user", Value("u1")),
                          Query::gt("captured_at", colliding_key(rng)),
                          Query::lte("captured_at", colliding_key(rng))});
    default:
      return Query::and_({Query::eq("app", Value("app1")),
                          Query::in("k", {colliding_key(rng), colliding_key(rng)}),
                          Query::exists("user")});
  }
}

/// Every read kind over `c`, rendered as text: plain, sorted and paged
/// finds, counts, and distinct and group_count over every indexed path,
/// unfiltered (the covered paths) and filtered.
std::vector<std::string> posting_reads(const Collection& c,
                                       const std::vector<Query>& queries) {
  static const char* const kPaths[] = {"k", "captured_at", "user", "app",
                                       "model"};
  std::vector<std::string> out;
  auto add = [&out](const std::vector<Document>& docs) {
    for (const std::string& json : as_json(docs)) out.push_back(json);
    out.push_back("|");
  };
  for (const Query& q : queries) {
    add(c.find(q));
    for (const char* sort_by : kPaths) {
      for (bool descending : {false, true}) {
        FindOptions options;
        options.sort_by = sort_by;
        options.descending = descending;
        add(c.find(q, options));
        options.skip = 2;
        options.limit = 5;
        add(c.find(q, options));
      }
    }
    out.push_back(std::to_string(c.count(q)));
  }
  for (const char* path : kPaths) {
    for (const Query& q : {Query::all(), queries[0]}) {
      add(c.distinct(path, q));
      for (const auto& [key, n] : c.group_count(path, q))
        out.push_back(key.to_json() + ":" + std::to_string(n));
    }
  }
  return out;
}

// Property: postings answer like a scan through every write a store
// makes — flat batches and documents, replaces that move a row inside a
// long posting, single removes, purges, migrations and crash + restore —
// over keys that compare equal without being one key (int64s that
// collide as doubles, int/double pairs, NaN, both zeros). After every
// step each read kind equals the same read of the store's scan twin, and
// the indexes a restore rebuilds answer as the live-built ones did.
TEST(Collection, PostingsMatchScanThroughWrites) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    ingest::BatchPool pool;
    durable::MemStorageEnv env;
    durable::Journal journal(env);
    Database db;
    db.attach_journal(&journal);
    Collection& c = db.collection("observations");
    for (const char* path : {"app", "user", "model", "captured_at", "k"})
      c.create_index(path);
    auto random_id = [&]() -> std::optional<std::string> {
      std::vector<std::string> ids;
      c.for_each([&ids](const Document& d) { ids.push_back(d.get_string("_id")); });
      if (ids.empty()) return std::nullopt;
      return ids[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
    };
    auto recover = [&] {
      db.crash();
      journal.recover(
          [&](durable::LoadedSnapshot& snap) {
            db.restore_snapshot(snap.state, snap.segments);
          },
          [&](const Value& record) { db.apply_journal_record(record); });
    };
    auto snapshot = [&] {
      journal.write_snapshot(
          [&](durable::SnapshotWriter& writer) { db.encode_snapshot(writer); });
    };
    int batches = 0;
    for (int step = 0; step < 60; ++step) {
      const auto action = rng.uniform_int(0, 9);
      SCOPED_TRACE("step " + std::to_string(step) + " action " +
                   std::to_string(action));
      if (action <= 2 || c.size() < 20) {
        auto batch = random_flat_batch(pool, rng, batches % 4, batches);
        ++batches;
        c.insert_batch(batch, 0, batch->size(), rng.uniform_int(10, 60));
      } else if (action == 3) {
        for (auto n = rng.uniform_int(1, 4); n > 0; --n)
          c.insert(colliding_document(rng));
      } else if (action == 4) {
        // A row of u1's long posting moves to another spot of a long
        // posting: its own (kept user) or another user's.
        std::vector<std::string> u1;
        c.for_each([&u1](const Document& d) {
          if (d.get_string("user") == "u1") u1.push_back(d.get_string("_id"));
        });
        if (u1.empty()) continue;
        Document doc = colliding_document(rng);
        if (rng.bernoulli(0.5)) doc.as_object().set("user", Value("u1"));
        ASSERT_TRUE(c.replace(u1[u1.size() / 2], std::move(doc)));
      } else if (action == 5) {
        if (auto id = random_id()) {
          ASSERT_TRUE(c.remove(*id));
        }
      } else if (action == 6) {
        c.remove_many(Query::and_(
            {Query::eq("app", Value("app1")),
             Query::lt("captured_at", Value(rng.uniform_int(0, 30)))}));
      } else if (action == 7) {
        // A migration's source side, made durable by the snapshot right
        // after it (extract_if logs nothing).
        const std::string moving = "c" + std::to_string(rng.uniform_int(0, 3));
        c.extract_if("client", [&](const Value& client) {
          return client.is_string() && client.as_string() == moving;
        });
        snapshot();
      } else {
        std::vector<Query> queries;
        for (int i = 0; i < 6; ++i) queries.push_back(posting_query(rng));
        if (action == 8) snapshot();
        const std::vector<std::string> live_built = posting_reads(c, queries);
        recover();
        ASSERT_EQ(posting_reads(c, queries), live_built);
      }
      std::vector<Query> queries;
      for (int i = 0; i < 4; ++i) queries.push_back(posting_query(rng));
      const Collection twin = scan_twin(c);
      ASSERT_EQ(posting_reads(c, queries), posting_reads(twin, queries));
    }
    db.attach_journal(nullptr);
  }
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
