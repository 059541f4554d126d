#include "docstore/database.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace mps::docstore {
namespace {

TEST(Database, CreatesCollectionsOnDemand) {
  Database db;
  EXPECT_FALSE(db.has_collection("obs"));
  Collection& c = db.collection("obs");
  EXPECT_TRUE(db.has_collection("obs"));
  EXPECT_EQ(c.name(), "obs");
  // Same object on re-access.
  EXPECT_EQ(&db.collection("obs"), &c);
}

TEST(Database, FindCollection) {
  Database db;
  EXPECT_EQ(db.find_collection("x"), nullptr);
  db.collection("x");
  EXPECT_NE(db.find_collection("x"), nullptr);
}

TEST(Database, DropCollection) {
  Database db;
  db.collection("a").insert(Value(Object{{"v", Value(1)}}));
  EXPECT_TRUE(db.drop_collection("a"));
  EXPECT_FALSE(db.drop_collection("a"));
  EXPECT_FALSE(db.has_collection("a"));
}

TEST(Database, CollectionNamesSorted) {
  Database db;
  db.collection("zeta");
  db.collection("alpha");
  db.collection("mid");
  auto names = db.collection_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[2], "zeta");
}

TEST(Database, TotalDocuments) {
  Database db;
  db.collection("a").insert(Value(Object{{"v", Value(1)}}));
  db.collection("a").insert(Value(Object{{"v", Value(2)}}));
  db.collection("b").insert(Value(Object{{"v", Value(3)}}));
  EXPECT_EQ(db.total_documents(), 3u);
}

// docstore.documents is a view of the live collections' sizes, so no
// sequence of drops and re-attachments can make it drift from the store.
TEST(Database, DocumentsGaugeTracksDropsAndReattachment) {
  obs::Registry registry;
  Database db;
  db.set_metrics(&registry);
  db.collection("a").insert(Value(Object{{"v", Value(1)}}));
  db.collection("a").insert(Value(Object{{"v", Value(2)}}));
  db.collection("b").insert(Value(Object{{"v", Value(3)}}));
  auto gauge = [&] { return registry.gauge("docstore.documents").value(); };
  EXPECT_DOUBLE_EQ(gauge(), 3.0);

  ASSERT_TRUE(db.drop_collection("a"));
  EXPECT_EQ(db.total_documents(), 1u);
  EXPECT_DOUBLE_EQ(gauge(), 1.0);

  db.set_metrics(&registry);  // attaching again must not count twice
  EXPECT_DOUBLE_EQ(gauge(), 1.0);

  db.set_metrics(nullptr);  // a detached database leaves nothing behind
  EXPECT_DOUBLE_EQ(gauge(), 0.0);
  // Its counters keep what they counted while attached.
  EXPECT_EQ(registry.counter("docstore.inserts").value(), 3u);
}

}  // namespace
}  // namespace mps::docstore
