// ObsBatch / BatchPool: SoA round trips, oracle byte-identity of the
// materialization methods, string interning, the memory a batch and a
// materialized document hold, and the batch codec (encode_batch /
// decode_batch) under hostile bytes.
#include "ingest/obs_batch.h"

#include <gtest/gtest.h>
#include <malloc.h>

#include <functional>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "phone/observation.h"

namespace mps::ingest {
namespace {

using phone::Activity;
using phone::LocationFix;
using phone::LocationProvider;
using phone::Observation;
using phone::SensingMode;

std::vector<Observation> sample_observations() {
  std::vector<Observation> obs;
  Observation a;
  a.user = "alice";
  a.model = "GT-I9300";
  a.captured_at = 1000;
  a.spl_db = 61.5;
  a.mode = SensingMode::kOpportunistic;
  a.activity = Activity::kStill;
  a.location = LocationFix{LocationProvider::kGps, 120.0, -40.5, 12.0};
  a.span_id = 7;
  obs.push_back(a);

  Observation b;
  b.user = "alice";  // same user: interned once
  b.model = "iPhone6,2";
  b.captured_at = 2000;
  b.spl_db = 55.0;
  b.mode = SensingMode::kJourney;
  b.activity = Activity::kFoot;
  // no location, no span
  obs.push_back(b);

  Observation c;
  c.user = "bob";
  c.model = "GT-I9300";  // same model as a: interned once
  c.captured_at = 3000;
  c.spl_db = 70.25;
  c.mode = SensingMode::kManual;
  c.activity = Activity::kVehicle;
  c.location = LocationFix{LocationProvider::kNetwork, -3.0, 8.0, 55.0};
  c.span_id = 9;
  obs.push_back(c);
  return obs;
}

/// Random observations for the fuzzier checks.
std::vector<Observation> random_observations(std::uint64_t seed,
                                             std::size_t n) {
  Rng rng(seed);
  const char* users[] = {"u1", "u2", "u3"};
  const char* models[] = {"m1", "m2"};
  std::vector<Observation> obs;
  for (std::size_t i = 0; i < n; ++i) {
    Observation o;
    o.user = users[rng.uniform_int(0, 2)];
    o.model = models[rng.uniform_int(0, 1)];
    o.captured_at = static_cast<TimeMs>(1000 * i + rng.uniform_int(0, 999));
    o.spl_db = rng.uniform(30.0, 90.0);
    o.mode = static_cast<SensingMode>(rng.uniform_int(0, 2));
    o.activity = static_cast<Activity>(rng.uniform_int(0, 6));
    if (rng.bernoulli(0.7)) {
      o.location = LocationFix{
          static_cast<LocationProvider>(rng.uniform_int(0, 2)),
          rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0),
          rng.uniform(1.0, 150.0)};
    }
    if (rng.bernoulli(0.8)) o.span_id = 100 + i;
    obs.push_back(std::move(o));
  }
  return obs;
}

/// The document the client's oracle path publishes for `obs`.
Value oracle_batch_document(const std::vector<Observation>& obs,
                            const std::string& app, const std::string& client,
                            const std::string& batch_id, TimeMs sent_at) {
  Array observations;
  observations.reserve(obs.size());
  for (const Observation& o : obs) observations.push_back(o.to_document());
  return Value(Object{{"app", Value(app)},
                      {"client", Value(client)},
                      {"batch_id", Value(batch_id)},
                      {"sent_at", Value(sent_at)},
                      {"observations", Value(std::move(observations))}});
}

TEST(ObsBatch, ColumnsRoundTripEveryField) {
  BatchPool pool;
  std::vector<Observation> obs = sample_observations();
  auto batch = pool.make_batch("soundcity", "c1", "c1#1", 5000, obs);
  ASSERT_EQ(batch->size(), obs.size());
  EXPECT_EQ(batch->app(), "soundcity");
  EXPECT_EQ(batch->client(), "c1");
  EXPECT_EQ(batch->batch_id(), "c1#1");
  EXPECT_EQ(batch->sent_at(), 5000);

  for (std::size_t i = 0; i < obs.size(); ++i) {
    EXPECT_EQ(batch->user(i), obs[i].user);
    EXPECT_EQ(batch->model(i), obs[i].model);
    EXPECT_EQ(batch->captured_at(i), obs[i].captured_at);
    EXPECT_EQ(batch->spl_db(i), obs[i].spl_db);
    EXPECT_EQ(batch->mode(i), obs[i].mode);
    EXPECT_EQ(batch->activity(i), obs[i].activity);
    EXPECT_EQ(batch->span_id(i), obs[i].span_id);
    ASSERT_EQ(batch->has_location(i), obs[i].location.has_value());
    if (obs[i].location.has_value()) {
      EXPECT_EQ(batch->provider(i), obs[i].location->provider);
      EXPECT_EQ(batch->x_m(i), obs[i].location->x_m);
      EXPECT_EQ(batch->y_m(i), obs[i].location->y_m);
      EXPECT_EQ(batch->accuracy_m(i), obs[i].location->accuracy_m);
    }
  }
}

TEST(ObsBatch, ObservationAtRehydratesExactly) {
  BatchPool pool;
  std::vector<Observation> obs = random_observations(11, 40);
  auto batch = pool.make_batch("app", "c", "c#1", 123, obs);
  for (std::size_t i = 0; i < obs.size(); ++i) {
    Observation back = batch->observation_at(i);
    EXPECT_EQ(back.to_document().to_json(), obs[i].to_document().to_json());
  }
}

TEST(ObsBatch, ToBatchDocumentMatchesOracleBytes) {
  BatchPool pool;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    std::vector<Observation> obs = random_observations(seed, 25);
    auto batch = pool.make_batch("soundcity", "c9", "c9#42", 777, obs);
    Value oracle =
        oracle_batch_document(obs, "soundcity", "c9", "c9#42", 777);
    EXPECT_EQ(batch->to_batch_document().to_json(), oracle.to_json());
  }
}

TEST(ObsBatch, StorageDocumentMatchesOracleBytes) {
  BatchPool pool;
  std::vector<Observation> obs = random_observations(5, 20);
  TimeMs received_at = 999999;
  auto batch = pool.make_batch("soundcity", "c2", "c2#7", 5, obs);
  for (std::size_t i = 0; i < obs.size(); ++i) {
    // The oracle: the server's document path takes the wire observation
    // document and appends app/client/received_at/delay_ms.
    Value doc = obs[i].to_document();
    doc.as_object().set("app", Value(std::string("soundcity")));
    doc.as_object().set("client", Value(std::string("c2")));
    doc.as_object().set("received_at", Value(received_at));
    doc.as_object().set("delay_ms", Value(received_at - obs[i].captured_at));
    EXPECT_EQ(batch->storage_document(i, received_at).to_json(),
              doc.to_json());
  }
}

TEST(ObsBatch, IndexValueAgreesWithDocumentPaths) {
  BatchPool pool;
  std::vector<Observation> obs = random_observations(21, 30);
  TimeMs received_at = 424242;
  auto batch = pool.make_batch("soundcity", "c3", "c3#1", 17, obs);
  const char* paths[] = {"user",        "model",
                         "captured_at", "spl",
                         "mode",        "activity",
                         "app",         "client",
                         "received_at", "delay_ms",
                         "span",        "location.provider",
                         "location.x",  "location.y",
                         "location.accuracy", "location"};
  for (std::size_t i = 0; i < obs.size(); ++i) {
    Value doc = batch->storage_document(i, received_at);
    for (const char* path : paths) {
      Value flat;
      ASSERT_TRUE(batch->index_value(path, i, received_at, flat))
          << path << " should be a flat column";
      const Value* via_doc = doc.find_path(path);
      if (via_doc == nullptr) {
        EXPECT_TRUE(flat.is_null()) << path << " row " << i;
      } else {
        ASSERT_FALSE(flat.is_null()) << path << " row " << i;
        EXPECT_EQ(Value::compare(flat, *via_doc), 0) << path << " row " << i;
      }
    }
    // Non-column paths must report false so callers fall back.
    Value out;
    EXPECT_FALSE(batch->index_value("_id", i, received_at, out));
    EXPECT_FALSE(batch->index_value("nope.nested", i, received_at, out));
  }
}

TEST(ObsBatch, InternsRepeatedUsersAndModels) {
  BatchPool pool;
  std::vector<Observation> obs = sample_observations();
  auto batch = pool.make_batch("a", "c", "c#1", 0, obs);
  // alice, GT-I9300, iPhone6,2, bob — 4 distinct strings across 6 refs.
  EXPECT_EQ(batch->string_count(), 4u);
  EXPECT_EQ(batch->model_index(0), batch->model_index(2));
}

TEST(ObsBatch, RowsWithoutALocationReadZeroLocationColumns) {
  BatchPool pool;
  // Release batches whose location columns are all non-zero, so the heap
  // the next batch is carved from holds stale non-zero bytes.
  std::vector<Observation> located = random_observations(31, 16);
  for (Observation& o : located)
    o.location = LocationFix{LocationProvider::kFused, 17.0, -23.0, 99.0};
  {
    std::vector<std::shared_ptr<const ObsBatch>> dirty;
    for (int k = 0; k < 64; ++k)
      dirty.push_back(pool.make_batch("a", "c", "c#0", 0, located));
  }

  std::vector<Observation> mixed = located;
  for (std::size_t i = 1; i < mixed.size(); i += 2) mixed[i].location.reset();
  auto batch = pool.make_batch("a", "c", "c#1", 0, mixed);
  auto twin = pool.make_batch("a", "c", "c#1", 0, mixed);
  ASSERT_EQ(batch->size(), mixed.size());
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    ASSERT_EQ(batch->has_location(i), i % 2 == 0) << i;
    if (!batch->has_location(i)) {
      EXPECT_EQ(static_cast<int>(batch->provider(i)), 0) << i;
      EXPECT_EQ(batch->x_m(i), 0.0) << i;
      EXPECT_EQ(batch->y_m(i), 0.0) << i;
      EXPECT_EQ(batch->accuracy_m(i), 0.0) << i;
    }
    // Same input, same columns — every byte an accessor reaches.
    EXPECT_EQ(batch->span_id(i), twin->span_id(i)) << i;
    EXPECT_EQ(batch->captured_at(i), twin->captured_at(i)) << i;
    EXPECT_EQ(batch->spl_db(i), twin->spl_db(i)) << i;
    EXPECT_EQ(batch->mode(i), twin->mode(i)) << i;
    EXPECT_EQ(batch->activity(i), twin->activity(i)) << i;
    EXPECT_EQ(batch->has_location(i), twin->has_location(i)) << i;
    EXPECT_EQ(batch->provider(i), twin->provider(i)) << i;
    EXPECT_EQ(batch->x_m(i), twin->x_m(i)) << i;
    EXPECT_EQ(batch->y_m(i), twin->y_m(i)) << i;
    EXPECT_EQ(batch->accuracy_m(i), twin->accuracy_m(i)) << i;
    EXPECT_EQ(batch->user(i), twin->user(i)) << i;
    EXPECT_EQ(batch->model(i), twin->model(i)) << i;
    EXPECT_EQ(batch->model_index(i), twin->model_index(i)) << i;
  }
  ASSERT_EQ(batch->string_count(), twin->string_count());
  for (std::size_t k = 0; k < batch->string_count(); ++k)
    EXPECT_EQ(batch->strings()[k], twin->strings()[k]) << k;

  // A batch of no rows is valid and keeps its header.
  auto none = pool.make_batch("a", "c", "c#2", 7, {});
  EXPECT_TRUE(none->empty());
  EXPECT_EQ(none->string_count(), 0u);
  EXPECT_EQ(none->batch_id(), "c#2");
  EXPECT_EQ(none->to_batch_document().to_json(),
            oracle_batch_document({}, "a", "c", "c#2", 7).to_json());
}

TEST(BatchPool, TwoLiveBatchesUseTwoArenas) {
  BatchPool pool;
  std::vector<Observation> obs = random_observations(4, 5);
  auto b1 = pool.make_batch("a", "c", "c#1", 0, obs);
  auto b2 = pool.make_batch("a", "c", "c#2", 0, obs);
  // One block per batch: ingest.arena_created counts batch blocks.
  EXPECT_EQ(pool.stats().blocks, 2u);
  EXPECT_NE(b1->batch_id().data(), b2->batch_id().data());
}

TEST(BatchPool, BatchOutlivesPool) {
  std::shared_ptr<const ObsBatch> batch;
  std::vector<Observation> obs = sample_observations();
  {
    BatchPool pool;
    batch = pool.make_batch("a", "c", "c#1", 0, obs);
  }
  // The pool died first: the batch owns its block and stays valid.
  EXPECT_EQ(batch->user(0), "alice");
  batch.reset();
}

std::size_t heap_in_use_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

TEST(BatchPool, HeldBatchesCostTheirOwnBytesAndReturnThem) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "ASan replaces the allocator mallinfo2 reports on";
#endif
  constexpr std::size_t kBatches = 256;
  constexpr std::size_t kBudget = 4096;  // bytes per held batch
  BatchPool pool;
  std::vector<Observation> obs = random_observations(12, 16);
  std::vector<std::shared_ptr<const ObsBatch>> held;
  held.reserve(kBatches);

  const std::size_t before = heap_in_use_bytes();
  for (std::size_t k = 0; k < kBatches; ++k)
    held.push_back(
        pool.make_batch("soundcity", "c1", "c1#" + std::to_string(k), 0, obs));
  const std::size_t holding = heap_in_use_bytes() - before;
  held.clear();
  const std::size_t after = heap_in_use_bytes();
  const std::size_t kept = after > before ? after - before : 0;

  EXPECT_LT(holding, kBatches * kBudget)
      << holding / kBatches << " B per held batch";
  EXPECT_LT(kept, kBatches * kBudget) << kept << " B kept after release";
}

// Documents are built at their final size: a materialized row, with the
// _id the docstore adds, and the same document decoded from its codec
// bytes each hold less heap than their own copy (which carries no spare
// capacity) plus one field — no object reserves room it never fills.
TEST(ObsBatch, DocumentsAreBuiltAtExactSize) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "ASan replaces the allocator mallinfo2 reports on";
#endif
  constexpr std::size_t kRows = 1024;
  BatchPool pool;
  auto batch = pool.make_batch("soundcity", "c1", "c1#1", 0,
                               random_observations(31, kRows));
  // The heap `build` leaves held per document.
  auto held_per_doc = [](const std::function<Value(std::size_t)>& build,
                         std::vector<Value>& docs) {
    docs.clear();
    docs.reserve(kRows);
    const std::size_t before = heap_in_use_bytes();
    for (std::size_t i = 0; i < kRows; ++i) docs.push_back(build(i));
    return (heap_in_use_bytes() - before) / kRows;
  };
  std::vector<Value> materialized, decoded, copies;
  const std::size_t materialized_bytes = held_per_doc(
      [&](std::size_t i) {
        Value doc = batch->storage_document(i, 900'000);
        doc.as_object().set("_id",
                            Value("observations-" + std::to_string(i + 1)));
        return doc;
      },
      materialized);
  std::vector<std::string> encoded(kRows);
  for (std::size_t i = 0; i < kRows; ++i)
    codec::encode_value(materialized[i], encoded[i]);
  const std::size_t decoded_bytes = held_per_doc(
      [&](std::size_t i) {
        Value doc;
        EXPECT_TRUE(codec::decode_value(encoded[i], doc));
        return doc;
      },
      decoded);
  const std::size_t copy_bytes = held_per_doc(
      [&](std::size_t i) { return Value(materialized[i]); }, copies);
  RecordProperty("materialized_bytes_per_doc",
                 static_cast<int>(materialized_bytes));
  RecordProperty("decoded_bytes_per_doc", static_cast<int>(decoded_bytes));
  EXPECT_LT(materialized_bytes, copy_bytes + sizeof(Object::Entry))
      << materialized_bytes << " B per materialized document, " << copy_bytes
      << " B per copy";
  EXPECT_LT(decoded_bytes, copy_bytes + sizeof(Object::Entry))
      << decoded_bytes << " B per decoded document, " << copy_bytes
      << " B per copy";
}

TEST(BatchPool, HighWaterAndMetricsMirrored) {
  obs::Registry registry;
  BatchPool pool;
  pool.set_metrics(&registry);
  std::vector<Observation> obs = random_observations(8, 50);
  { auto b = pool.make_batch("a", "c", "c#1", 0, obs); }
  { auto b = pool.make_batch("a", "c", "c#2", 0, obs); }
  EXPECT_GT(pool.stats().largest_block_bytes, 0u);
  EXPECT_TRUE(registry.has_counter("ingest.arena_created"));
  EXPECT_TRUE(registry.has_gauge("ingest.arena_high_water_bytes"));
  EXPECT_EQ(registry.counter("ingest.arena_created").value(), 2u);
  EXPECT_EQ(registry.gauge("ingest.arena_high_water_bytes").value(),
            static_cast<double>(pool.stats().largest_block_bytes));
}

TEST(ObsBatchCodec, RoundTripsEveryColumnAndCountsNoBlock) {
  BatchPool pool;
  std::vector<Observation> obs = random_observations(21, 40);
  auto batch = pool.make_batch("soundcity", "c4", "c4#2", 99, obs);
  std::string bytes;
  encode_batch(*batch, 0, batch->size(), bytes);
  auto decoded = decode_batch(bytes);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->batch_id(), "c4#2");
  EXPECT_EQ(decoded->sent_at(), 99);
  ASSERT_EQ(decoded->size(), batch->size());
  ASSERT_EQ(decoded->string_count(), batch->string_count());
  for (std::size_t i = 0; i < batch->size(); ++i) {
    EXPECT_EQ(decoded->storage_document(i, 500).to_json(),
              batch->storage_document(i, 500).to_json())
        << "row " << i;
    EXPECT_EQ(decoded->model_index(i), batch->model_index(i));
  }
  // Decoding builds a batch but counts no block: BatchPool counts only
  // the batches it makes.
  EXPECT_EQ(pool.stats().blocks, 1u);

  // A run of rows is its own batch under the same header.
  std::string run;
  encode_batch(*batch, 10, 5, run);
  auto tail = decode_batch(run);
  ASSERT_NE(tail, nullptr);
  ASSERT_EQ(tail->size(), 5u);
  EXPECT_EQ(tail->client(), "c4");
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(tail->storage_document(i, 500).to_json(),
              batch->storage_document(10 + i, 500).to_json());
}

// decode_batch reads the socket, the WAL, snapshots and broker records,
// so every truncation and every single-byte flip of an encoded batch is
// either rejected or decodes to a batch that re-encodes to exactly the
// bytes it was given.
TEST(ObsBatchCodec, EveryTruncationAndByteFlipIsRejectedOrRoundTrips) {
  BatchPool pool;
  std::vector<Observation> obs = random_observations(5, 16);
  auto batch = pool.make_batch("soundcity", "c1", "c1#16", 4242, obs);
  std::string bytes;
  encode_batch(*batch, 0, batch->size(), bytes);
  auto whole = decode_batch(bytes);
  ASSERT_NE(whole, nullptr);
  ASSERT_EQ(whole->size(), 16u);

  std::size_t accepted = 0;
  std::size_t rejected = 0;
  auto check = [&](const std::string& input) {
    auto decoded = decode_batch(input);
    if (decoded == nullptr) {
      ++rejected;
      return;
    }
    ++accepted;
    std::string again;
    encode_batch(*decoded, 0, decoded->size(), again);
    EXPECT_EQ(again, input);
  };
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    // The header fixes the row count, so no proper prefix holds it.
    EXPECT_EQ(decode_batch(std::string_view(bytes).substr(0, len)), nullptr)
        << "prefix of " << len << " bytes";
    check(bytes.substr(0, len));
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (unsigned mask : {0x01u, 0x02u, 0x04u, 0x08u, 0x10u, 0x20u, 0x40u,
                          0x80u, 0xFFu}) {
      std::string flipped = bytes;
      flipped[i] = static_cast<char>(static_cast<unsigned char>(flipped[i]) ^
                                     mask);
      check(flipped);
    }
  }
  // Both outcomes occur: a flipped double still decodes, a flipped enum
  // byte or string length does not.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, bytes.size());
}

}  // namespace
}  // namespace mps::ingest
