// ServerLifecycle end to end: the whole middleware host (broker +
// docstore + GoFlow server) crashing and recovering in place. Covers the
// server's durable snapshot/replay contract, the shape of the decoded
// snapshot payload against the live store, the bounded ingest-dedup
// regression, pending-batch resumption across a crash in both input forms
// (a document batch and a flat ObsBatch), drop attribution when there is
// nothing to recover with, and the recovery-equivalence property: a
// killed-and-recovered run ends with exactly the documents an
// uninterrupted run stores. Also the sealed-segment snapshot contract:
// a snapshot writes only what changed since the previous one, a change
// to a sealed entry rewrites its sequence, and snapshots into another
// env write everything. And the columnar journal: a flat batch costs
// three records whatever its rows, db.rows replays the same documents
// and ids, a flat batch buffered in the durable ingest queue survives a
// host restart flat, and undecodable batch columns are skipped.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"
#include "core/goflow_server.h"
#include "core/recovery.h"
#include "durable/snapshot.h"
#include "durable/storage.h"
#include "fault/fault.h"
#include "ingest/obs_batch.h"
#include "obs/span.h"

namespace mps::core {
namespace {

using mps::durable::MemStorageEnv;

struct Stack {
  ingest::BatchPool pool;
  sim::Simulation sim;
  broker::Broker broker;
  docstore::Database db;
  obs::Registry registry;
  obs::SpanTracker tracer{&registry};
  std::unique_ptr<GoFlowServer> server;
  std::string admin_token;

  explicit Stack(ServerConfig config = {}) {
    server = std::make_unique<GoFlowServer>(sim, broker, db, config);
    server->set_metrics(&registry);
    server->set_tracer(&tracer);
    admin_token = server->register_app("app1").value_or_throw().admin_token;
  }
};

/// An observation batch as the client publishes it. Each observation
/// carries a unique (client, seq) identity and, when `spans` is given, a
/// live span id from the tracker.
Value make_batch(const std::string& batch_id, const std::string& client,
                 int first_seq, int count, TimeMs captured_at,
                 obs::SpanTracker* tracer = nullptr,
                 std::vector<std::uint64_t>* spans = nullptr) {
  Array observations;
  for (int i = 0; i < count; ++i) {
    Object obs{{"seq", Value(first_seq + i)},
               {"captured_at", Value(captured_at)},
               {"spl", Value(55.0 + i)}};
    if (tracer != nullptr) {
      std::uint64_t span = tracer->begin(captured_at);
      obs.set("span", Value(static_cast<std::int64_t>(span)));
      if (spans != nullptr) spans->push_back(span);
    }
    observations.push_back(Value(std::move(obs)));
  }
  return Value(Object{{"batch_id", Value(batch_id)},
                      {"app", Value("app1")},
                      {"client", Value(client)},
                      {"observations", Value(std::move(observations))}});
}

/// The same traced observations as one flat ObsBatch, the form every
/// GoFlow client uploads in.
std::shared_ptr<const ingest::ObsBatch> make_flat_batch(
    ingest::BatchPool& pool, const std::string& batch_id,
    const std::string& client, int count, TimeMs captured_at, TimeMs sent_at,
    obs::SpanTracker& tracer, std::vector<std::uint64_t>* spans) {
  std::vector<phone::Observation> observations;
  for (int i = 0; i < count; ++i) {
    phone::Observation o;
    o.user = "u-" + client;
    o.model = "m";
    o.captured_at = captured_at;
    o.spl_db = 55.0 + i;
    if (i % 2 == 0)
      o.location = phone::LocationFix{phone::LocationProvider::kGps, 10.0 * i,
                                      20.0, 8.0};
    o.span_id = tracer.begin(captured_at);
    if (spans != nullptr) spans->push_back(o.span_id);
    observations.push_back(std::move(o));
  }
  return pool.make_batch("app1", client, batch_id, sent_at, observations);
}

/// The two forms a batch reaches the server in.
enum class Form { kDocument, kFlat };

const char* form_name(Form form) {
  return form == Form::kFlat ? "flat" : "document";
}

/// Publishes `count` traced observations of `client` as one batch in
/// `form`; their spans are appended to `spans`.
Result<broker::PublishResult> publish_traced(
    Stack& s, Form form, const std::string& batch_id,
    const std::string& client, int count, TimeMs captured_at, TimeMs now,
    std::vector<std::uint64_t>* spans) {
  if (form == Form::kDocument)
    return s.broker.publish(
        "goflow", "b",
        make_batch(batch_id, client, 0, count, captured_at, &s.tracer, spans),
        now);
  return s.broker.publish_flat(
      "goflow", "b",
      make_flat_batch(s.pool, batch_id, client, count, captured_at, now,
                      s.tracer, spans),
      now);
}

/// Stored observations by their (client, span) dedup identity.
std::multiset<std::string> stored_spans(docstore::Database& db) {
  std::multiset<std::string> keys;
  db.collection("observations").for_each([&](const Value& doc) {
    keys.insert(doc.get_string("client") + "#" +
                std::to_string(doc.get_int("span")));
  });
  return keys;
}

std::multiset<std::string> span_keys(const std::string& client,
                                     const std::vector<std::uint64_t>& spans) {
  std::multiset<std::string> keys;
  for (std::uint64_t span : spans)
    keys.insert(client + "#" + std::to_string(span));
  return keys;
}

/// The newest snapshot in `env`: its manifest's state tree and the
/// decoded segments it lists.
durable::LoadedSnapshot newest_snapshot(MemStorageEnv& env) {
  std::uint64_t skipped = 0;
  std::optional<durable::LoadedSnapshot> snap =
      durable::load_latest_snapshot(env, skipped);
  if (!snap.has_value() || skipped != 0) {
    ADD_FAILURE() << "no loadable snapshot (" << skipped << " skipped)";
    return {};
  }
  return std::move(*snap);
}

/// The entries of a sealed sequence: the segments `names` lists, in
/// order. A collection's run entry [received_at, first id, columns]
/// expands into its rows' documents, with `collection`'s _ids.
std::vector<Value> sequence_entries(durable::LoadedSnapshot& snap,
                                    const Value& names,
                                    const std::string& collection = "") {
  std::vector<Value> out;
  snap.segments.take(names, [&](Value&& v) -> std::size_t {
    if (!v.is_array()) {
      out.push_back(std::move(v));
      return 1;
    }
    const Array& run = v.as_array();
    auto batch = ingest::decode_batch(run.at(2).as_string());
    if (batch == nullptr) {
      ADD_FAILURE() << "run entry with undecodable columns";
      return 0;
    }
    for (std::size_t i = 0; i < batch->size(); ++i) {
      Value doc = batch->storage_document(i, run.at(0).as_int());
      doc.as_object().set(
          "_id", Value(collection + "-" +
                       std::to_string(run.at(1).as_int() +
                                      static_cast<std::int64_t>(i))));
      out.push_back(std::move(doc));
    }
    return batch->size();
  });
  return out;
}

std::multiset<std::string> stored_keys(docstore::Database& db) {
  std::multiset<std::string> keys;
  if (!db.has_collection("observations")) return keys;
  db.collection("observations").for_each([&](const Value& doc) {
    keys.insert(doc.get_string("client") + "#" +
                std::to_string(doc.get_int("seq", -1)));
  });
  return keys;
}

/// Every record the journal's WAL still holds, decoded, in LSN order.
std::vector<Value> wal_records(durable::Journal& journal) {
  std::vector<Value> out;
  journal.wal().replay(0, [&](std::uint64_t, std::string_view payload) {
    Value record;
    EXPECT_TRUE(codec::decode_value(payload, record));
    out.push_back(std::move(record));
  });
  return out;
}

/// The observations in slot order, each as its exact encoded bytes
/// (_id included).
std::vector<std::string> stored_bytes(docstore::Database& db) {
  std::vector<std::string> out;
  db.collection("observations").for_each([&](const Value& doc) {
    out.emplace_back();
    codec::encode_value(doc, out.back());
  });
  return out;
}

TEST(ServerRecovery, StateSurvivesCrashAndRecovery) {
  Stack s;
  MemStorageEnv env;
  ServerLifecycle lc(env, s.sim, s.broker, s.db, *s.server);

  std::string manager =
      s.server->register_account(s.admin_token, "app1", "ops", Role::kManager)
          .value_or_throw();
  s.broker.publish("goflow", "b", make_batch("b1", "dev1", 0, 3, 100), 200)
      .value_or_throw();
  ASSERT_EQ(s.server->total_observations(), 3u);

  lc.crash();
  EXPECT_TRUE(lc.down());
  EXPECT_TRUE(s.server->down());
  // A dead host: tokens gone, exchanges gone, queries see nothing.
  EXPECT_FALSE(s.server->token_role(s.admin_token).has_value());
  EXPECT_FALSE(
      s.broker.publish("goflow", "b", make_batch("b2", "dev1", 3, 1, 300), 310)
          .ok());
  EXPECT_EQ(s.db.collection("observations").size(), 0u);

  lc.recover();
  EXPECT_FALSE(lc.down());
  EXPECT_EQ(lc.recoveries(), 1u);
  EXPECT_TRUE(lc.last_recovery().snapshot_loaded);

  // Tokens, analytics, counters and documents are all back.
  EXPECT_EQ(s.server->token_role(s.admin_token), Role::kAdmin);
  EXPECT_EQ(s.server->token_role(manager), Role::kManager);
  EXPECT_EQ(s.server->total_observations(), 3u);
  EXPECT_EQ(s.db.collection("observations").size(), 3u);
  auto analytics = s.server->analytics("app1").value_or_throw();
  EXPECT_EQ(analytics.observations_stored, 3u);
  EXPECT_EQ(analytics.batches_ingested, 1u);

  // The recovered server ingests new traffic (topology rebuilt,
  // re-subscribed) and still dedups the pre-crash batch id.
  s.broker.publish("goflow", "b", make_batch("b2", "dev1", 3, 2, 400), 500)
      .value_or_throw();
  EXPECT_EQ(s.server->total_observations(), 5u);
  s.broker.publish("goflow", "b", make_batch("b1", "dev1", 0, 3, 100), 600)
      .value_or_throw();
  EXPECT_EQ(s.server->total_observations(), 5u);
  EXPECT_EQ(s.server->duplicate_batches(), 1u);

  // New registrations issue tokens that don't collide with replayed ones
  // (token counter catch-up).
  std::string fresh =
      s.server->register_account(s.admin_token, "app1", "ops2", Role::kClient)
          .value_or_throw();
  EXPECT_NE(fresh, manager);
  EXPECT_NE(fresh, s.admin_token);
}

TEST(ServerRecovery, PendingBatchResumesAfterCrash) {
  for (Form form : {Form::kDocument, Form::kFlat}) {
    SCOPED_TRACE(form_name(form));
    Stack s;
    MemStorageEnv env;
    ServerLifecycle lc(env, s.sim, s.broker, s.db, *s.server);

    fault::FaultPlan plan(7);
    plan.set_clock([&] { return s.sim.now(); });
    s.db.arm_faults(&plan);
    plan.fail_next(fault::FaultSite::kDocstoreInsert, 3);

    std::vector<std::uint64_t> spans;
    publish_traced(s, form, "b1", "dev1", 2, 100, 200, &spans)
        .value_or_throw();
    // First insert failed; the batch is parked awaiting a backoff retry.
    ASSERT_EQ(s.server->pending_ingest_batches(), 1u);
    ASSERT_EQ(s.server->total_observations(), 0u);
    EXPECT_EQ(s.server->pending_ingest_span_ids().size(), 2u);

    lc.crash();
    // With a journal the pending batch is recoverable: nothing attributed.
    for (std::uint64_t span : spans) {
      const obs::SpanRecord* rec = s.tracer.find(span);
      ASSERT_NE(rec, nullptr);
      EXPECT_EQ(rec->dropped, obs::DropStage::kNone);
    }

    lc.recover();
    // Recovery rebuilt the pending batch from its srv.batch record and
    // resumed store_batch; the remaining scripted faults burn off through
    // the epoch-guarded retry timers.
    s.sim.run_until(s.sim.now() + hours(1));
    EXPECT_EQ(s.server->pending_ingest_batches(), 0u);
    EXPECT_EQ(s.server->total_observations(), 2u);
    EXPECT_EQ(s.server->duplicate_observations(), 0u);
    EXPECT_EQ(stored_spans(s.db), span_keys("dev1", spans));
    for (std::uint64_t span : spans) {
      const obs::SpanRecord* rec = s.tracer.find(span);
      EXPECT_TRUE(rec->stamped(obs::Hop::kPersisted));
    }
    s.db.arm_faults(nullptr);
  }
}

// A snapshot taken while a flat batch waits out its backoff carries the
// batch as its columns, and recovery from that snapshot alone resumes and
// stores them.
TEST(ServerRecovery, SnapshotDuringFlatBackoffRestoresThePendingBatch) {
  Stack s;
  MemStorageEnv env;
  ServerLifecycle lc(env, s.sim, s.broker, s.db, *s.server);
  fault::FaultPlan plan(7);
  plan.set_clock([&] { return s.sim.now(); });
  s.db.arm_faults(&plan);
  plan.fail_next(fault::FaultSite::kDocstoreInsert, 1000);

  std::vector<std::uint64_t> spans;
  auto batch = make_flat_batch(s.pool, "b1", "dev1", 3, 100, 200, s.tracer,
                               &spans);
  s.broker.publish_flat("goflow", "b", batch, 200).value_or_throw();
  ASSERT_EQ(s.server->pending_ingest_batches(), 1u);
  EXPECT_GT(s.server->ingest_retries(), 0u);

  lc.snapshot();
  durable::LoadedSnapshot snap = newest_snapshot(env);
  const Array& pending = snap.state.at("srv").at("pending").as_array();
  ASSERT_EQ(pending.size(), 1u);
  auto columns = ingest::decode_batch(pending[0].at("b").as_string());
  ASSERT_NE(columns, nullptr);
  ASSERT_EQ(columns->size(), batch->size());
  for (std::size_t i = 0; i < columns->size(); ++i)
    EXPECT_EQ(columns->storage_document(i, 200),
              batch->storage_document(i, 200))
        << "row " << i;

  lc.crash();
  lc.recover();
  ASSERT_EQ(s.server->pending_ingest_batches(), 1u);
  EXPECT_EQ(s.server->total_observations(), 0u);

  s.db.arm_faults(nullptr);
  s.sim.run_until(s.sim.now() + hours(1));
  EXPECT_EQ(s.server->pending_ingest_batches(), 0u);
  EXPECT_EQ(s.server->total_observations(), 3u);
  EXPECT_EQ(stored_spans(s.db), span_keys("dev1", spans));
  auto analytics = s.server->analytics("app1").value_or_throw();
  EXPECT_EQ(analytics.observations_stored, 3u);
  EXPECT_EQ(analytics.observations_localized, 2u);
  EXPECT_EQ(analytics.batches_ingested, 1u);
}

// A flat batch redelivered after recovery is rejected on its batch id, a
// repackaged copy row by row on (client, span), and a second recovery
// replays both rejections: each is counted once and nothing is stored
// twice.
TEST(ServerRecovery, DuplicateFlatBatchAfterRecoveryIsCountedOnce) {
  Stack s;
  MemStorageEnv env;
  ServerLifecycle lc(env, s.sim, s.broker, s.db, *s.server);

  std::vector<std::uint64_t> spans;
  auto batch = make_flat_batch(s.pool, "b1", "dev1", 2, 100, 200, s.tracer,
                               &spans);
  s.broker.publish_flat("goflow", "b", batch, 200).value_or_throw();
  ASSERT_EQ(s.server->total_observations(), 2u);

  lc.crash();
  lc.recover();
  s.broker.publish_flat("goflow", "b", batch, 300).value_or_throw();
  EXPECT_EQ(s.server->duplicate_batches(), 1u);
  std::vector<phone::Observation> again;
  for (std::size_t i = 0; i < batch->size(); ++i)
    again.push_back(batch->observation_at(i));
  s.broker
      .publish_flat("goflow", "b",
                    s.pool.make_batch("app1", "dev1", "b2", 400, again), 400)
      .value_or_throw();
  EXPECT_EQ(s.server->duplicate_observations(), 2u);
  EXPECT_EQ(s.registry.counter("server.duplicate_batches").value(), 1u);
  EXPECT_EQ(s.registry.counter("server.duplicate_observations").value(), 2u);

  lc.crash();
  lc.recover();
  EXPECT_EQ(s.server->duplicate_batches(), 1u);
  EXPECT_EQ(s.server->duplicate_observations(), 2u);
  EXPECT_EQ(s.server->total_observations(), 2u);
  EXPECT_EQ(s.server->total_batches(), 2u);  // b1 stored, b2 all-duplicate
  EXPECT_EQ(stored_spans(s.db), span_keys("dev1", spans));
  EXPECT_EQ(s.registry.counter("server.duplicate_batches").value(), 1u);
}

// A clean flat batch is journaled as three records — srv.batch, one
// db.rows carrying its columns and one srv.prog for the stored run —
// whatever its row count.
TEST(ServerRecovery, FlatBatchCostsThreeRecordsWhateverItsRows) {
  Stack s;
  MemStorageEnv env;
  ServerLifecycle lc(env, s.sim, s.broker, s.db, *s.server);
  int batches = 0;
  std::size_t rows_stored = 0;
  for (int rows : {1, 16, 64}) {
    SCOPED_TRACE(rows);
    const std::size_t before = wal_records(*lc.journal()).size();
    const std::uint64_t appends = lc.journal()->wal().stats().appends;
    publish_traced(s, Form::kFlat, "b" + std::to_string(++batches), "dev1",
                   rows, 100, 200, nullptr)
        .value_or_throw();
    rows_stored += static_cast<std::size_t>(rows);
    EXPECT_EQ(lc.journal()->wal().stats().appends - appends, 3u);
    std::vector<Value> records = wal_records(*lc.journal());
    ASSERT_EQ(records.size(), before + 3);
    EXPECT_EQ(records[before].get_string("op"), "srv.batch");
    EXPECT_EQ(records[before + 1].get_string("op"), "db.rows");
    EXPECT_EQ(records[before + 2].get_string("op"), "srv.prog");
    EXPECT_EQ(records[before + 2].get_int("n"), rows);
    EXPECT_EQ(s.server->total_observations(), rows_stored);
    EXPECT_EQ(s.server->pending_ingest_batches(), 0u);
  }
}

// Replaying db.rows records (no snapshot in between) rebuilds the same
// documents with the same _ids in the same slots, and the id generator
// resumes after them.
TEST(ServerRecovery, RowsRecordReplaysTheSameDocumentsAndIds) {
  Stack s;
  MemStorageEnv env;
  ServerLifecycle lc(env, s.sim, s.broker, s.db, *s.server);
  std::size_t rows = 0;
  for (int b = 0; b < 4; ++b) {
    publish_traced(s, Form::kFlat, "b" + std::to_string(b),
                   "dev" + std::to_string(b % 2), 5 + b, 100 + b, 200 + b,
                   nullptr)
        .value_or_throw();
    rows += static_cast<std::size_t>(5 + b);
  }
  const std::vector<std::string> before = stored_bytes(s.db);
  ASSERT_EQ(before.size(), rows);

  lc.crash();
  lc.recover();
  EXPECT_EQ(lc.last_recovery().replayed, 4u * 3u);
  EXPECT_EQ(lc.last_recovery().skipped_bad, 0u);
  EXPECT_EQ(stored_bytes(s.db), before);
  for (std::size_t i = 1; i <= rows; ++i)
    EXPECT_TRUE(s.db.collection("observations")
                    .get("observations-" + std::to_string(i))
                    .has_value())
        << i;
  EXPECT_EQ(s.db.collection("observations").insert(Value(Object{})),
            "observations-" + std::to_string(rows + 1));
}

// A flat batch that buffers in the durable ingest queue (the server is
// down) is journaled as its columns, survives a restart of the whole
// host, pops flat, and is stored once, exactly as a twin server that
// never buffered stores it.
TEST(ServerRecovery, BufferedFlatBatchSurvivesABrokerRestart) {
  Stack s;
  MemStorageEnv env;
  ServerLifecycle lc(env, s.sim, s.broker, s.db, *s.server);
  std::vector<std::uint64_t> spans;
  auto batch = make_flat_batch(s.pool, "b1", "dev1", 6, 100, 200, s.tracer,
                               &spans);

  s.server->crash();  // the server alone: the broker buffers its queue
  s.broker.publish_flat("goflow", "b", batch, 200).value_or_throw();
  const std::string& queue = s.server->config().ingest_queue;
  ASSERT_EQ(s.broker.queue_depth(queue), 1u);
  std::vector<Value> records = wal_records(*lc.journal());
  ASSERT_FALSE(records.empty());
  const Value& enq = records.back();
  ASSERT_EQ(enq.get_string("op"), "brk.enq");
  EXPECT_EQ(enq.at("m").find("p"), nullptr);
  std::string columns;
  ingest::encode_batch(*batch, 0, batch->size(), columns);
  EXPECT_EQ(enq.at("m").get_string("b"), columns);

  lc.crash();
  lc.recover();
  EXPECT_EQ(s.broker.queue_depth(queue), 0u);
  EXPECT_EQ(s.server->total_observations(), batch->size());
  EXPECT_EQ(stored_spans(s.db), span_keys("dev1", spans));

  Stack twin;
  twin.broker.publish_flat("goflow", "b", batch, 200).value_or_throw();
  EXPECT_EQ(stored_bytes(s.db), stored_bytes(twin.db));

  // Stored once: a second restart replays the brk.deq, not the batch.
  lc.crash();
  lc.recover();
  EXPECT_EQ(s.server->total_observations(), batch->size());
  EXPECT_EQ(stored_bytes(s.db), stored_bytes(twin.db));
}

// srv.batch, db.rows and brk.enq records that frame with a valid CRC but
// carry truncated batch columns are each counted as skipped and change
// no state: no pending batch, no dedup key, no document, no id, no
// queued message.
TEST(ServerRecovery, UndecodableBatchColumnsAreSkipped) {
  Stack s;
  MemStorageEnv env;
  ServerLifecycle lc(env, s.sim, s.broker, s.db, *s.server);
  publish_traced(s, Form::kFlat, "b1", "dev1", 4, 100, 200, nullptr)
      .value_or_throw();
  std::string columns;
  auto batch = make_flat_batch(s.pool, "evil", "dev1", 4, 100, 300, s.tracer,
                               nullptr);
  ingest::encode_batch(*batch, 0, batch->size(), columns);
  const std::string truncated = columns.substr(0, columns.size() - 3);
  ASSERT_EQ(ingest::decode_batch(truncated), nullptr);
  const std::string& queue = s.server->config().ingest_queue;
  lc.journal()->append(Value(Object{{"op", Value("srv.batch")},
                                    {"id", Value(99)},
                                    {"bid", Value("evil")},
                                    {"c", Value("observations")},
                                    {"app", Value("app1")},
                                    {"at", Value(300)},
                                    {"next", Value(0)},
                                    {"b", Value(truncated)}}));
  lc.journal()->append(Value(Object{{"op", Value("db.rows")},
                                    {"c", Value("observations")},
                                    {"at", Value(300)},
                                    {"id", Value(500)},
                                    {"b", Value(truncated)}}));
  lc.journal()->append(Value(Object{
      {"op", Value("brk.enq")},
      {"q", Value(queue)},
      {"m", Value(Object{{"ex", Value("goflow")},
                         {"rk", Value("b")},
                         {"b", Value(truncated)},
                         {"seq", Value(1000)},
                         {"at", Value(300)}})}}));
  const std::vector<std::string> before = stored_bytes(s.db);

  lc.crash();
  lc.recover();
  EXPECT_EQ(lc.last_recovery().skipped_bad, 3u);
  EXPECT_EQ(stored_bytes(s.db), before);
  EXPECT_EQ(s.server->pending_ingest_batches(), 0u);
  EXPECT_FALSE(s.server->seen_batch_ids().contains("evil"));
  EXPECT_EQ(s.server->total_observations(), 4u);
  EXPECT_EQ(s.broker.queue_depth(queue), 0u);
  EXPECT_EQ(s.db.collection("observations").insert(Value(Object{})),
            "observations-5");
}

TEST(ServerRecovery, CrashWithoutJournalAttributesPendingAsLost) {
  Stack s;
  fault::FaultPlan plan(7);
  s.db.arm_faults(&plan);
  plan.fail_next(fault::FaultSite::kDocstoreInsert, 1000);

  std::vector<std::uint64_t> spans;
  s.broker.publish("goflow", "b",
                   make_batch("b1", "dev1", 0, 3, 100, &s.tracer, &spans), 200)
      .value_or_throw();
  ASSERT_EQ(s.server->pending_ingest_batches(), 1u);

  s.server->crash();  // no journal: the pending work is unrecoverable
  for (std::uint64_t span : spans) {
    const obs::SpanRecord* rec = s.tracer.find(span);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->dropped, obs::DropStage::kLostInServerCrash);
  }
  EXPECT_EQ(s.server->pending_ingest_batches(), 0u);
  s.db.arm_faults(nullptr);
}

TEST(ServerRecovery, ShutdownWithPendingBatchesAttributesEverySpan) {
  sim::Simulation sim;
  broker::Broker broker;
  docstore::Database db;
  obs::Registry registry;
  obs::SpanTracker tracer(&registry);
  fault::FaultPlan plan(7);
  db.arm_faults(&plan);

  std::vector<std::uint64_t> spans;
  {
    GoFlowServer server(sim, broker, db);
    server.set_tracer(&tracer);
    server.register_app("app1").value_or_throw();
    // Armed only now: registration itself inserts into the docstore.
    plan.fail_next(fault::FaultSite::kDocstoreInsert, 1000);
    broker.publish("goflow", "b",
                   make_batch("b1", "dev1", 0, 4, 100, &tracer, &spans), 200)
        .value_or_throw();
    ASSERT_EQ(server.pending_ingest_batches(), 1u);
  }  // destructor: final shutdown with work in flight

  ASSERT_EQ(spans.size(), 4u);
  for (std::uint64_t span : spans) {
    const obs::SpanRecord* rec = tracer.find(span);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->dropped, obs::DropStage::kLostInServerShutdown);
  }
  std::uint64_t shutdown_drops = 0;
  for (auto& [stage, n] : tracer.drop_counts())
    if (stage == obs::DropStage::kLostInServerShutdown) shutdown_drops = n;
  EXPECT_EQ(shutdown_drops, 4u);
  db.arm_faults(nullptr);
}

TEST(ServerRecovery, DedupSetsStayBoundedAndCountEvictions) {
  ServerConfig config;
  config.batch_dedup_capacity = 8;
  config.obs_dedup_capacity = 16;
  Stack s(config);

  // Observations carry spans: the obs-dedup identity is (client, span).
  for (int b = 0; b < 30; ++b)
    s.broker
        .publish("goflow", "b",
                 make_batch("batch-" + std::to_string(b), "dev1", b * 2, 2,
                            100 + b, &s.tracer),
                 200 + b)
        .value_or_throw();

  // Memory stays bounded however long the deployment runs.
  EXPECT_EQ(s.server->seen_batch_ids().size(), 8u);
  EXPECT_EQ(s.server->seen_obs_keys().size(), 16u);
  EXPECT_EQ(s.server->seen_batch_ids().capacity(), 8u);
  EXPECT_EQ(s.server->total_observations(), 60u);

  // Eviction accounting: both sets overflowed, the introspection sum and
  // the registry counter agree.
  std::uint64_t evictions = s.server->dedup_evictions();
  EXPECT_EQ(evictions, (30u - 8u) + (60u - 16u));
  EXPECT_EQ(s.registry.counter("server.dedup_evictions").value(), evictions);

  // Recent batch ids are still deduped...
  s.broker.publish("goflow", "b", make_batch("batch-29", "dev1", 58, 2, 129),
                   300)
      .value_or_throw();
  EXPECT_EQ(s.server->duplicate_batches(), 1u);
  EXPECT_EQ(s.server->total_observations(), 60u);
  // ...while an evicted id is accepted again (the documented tradeoff:
  // only *recent* redelivery is protected).
  s.broker.publish("goflow", "b", make_batch("batch-0", "dev1", 1000, 1, 400),
                   500)
      .value_or_throw();
  EXPECT_EQ(s.server->duplicate_batches(), 1u);
  EXPECT_EQ(s.server->total_observations(), 61u);
}

TEST(ServerRecovery, BoundedDedupSurvivesRecoveryInFifoOrder) {
  ServerConfig config;
  config.batch_dedup_capacity = 4;
  Stack s(config);
  MemStorageEnv env;
  ServerLifecycle lc(env, s.sim, s.broker, s.db, *s.server);

  for (int b = 0; b < 6; ++b)
    s.broker
        .publish("goflow", "b",
                 make_batch("batch-" + std::to_string(b), "dev1", b, 1,
                            100 + b),
                 200 + b)
        .value_or_throw();
  std::vector<std::string> before(s.server->seen_batch_ids().ordered().begin(),
                                  s.server->seen_batch_ids().ordered().end());

  lc.crash();
  lc.recover();

  std::vector<std::string> after(s.server->seen_batch_ids().ordered().begin(),
                                 s.server->seen_batch_ids().ordered().end());
  EXPECT_EQ(after, before);
  EXPECT_EQ(after.size(), 4u);  // capacity survived the round trip

  // Dedup behaviour is indistinguishable from an uninterrupted server:
  // recent ids rejected, the next eviction hits the oldest survivor.
  s.broker.publish("goflow", "b", make_batch("batch-5", "dev1", 50, 1, 150),
                   300)
      .value_or_throw();
  EXPECT_EQ(s.server->duplicate_batches(), 1u);
  s.broker.publish("goflow", "b", make_batch("batch-new", "dev1", 60, 1, 160),
                   310)
      .value_or_throw();
  EXPECT_FALSE(s.server->seen_batch_ids().contains("batch-2"));
  EXPECT_TRUE(s.server->seen_batch_ids().contains("batch-new"));
}

// The recovery-equivalence property (the PR's acceptance bar): the same
// workload driven against (a) an uninterrupted server and (b) a server
// killed and recovered at several points — with the client retrying
// publishes that failed into the dead host — must end with identical
// stored document sets and identical ingest accounting.
TEST(ServerRecovery, KilledRunStoresExactlyWhatUninterruptedRunStores) {
  constexpr int kBatches = 12;
  auto drive = [](Stack& s, ServerLifecycle* lc,
                  const std::set<int>& kill_before) {
    std::vector<Value> retry;
    for (int b = 0; b < kBatches; ++b) {
      if (lc != nullptr && kill_before.count(b) > 0) {
        lc->crash();
        // Store-and-forward: everything that bounced off the dead host
        // is retried once the host is back.
        lc->recover();
        std::vector<Value> queued = std::move(retry);
        retry.clear();
        for (Value& payload : queued)
          if (!s.broker.publish("goflow", "b", payload, 1000 + b).ok())
            retry.push_back(std::move(payload));
        if (lc->recoveries() == 2) lc->snapshot();  // exercise mid-run snapshot
      }
      Value payload = make_batch("batch-" + std::to_string(b),
                                 "dev" + std::to_string(b % 3), b * 10, 3,
                                 100 + b);
      if (!s.broker.publish("goflow", "b", payload, 1000 + b).ok())
        retry.push_back(std::move(payload));
    }
    for (Value& payload : retry)
      s.broker.publish("goflow", "b", payload, 5000).value_or_throw();
  };

  Stack uninterrupted;
  drive(uninterrupted, nullptr, {});

  Stack killed;
  MemStorageEnv env;
  ServerLifecycle lc(env, killed.sim, killed.broker, killed.db,
                     *killed.server);
  // Crash-before-publish points: the publishes at these indices hit a
  // dead host and go through the retry path.
  drive(killed, &lc, {3, 6, 9});
  EXPECT_EQ(lc.crashes(), 3u);
  EXPECT_EQ(lc.recoveries(), 3u);

  EXPECT_EQ(stored_keys(killed.db), stored_keys(uninterrupted.db));
  EXPECT_EQ(killed.server->total_observations(),
            uninterrupted.server->total_observations());
  EXPECT_EQ(killed.server->total_batches(),
            uninterrupted.server->total_batches());
  EXPECT_EQ(killed.server->duplicate_observations(), 0u);
  auto killed_analytics = killed.server->analytics("app1").value_or_throw();
  auto clean_analytics =
      uninterrupted.server->analytics("app1").value_or_throw();
  EXPECT_EQ(killed_analytics.observations_stored,
            clean_analytics.observations_stored);
  EXPECT_EQ(killed_analytics.batches_ingested,
            clean_analytics.batches_ingested);
}

/// Every collection's documents in insertion order, by collection name.
std::map<std::string, std::vector<Value>> all_docs(docstore::Database& db) {
  std::map<std::string, std::vector<Value>> out;
  for (const std::string& name : db.collection_names()) {
    std::vector<Value>& docs = out[name];
    db.collection(name).for_each(
        [&](const Value& doc) { docs.push_back(doc); });
  }
  return out;
}

// The snapshot payload is the codec encoding of the {db, brk, srv} tree
// restore_snapshot reads; the docstore section is streamed straight from
// the stored documents. Pins that section against the store, and the
// crash/recover round trip of every state kind a snapshot carries.
TEST(ServerRecovery, SnapshotPayloadMatchesStoreAndRoundTrips) {
  Stack s;
  MemStorageEnv env;
  ServerLifecycle lc(env, s.sim, s.broker, s.db, *s.server);

  // Documents in two collections: accounts and observations, the
  // observations as documents and as one flat batch's lazy rows.
  s.server->register_account(s.admin_token, "app1", "ops", Role::kManager)
      .value_or_throw();
  s.broker.publish("goflow", "b", make_batch("b1", "dev1", 0, 3, 100), 200)
      .value_or_throw();
  publish_traced(s, Form::kFlat, "f1", "dev3", 4, 150, 220, nullptr)
      .value_or_throw();
  // A buffered durable-queue message (no consumer).
  broker::QueueOptions durable_q;
  durable_q.durable = true;
  s.broker.declare_exchange("audit", broker::ExchangeType::kDirect)
      .throw_if_error();
  s.broker.declare_queue("audit.q", durable_q).throw_if_error();
  s.broker.bind_queue("audit", "audit.q", "k").throw_if_error();
  s.broker.publish("audit", "k", Value(Object{{"n", Value(1)}}), 250)
      .value_or_throw();
  // A pending ingest batch: its inserts fail until the plan is disarmed.
  fault::FaultPlan plan(7);
  plan.set_clock([&] { return s.sim.now(); });
  s.db.arm_faults(&plan);
  plan.fail_next(fault::FaultSite::kDocstoreInsert, 1000);
  s.broker.publish("goflow", "b", make_batch("b2", "dev2", 0, 2, 300), 400)
      .value_or_throw();
  ASSERT_EQ(s.server->pending_ingest_batches(), 1u);
  ASSERT_EQ(s.broker.queue_depth("audit.q"), 1u);

  lc.snapshot();
  durable::LoadedSnapshot snap = newest_snapshot(env);

  const std::map<std::string, std::vector<Value>> before = all_docs(s.db);
  ASSERT_EQ(before.at("accounts").size(), 2u);
  ASSERT_EQ(before.at("observations").size(), 7u);
  const Array& collections = snap.state.at("db").at("collections").as_array();
  ASSERT_EQ(collections.size(), before.size());
  for (const Value& c : collections) {
    const std::string name = c.get_string("name");
    ASSERT_EQ(before.count(name), 1u) << name;
    EXPECT_EQ(sequence_entries(snap, c.at("docs"), name), before.at(name))
        << name;
  }
  const Value& srv = snap.state.at("srv");
  EXPECT_EQ(srv.at("pending").as_array().size(), 1u);
  // The dedup sets, in eviction order, as the server holds them. b2's
  // batch id is in (accepted, pending), its observations not yet.
  std::vector<Value> batch_ids;
  for (const std::string& k : s.server->seen_batch_ids().ordered())
    batch_ids.push_back(Value(k));
  EXPECT_EQ(sequence_entries(snap, srv.at("seen_batches")), batch_ids);
  EXPECT_EQ(sequence_entries(snap, srv.at("seen_obs")).size(),
            s.server->seen_obs_keys().size());
  // Every segment the manifest lists was taken by exactly one sequence.
  EXPECT_TRUE(snap.segments.arrays.empty());

  lc.crash();
  lc.recover();
  EXPECT_EQ(all_docs(s.db), before);
  ASSERT_EQ(s.broker.queue_depth("audit.q"), 1u);
  std::optional<broker::Message> m = s.broker.pop("audit.q");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload.get_int("n"), 1);
  EXPECT_TRUE(m->redelivered);
  ASSERT_EQ(s.server->pending_ingest_batches(), 1u);

  // The restored batch resumes once inserts succeed again.
  s.db.arm_faults(nullptr);
  s.sim.run_until(s.sim.now() + hours(1));
  EXPECT_EQ(s.server->pending_ingest_batches(), 0u);
  EXPECT_EQ(stored_keys(s.db),
            (std::multiset<std::string>{"dev1#0", "dev1#1", "dev1#2",
                                        "dev2#0", "dev2#1", "dev3#-1",
                                        "dev3#-1", "dev3#-1", "dev3#-1"}));
}

/// Every file in `env` with its bytes.
std::map<std::string, std::string> files_of(const MemStorageEnv& env) {
  std::map<std::string, std::string> out;
  for (const std::string& name : env.list()) out[name] = env.read(name);
  return out;
}

/// Bytes of the files in `env` that are not in `before` or differ from
/// it: what the step between the two listings created or replaced.
std::size_t changed_bytes(const MemStorageEnv& env,
                          const std::map<std::string, std::string>& before) {
  std::size_t total = 0;
  for (const auto& [name, bytes] : files_of(env)) {
    auto it = before.find(name);
    if (it == before.end() || it->second != bytes) total += bytes.size();
  }
  return total;
}

/// Publishes `count` traced observations in batches of ten, one new batch
/// id and a rotating client each.
void store_observations(Stack& s, int count, int& batch) {
  for (int done = 0; done < count; done += 10, ++batch)
    s.broker
        .publish("goflow", "b",
                 make_batch("batch-" + std::to_string(batch),
                            "dev" + std::to_string(batch % 7), done, 10,
                            100 + batch, &s.tracer),
                 200 + batch)
        .value_or_throw();
}

// A snapshot seals only the entries appended since the previous one
// (documents and both dedup sets) and lists the earlier segments by
// name, so its bytes track the change, not the store.
TEST(ServerRecovery, SnapshotWritesOnlyWhatChangedSinceThePrevious) {
  constexpr int kMore = 20;
  auto second_snapshot_bytes = [](int n) {
    Stack s;
    MemStorageEnv env;
    ServerLifecycle lc(env, s.sim, s.broker, s.db, *s.server);
    int batch = 0;
    store_observations(s, n, batch);
    lc.snapshot();
    store_observations(s, kMore, batch);
    const std::map<std::string, std::string> before = files_of(env);
    lc.snapshot();
    EXPECT_EQ(s.db.collection("observations").size(),
              static_cast<std::size_t>(n + kMore));
    return changed_bytes(env, before);
  };
  const std::size_t small = second_snapshot_bytes(100);
  const std::size_t large = second_snapshot_bytes(1000);
  EXPECT_GT(small, 0u);
  // Only digits grow with n (longer _ids and keys): well inside 10%.
  EXPECT_LE(large, small + small / 10) << "n=100: " << small
                                       << " B, n=1000: " << large << " B";
}

/// The segment names the newest snapshot lists for a collection's
/// documents.
std::vector<std::string> document_segments(MemStorageEnv& env,
                                           const std::string& collection) {
  durable::LoadedSnapshot snap = newest_snapshot(env);
  std::vector<std::string> out;
  for (const Value& c : snap.state.at("db").at("collections").as_array())
    if (c.get_string("name") == collection)
      for (const Value& name : c.at("docs").as_array())
        out.push_back(name.as_string());
  return out;
}

TEST(ServerRecovery, RemovedSealedRowsRewriteTheCollection) {
  Stack s;
  MemStorageEnv env;
  ServerLifecycle lc(env, s.sim, s.broker, s.db, *s.server);
  // Three snapshots, each sealing one client's batch into a segment.
  for (int b = 0; b < 3; ++b) {
    s.broker
        .publish("goflow", "b",
                 make_batch("batch-" + std::to_string(b),
                            "dev" + std::to_string(b), 0, 5, 100 + b),
                 200 + b)
        .value_or_throw();
    lc.snapshot();
  }
  const std::vector<std::string> sealed =
      document_segments(env, "observations");
  ASSERT_EQ(sealed.size(), 3u);

  // A purge of rows sealed two snapshots ago.
  EXPECT_EQ(s.db.collection("observations")
                .remove_many(docstore::Query::eq("client", Value("dev1"))),
            5u);
  lc.snapshot();
  const std::vector<std::string> rewritten =
      document_segments(env, "observations");
  ASSERT_EQ(rewritten.size(), 1u);
  for (const std::string& name : sealed) EXPECT_FALSE(env.exists(name)) << name;

  const std::map<std::string, std::vector<Value>> live = all_docs(s.db);
  EXPECT_EQ(live.at("observations").size(), 10u);
  lc.crash();
  lc.recover();
  EXPECT_EQ(all_docs(s.db), live);
}

/// The entries of each segment the newest snapshot lists for the
/// observations, in order.
std::vector<Array> observation_segments(MemStorageEnv& env) {
  durable::LoadedSnapshot snap = newest_snapshot(env);
  std::vector<Array> out;
  for (const std::string& name : document_segments(env, "observations"))
    out.push_back(snap.segments.arrays.at(name));
  return out;
}

/// The rows a run entry [received_at, first id, columns] holds.
std::size_t run_rows(const Value& entry) {
  auto batch = ingest::decode_batch(entry.as_array().at(2).as_string());
  return batch == nullptr ? 0 : batch->size();
}

// Flat rows seal as column runs, one run entry per batch and no
// document, and come back from them lazy: recovery builds no document,
// yet every document and _id equals the pre-crash one in slot order. The
// snapshot closing a recovery seals nothing new, so the next snapshot
// writes only the rows stored after it, and ids resume past them.
TEST(ServerRecovery, FlatRowsSealAsColumnRunsAndRestoreLazy) {
  Stack s;
  s.db.set_metrics(&s.registry);
  MemStorageEnv env;
  ServerLifecycle lc(env, s.sim, s.broker, s.db, *s.server);
  const obs::Gauge& lazy_gauge = s.registry.gauge("docstore.lazy_rows");
  auto lazy_rows = [&] { return static_cast<std::size_t>(lazy_gauge.value()); };
  int batch = 0;
  std::size_t rows = 0;
  auto store = [&](int batches) {
    for (int b = 0; b < batches; ++b, ++batch) {
      const int n = 3 + batch % 4;
      publish_traced(s, Form::kFlat, "f" + std::to_string(batch),
                     "dev" + std::to_string(batch % 3), n, 100 + batch,
                     200 + batch, nullptr)
          .value_or_throw();
      rows += static_cast<std::size_t>(n);
    }
  };
  // Each new segment holds one run per batch, ids counting on from
  // `first_id`, and nothing else.
  auto expect_runs = [](const Array& entries, int batches,
                        std::size_t first_id) {
    ASSERT_EQ(entries.size(), static_cast<std::size_t>(batches));
    std::size_t id = first_id;
    for (const Value& entry : entries) {
      ASSERT_TRUE(entry.is_array()) << entry.to_json();
      EXPECT_EQ(entry.as_array().at(1).as_int(), static_cast<std::int64_t>(id));
      EXPECT_GT(run_rows(entry), 0u);
      id += run_rows(entry);
    }
  };

  store(5);
  const std::size_t first_rows = rows;
  lc.snapshot();
  std::vector<Array> segments = observation_segments(env);
  ASSERT_EQ(segments.size(), 1u);
  expect_runs(segments[0], 5, 1);
  std::vector<std::string> before = stored_bytes(s.db);
  ASSERT_EQ(before.size(), rows);

  EXPECT_EQ(lazy_rows(), rows);  // reading the documents kept none

  lc.crash();
  lc.recover();
  EXPECT_EQ(lc.last_recovery().replayed, 0u);
  EXPECT_EQ(lazy_rows(), rows);  // restore built no document
  EXPECT_EQ(stored_bytes(s.db), before);
  EXPECT_EQ(lazy_rows(), rows);
  EXPECT_EQ(observation_segments(env).size(), 1u);

  store(4);
  lc.snapshot();
  segments = observation_segments(env);
  ASSERT_EQ(segments.size(), 2u);
  expect_runs(segments[1], 4, first_rows + 1);
  std::size_t sealed_rows = 0;
  for (const Value& entry : segments[1]) sealed_rows += run_rows(entry);
  EXPECT_EQ(sealed_rows, rows - first_rows);
  before = stored_bytes(s.db);
  EXPECT_EQ(lazy_rows(), rows);

  lc.crash();
  lc.recover();
  EXPECT_EQ(lazy_rows(), rows);
  EXPECT_EQ(stored_bytes(s.db), before);
  EXPECT_EQ(lazy_rows(), rows);
  EXPECT_EQ(s.db.collection("observations").insert(Value(Object{})),
            "observations-" + std::to_string(rows + 1));
}

// A read leaves a run whole: after a get, the batch's 7 rows are still
// lazy and seal as one run. A replaced row then seals as a document
// between the runs of its batch's other rows, and all of it restores
// identically: the runs lazy, the document not.
TEST(ServerRecovery, PartlyReplacedRunSealsAsRunsAroundADocument) {
  Stack s;
  s.db.set_metrics(&s.registry);
  MemStorageEnv env;
  ServerLifecycle lc(env, s.sim, s.broker, s.db, *s.server);
  const obs::Gauge& lazy_rows = s.registry.gauge("docstore.lazy_rows");
  publish_traced(s, Form::kFlat, "f1", "dev1", 7, 100, 200, nullptr)
      .value_or_throw();
  docstore::Collection& observations = s.db.collection("observations");
  const std::optional<Value> fourth = observations.get("observations-4");
  ASSERT_TRUE(fourth.has_value());
  EXPECT_EQ(lazy_rows.value(), 7.0);

  lc.snapshot();
  std::vector<Array> segments = observation_segments(env);
  ASSERT_EQ(segments.size(), 1u);
  ASSERT_EQ(segments[0].size(), 1u);
  ASSERT_TRUE(segments[0][0].is_array());
  EXPECT_EQ(segments[0][0].as_array().at(1).as_int(), 1);
  EXPECT_EQ(run_rows(segments[0][0]), 7u);

  Value replacement = *fourth;
  replacement.as_object().set("note", Value("replaced"));
  ASSERT_TRUE(observations.replace("observations-4", replacement));
  EXPECT_EQ(lazy_rows.value(), 6.0);
  lc.snapshot();
  segments = observation_segments(env);
  ASSERT_EQ(segments.size(), 1u);  // a sealed slot changed: one rewrite
  const Array& entries = segments[0];
  ASSERT_EQ(entries.size(), 3u);
  ASSERT_TRUE(entries[0].is_array());
  EXPECT_EQ(entries[0].as_array().at(1).as_int(), 1);
  EXPECT_EQ(run_rows(entries[0]), 3u);
  ASSERT_TRUE(entries[1].is_object());
  EXPECT_EQ(entries[1].get_string("_id"), "observations-4");
  EXPECT_EQ(entries[1].get_string("note"), "replaced");
  ASSERT_TRUE(entries[2].is_array());
  EXPECT_EQ(entries[2].as_array().at(1).as_int(), 5);
  EXPECT_EQ(run_rows(entries[2]), 3u);
  const std::vector<std::string> before = stored_bytes(s.db);

  lc.crash();
  lc.recover();
  EXPECT_EQ(lazy_rows.value(), 6.0);
  EXPECT_EQ(stored_bytes(s.db), before);
}

// Property: under any mix of inserts (document batches and flat ones,
// whose rows seal as column runs), removes, replaces, dedup inserts
// (with evictions), duplicate redeliveries, snapshots and crashes,
// recovery rebuilds exactly the pre-crash documents, in slot order, and
// both dedup sets in eviction order.
TEST(ServerRecovery, SealedSequencesRecoverExactlyUnderRandomOperations) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    ServerConfig config;
    config.batch_dedup_capacity = 12;
    config.obs_dedup_capacity = 40;
    Stack s(config);
    MemStorageEnv env;
    ServerLifecycle lc(env, s.sim, s.broker, s.db, *s.server);
    Rng rng(seed);
    auto& obs = s.db.collection("observations");
    auto& notes = s.db.collection("notes");
    auto keys = [](const BoundedKeySet& set) {
      return std::vector<std::string>(set.ordered().begin(),
                                      set.ordered().end());
    };
    auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    auto random_id = [&](docstore::Collection& c) -> std::string {
      std::vector<Value> docs = c.find(docstore::Query::all());
      if (docs.empty()) return "";
      return docs[pick(docs.size())].get_string("_id");
    };
    int batch = 0;
    // A published batch in the form it was published in.
    struct Published {
      Value document;
      std::shared_ptr<const ingest::ObsBatch> flat;
    };
    auto publish = [&](const Published& p) {
      if (p.flat != nullptr) {
        s.broker.publish_flat("goflow", "b", p.flat, 200 + batch)
            .value_or_throw();
      } else {
        s.broker.publish("goflow", "b", p.document, 200 + batch)
            .value_or_throw();
      }
    };
    std::vector<Published> published;
    int crashes = 0;
    for (int step = 0; step < 300; ++step) {
      const std::int64_t op = rng.uniform_int(0, 99);
      if (op < 35) {
        const std::string client =
            "dev" + std::to_string(rng.uniform_int(0, 4));
        const int count = static_cast<int>(rng.uniform_int(1, 4));
        Published p;
        if (rng.bernoulli(0.5)) {
          p.flat = make_flat_batch(s.pool, "batch-" + std::to_string(batch),
                                   client, count, 100 + batch, 201 + batch,
                                   s.tracer, nullptr);
        } else {
          p.document = make_batch("batch-" + std::to_string(batch), client,
                                  batch * 10, count, 100 + batch, &s.tracer);
        }
        ++batch;
        publish(p);
        published.push_back(std::move(p));
      } else if (op < 40 && !published.empty()) {
        // A redelivery: a duplicate batch, or one evicted and accepted.
        publish(published[pick(published.size())]);
      } else if (op < 50) {
        std::string id = random_id(obs);
        if (!id.empty()) obs.remove(id);
      } else if (op < 58) {
        std::string id = random_id(obs);
        if (!id.empty()) {
          Value doc = *obs.get(id);
          doc.as_object().set("spl", Value(static_cast<double>(step)));
          obs.replace(id, doc);
        }
      } else if (op < 70) {
        notes.insert(Value(Object{{"step", Value(step)}}));
      } else if (op < 74) {
        notes.remove_many(docstore::Query::lt("step", Value(step - 20)));
      } else if (op < 77) {
        notes.update_many(docstore::Query::all(), [](Value& doc) {
          doc.as_object().set("touched", Value(true));
        });
      } else if (op < 92) {
        lc.snapshot();
      } else {
        const std::map<std::string, std::vector<Value>> docs = all_docs(s.db);
        const std::vector<std::string> batches =
            keys(s.server->seen_batch_ids());
        const std::vector<std::string> obs_keys =
            keys(s.server->seen_obs_keys());
        lc.crash();
        lc.recover();
        ++crashes;
        ASSERT_EQ(all_docs(s.db), docs) << "step " << step;
        ASSERT_EQ(keys(s.server->seen_batch_ids()), batches) << "step " << step;
        ASSERT_EQ(keys(s.server->seen_obs_keys()), obs_keys) << "step " << step;
      }
    }
    EXPECT_GT(crashes, 5);
    EXPECT_GT(s.server->dedup_evictions(), 0u);
  }
}

// Sealing belongs to one journal's env: components snapshotted through
// a second lifecycle on another env write every sequence whole there,
// and then again when the first lifecycle snapshots into its own env, so
// neither manifest names a file its env lacks or holds other bytes under.
TEST(ServerRecovery, SnapshotsIntoAnotherEnvWriteEverything) {
  Stack s;
  MemStorageEnv env1;
  MemStorageEnv env2;
  int batch = 0;
  auto batch_ids = [&] {
    return std::vector<std::string>(s.server->seen_batch_ids().ordered().begin(),
                                    s.server->seen_batch_ids().ordered().end());
  };
  ServerLifecycle lc1(env1, s.sim, s.broker, s.db, *s.server);
  store_observations(s, 30, batch);
  lc1.snapshot();
  {
    ServerLifecycle lc2(env2, s.sim, s.broker, s.db, *s.server);
    store_observations(s, 20, batch);
    lc2.snapshot();
    lc1.snapshot();
    const std::map<std::string, std::vector<Value>> live = all_docs(s.db);
    ASSERT_EQ(live.at("observations").size(), 50u);
    const std::vector<std::string> batches = batch_ids();

    lc2.crash();
    lc2.recover();
    EXPECT_TRUE(lc2.last_recovery().snapshot_loaded);
    EXPECT_EQ(all_docs(s.db), live);

    lc1.crash();
    lc1.recover();
    EXPECT_TRUE(lc1.last_recovery().snapshot_loaded);
    // All of it comes from env1's snapshot: nothing was logged there.
    EXPECT_EQ(lc1.last_recovery().replayed, 0u);
    EXPECT_EQ(all_docs(s.db), live);
    EXPECT_EQ(batch_ids(), batches);
  }
}

TEST(ServerRecovery, DurableMetricsAreExported) {
  Stack s;
  MemStorageEnv env;
  durable::JournalConfig cfg;
  ServerLifecycle lc(env, s.sim, s.broker, s.db, *s.server, cfg, &s.registry);
  s.db.set_metrics(&s.registry);

  s.broker.publish("goflow", "b", make_batch("b1", "dev1", 0, 2, 100), 200)
      .value_or_throw();
  const std::uint64_t inserts = s.registry.counter("docstore.inserts").value();
  EXPECT_GE(inserts, 2u);
  lc.crash();
  lc.recover();

  // Recovery re-stores what the inserts stored; it inserts nothing new.
  EXPECT_EQ(s.registry.counter("docstore.inserts").value(), inserts);
  EXPECT_GT(s.registry.counter("durable.wal_appends").value(), 0u);
  EXPECT_GT(s.registry.counter("durable.fsync_batches").value(), 0u);
  EXPECT_GT(s.registry.counter("durable.snapshots").value(), 0u);
  EXPECT_EQ(s.registry.counter("durable.recoveries").value(), 1u);
  EXPECT_GT(s.registry.counter("durable.replayed_records").value(), 0u);
}

}  // namespace
}  // namespace mps::core
