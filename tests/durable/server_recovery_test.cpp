// ServerLifecycle end to end: the whole middleware host (broker +
// docstore + GoFlow server) crashing and recovering in place. Covers the
// server's durable snapshot/replay contract, the shape of the decoded
// snapshot payload against the live store, the bounded ingest-dedup
// regression, pending-batch resumption across a crash in both input forms
// (a document batch and a flat ObsBatch), drop attribution when there is
// nothing to recover with, and the recovery-equivalence property: a
// killed-and-recovered run ends with exactly the documents an
// uninterrupted run stores.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/strings.h"
#include "core/goflow_server.h"
#include "core/recovery.h"
#include "durable/snapshot.h"
#include "durable/storage.h"
#include "durable/wal.h"
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

/// The decoded payload of the newest snapshot file in `env`.
Value newest_snapshot(MemStorageEnv& env) {
  std::string newest;
  for (const std::string& name : env.list())  // sorted: newest LSN last
    if (starts_with(name, durable::kSnapshotPrefix)) newest = name;
  std::string file = env.read(newest);
  std::optional<durable::DecodedRecord> rec = durable::decode_record(file, 0);
  Value state;
  if (!rec.has_value() || !codec::decode_value(rec->payload, state))
    ADD_FAILURE() << "undecodable snapshot " << newest;
  return state;
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
// batch's rows as the documents srv.batch logged, and recovery from that
// snapshot alone resumes and stores them.
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
  Value state = newest_snapshot(env);
  const Array& pending = state.at("srv").at("pending").as_array();
  ASSERT_EQ(pending.size(), 1u);
  const Array& docs = pending[0].at("docs").as_array();
  ASSERT_EQ(docs.size(), batch->size());
  for (std::size_t i = 0; i < docs.size(); ++i)
    EXPECT_EQ(docs[i], batch->storage_document(i, 200)) << "row " << i;

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

  // Documents in two collections: accounts and observations.
  s.server->register_account(s.admin_token, "app1", "ops", Role::kManager)
      .value_or_throw();
  s.broker.publish("goflow", "b", make_batch("b1", "dev1", 0, 3, 100), 200)
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
  Value state = newest_snapshot(env);

  const std::map<std::string, std::vector<Value>> before = all_docs(s.db);
  ASSERT_EQ(before.at("accounts").size(), 2u);
  ASSERT_EQ(before.at("observations").size(), 3u);
  const Array& collections = state.at("db").at("collections").as_array();
  ASSERT_EQ(collections.size(), before.size());
  for (const Value& c : collections) {
    const std::string name = c.get_string("name");
    ASSERT_EQ(before.count(name), 1u) << name;
    EXPECT_EQ(c.at("docs").as_array(), before.at(name)) << name;
  }
  EXPECT_EQ(state.at("srv").at("pending").as_array().size(), 1u);

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
                                        "dev2#0", "dev2#1"}));
}

TEST(ServerRecovery, DurableMetricsAreExported) {
  Stack s;
  MemStorageEnv env;
  durable::JournalConfig cfg;
  ServerLifecycle lc(env, s.sim, s.broker, s.db, *s.server, cfg, &s.registry);

  s.broker.publish("goflow", "b", make_batch("b1", "dev1", 0, 2, 100), 200)
      .value_or_throw();
  lc.crash();
  lc.recover();

  EXPECT_GT(s.registry.counter("durable.wal_appends").value(), 0u);
  EXPECT_GT(s.registry.counter("durable.fsync_batches").value(), 0u);
  EXPECT_GT(s.registry.counter("durable.snapshots").value(), 0u);
  EXPECT_EQ(s.registry.counter("durable.recoveries").value(), 1u);
  EXPECT_GT(s.registry.counter("durable.replayed_records").value(), 0u);
}

}  // namespace
}  // namespace mps::core
