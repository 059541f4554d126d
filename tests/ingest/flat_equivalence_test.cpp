// Flat-vs-document equivalence: the server's two input forms must leave
// byte-identical state. One stream of BatchPool batches — fresh uploads,
// redeliveries and repackaged duplicates — goes to two fresh servers
// under the same fault plan: one receives every batch via publish_flat,
// the other via publish(to_batch_document()). Stored documents, dedup
// order, totals and analytics must match, journal-less and journaled
// across a snapshot and a crash. Full studies (which publish flat only)
// are pinned by state digests instead.
#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/hash.h"
#include "core/goflow_server.h"
#include "core/recovery.h"
#include "crowd/population.h"
#include "docstore/database.h"
#include "durable/storage.h"
#include "fault/fault.h"
#include "ingest/obs_batch.h"
#include "study/study.h"

namespace mps::ingest {
namespace {

std::string collection_json(docstore::Database& db) {
  Array docs;
  db.collection("observations")
      .for_each([&docs](const Value& doc) { docs.push_back(doc); });
  return Value(std::move(docs)).to_json();
}

std::string ordered_keys_json(const BoundedKeySet& set) {
  Array keys;
  for (const std::string& k : set.ordered()) keys.push_back(Value(k));
  return Value(std::move(keys)).to_json();
}

const std::vector<std::string> kClients = {"c0", "c1", "c2"};

/// One upload: the client that sends it and the serialized batch.
struct Upload {
  std::string client;
  std::shared_ptr<const ObsBatch> batch;
};

/// A deterministic upload stream, one upload per step. Most steps carry a
/// fresh batch; some redeliver an earlier batch unchanged (same batch
/// id), and some repackage an earlier batch's observations under a new
/// batch id — what a client sends after a crash cut its retry cycle.
std::vector<Upload> make_stream(BatchPool& pool, std::uint64_t seed,
                                int steps) {
  Rng rng = Rng(seed).child("flat-equivalence-stream");
  const auto& catalog = phone::top20_catalog();
  std::vector<Upload> stream;
  std::vector<std::uint64_t> counters(kClients.size(), 0);
  std::uint64_t next_span = 1;
  for (int step = 0; step < steps; ++step) {
    const TimeMs now = minutes(2) * step;
    auto k = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kClients.size()) - 1));
    const std::string& client = kClients[k];
    std::vector<const Upload*> earlier;
    for (const Upload& u : stream)
      if (u.client == client) earlier.push_back(&u);
    double roll = rng.uniform();
    if (!earlier.empty() && roll < 0.15) {
      stream.push_back(*earlier[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(earlier.size()) - 1))]);
      continue;
    }
    std::vector<phone::Observation> observations;
    if (!earlier.empty() && roll < 0.3) {
      const ObsBatch& old = *earlier.back()->batch;
      for (std::size_t i = 0; i < old.size(); ++i)
        observations.push_back(old.observation_at(i));
    }
    auto fresh = rng.uniform_int(1, 6);
    for (std::int64_t i = 0; i < fresh; ++i) {
      phone::Observation o;
      o.user = "u" + std::to_string(k);
      o.model = catalog[static_cast<std::size_t>(rng.uniform_int(0, 3))].id;
      o.captured_at = now - rng.uniform_int(0, minutes(30));
      o.spl_db = rng.uniform(35.0, 90.0);
      o.mode = static_cast<phone::SensingMode>(rng.uniform_int(0, 2));
      o.activity = static_cast<phone::Activity>(rng.uniform_int(0, 4));
      if (rng.bernoulli(0.6))
        o.location = phone::LocationFix{
            static_cast<phone::LocationProvider>(rng.uniform_int(0, 2)),
            rng.uniform(0.0, 5000.0), rng.uniform(0.0, 5000.0),
            rng.uniform(3.0, 800.0)};
      // A few untraced rows: span 0 bypasses the per-observation dedup.
      if (!rng.bernoulli(0.05)) o.span_id = next_span++;
      observations.push_back(std::move(o));
    }
    std::string batch_id = client + "#" + std::to_string(++counters[k]);
    stream.push_back(
        Upload{client, pool.make_batch("soundcity", client, batch_id, now,
                                       observations)});
  }
  return stream;
}

/// Everything downstream code can observe about one server's ingest.
struct ServerState {
  std::string stored_docs_json;  ///< observations collection, insert order
  std::string obs_keys_json;     ///< obs dedup set in eviction order
  std::string batch_keys_json;   ///< batch-id dedup set in eviction order
  std::uint64_t batches = 0;
  std::uint64_t observations = 0;
  std::uint64_t duplicate_batches = 0;
  std::uint64_t duplicate_observations = 0;
  std::uint64_t ingest_retries = 0;
  std::size_t pending = 0;
  std::uint64_t app_batches = 0;
  std::uint64_t app_observations = 0;
  std::uint64_t app_localized = 0;
  double app_mean_delay = 0.0;
};

/// One middleware host armed with its own copy of the fault plan, and a
/// lifecycle when journaled.
struct Host {
  fault::FaultPlan plan;  ///< first in, last out: everything below is armed
  sim::Simulation sim;
  broker::Broker broker;
  docstore::Database db;
  core::GoFlowServer server{sim, broker, db};
  durable::MemStorageEnv env;
  std::optional<core::ServerLifecycle> lifecycle;
  std::vector<ExchangeId> exchanges;  ///< per kClients entry

  Host(const std::string& profile, std::uint64_t seed, bool journaled)
      : plan(fault::FaultPlan::profile(profile, seed)) {
    plan.set_clock([this] { return sim.now(); });
    if (journaled) lifecycle.emplace(env, sim, broker, db, server);
    auto reg = server.register_app("soundcity").value_or_throw();
    std::string token = server
                            .register_account(reg.admin_token, "soundcity",
                                              "u", core::Role::kClient)
                            .value_or_throw();
    for (const std::string& client : kClients)
      exchanges.push_back(
          server.login_client(token, "soundcity", client).value_or_throw()
              .exchange);
    // Armed after setup: registration writes are not under test.
    if (profile != "none") {
      broker.arm_faults(&plan);
      db.arm_faults(&plan);
      server.arm_faults(&plan);
    }
  }

  bool publish(const Upload& u, bool flat) {
    std::size_t k = 0;
    while (kClients[k] != u.client) ++k;
    const std::string key = "soundcity.obs." + u.client;
    return (flat ? broker.publish_flat(exchanges[k], key, u.batch, sim.now())
                 : broker.publish(exchanges[k], key,
                                  u.batch->to_batch_document(), sim.now()))
        .ok();
  }

  ServerState state() {
    ServerState s;
    s.stored_docs_json = collection_json(db);
    s.obs_keys_json = ordered_keys_json(server.seen_obs_keys());
    s.batch_keys_json = ordered_keys_json(server.seen_batch_ids());
    s.batches = server.total_batches();
    s.observations = server.total_observations();
    s.duplicate_batches = server.duplicate_batches();
    s.duplicate_observations = server.duplicate_observations();
    s.ingest_retries = server.ingest_retries();
    s.pending = server.pending_ingest_batches();
    core::AppAnalytics a = server.analytics("soundcity").value_or_throw();
    s.app_batches = a.batches_ingested;
    s.app_observations = a.observations_stored;
    s.app_localized = a.observations_localized;
    s.app_mean_delay = a.delay_stats.mean();
    return s;
  }
};

/// Drives one stream into a flat-fed and a document-fed host in lockstep.
/// A rejected publish (broker fault, lost confirm, shed) is retried with
/// the same batch at the next step, like a client's outbox. Journaled
/// runs snapshot a third of the way in and crash + recover both hosts
/// halfway.
std::pair<ServerState, ServerState> run_pair(const std::string& profile,
                                             std::uint64_t seed,
                                             bool journaled) {
  constexpr int kSteps = 160;
  BatchPool pool;
  std::vector<Upload> stream = make_stream(pool, seed, kSteps);
  Host flat(profile, seed, journaled);
  Host doc(profile, seed, journaled);
  std::deque<Upload> outbox;
  auto send = [&](const Upload& u) {
    bool ok = flat.publish(u, /*flat=*/true);
    EXPECT_EQ(doc.publish(u, /*flat=*/false), ok) << "batch "
                                                  << u.batch->batch_id();
    if (!ok) outbox.push_back(u);
  };
  auto advance = [&](TimeMs t) {
    flat.sim.run_until(t);
    doc.sim.run_until(t);
    std::deque<Upload> retry = std::move(outbox);
    outbox.clear();
    for (const Upload& u : retry) send(u);
  };
  for (int step = 0; step < kSteps; ++step) {
    advance(minutes(2) * step);
    if (journaled && step == kSteps / 3) {
      flat.lifecycle->snapshot();
      doc.lifecycle->snapshot();
    }
    if (journaled && step == kSteps / 2) {
      flat.lifecycle->crash();
      doc.lifecycle->crash();
      flat.lifecycle->recover();
      doc.lifecycle->recover();
    }
    send(stream[static_cast<std::size_t>(step)]);
  }
  // Drain: backoff timers fire and the outbox empties.
  for (int i = 1; i <= 40 && !outbox.empty(); ++i)
    advance(minutes(2) * (kSteps + i));
  advance(minutes(2) * kSteps + hours(2));
  EXPECT_TRUE(outbox.empty());
  return {flat.state(), doc.state()};
}

void expect_identical(const ServerState& flat, const ServerState& doc) {
  EXPECT_EQ(flat.stored_docs_json, doc.stored_docs_json);
  EXPECT_EQ(flat.obs_keys_json, doc.obs_keys_json);
  EXPECT_EQ(flat.batch_keys_json, doc.batch_keys_json);
  EXPECT_EQ(flat.batches, doc.batches);
  EXPECT_EQ(flat.observations, doc.observations);
  EXPECT_EQ(flat.duplicate_batches, doc.duplicate_batches);
  EXPECT_EQ(flat.duplicate_observations, doc.duplicate_observations);
  EXPECT_EQ(flat.ingest_retries, doc.ingest_retries);
  EXPECT_EQ(flat.pending, doc.pending);
  EXPECT_EQ(flat.app_batches, doc.app_batches);
  EXPECT_EQ(flat.app_observations, doc.app_observations);
  EXPECT_EQ(flat.app_localized, doc.app_localized);
  EXPECT_DOUBLE_EQ(flat.app_mean_delay, doc.app_mean_delay);
  // The stream must exercise both dedup lines and finish storing.
  EXPECT_GT(flat.observations, 0u);
  EXPECT_GT(flat.duplicate_batches, 0u);
  EXPECT_GT(flat.duplicate_observations, 0u);
  EXPECT_EQ(flat.pending, 0u);
}

TEST(FlatEquivalence, CleanRunStoresByteIdenticalState) {
  for (std::uint64_t seed : {1, 7, 23}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto [flat, doc] = run_pair("none", seed, /*journaled=*/false);
    expect_identical(flat, doc);
    EXPECT_EQ(flat.ingest_retries, 0u);
  }
}

TEST(FlatEquivalence, LossyNetworkRunsStayIdentical) {
  // Publish rejections, lost confirms and transient insert faults all
  // consult per-site RNG streams; the flat form must consume them in
  // exactly the document form's order or dedup outcomes diverge.
  for (std::uint64_t seed : {3, 11}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto [flat, doc] = run_pair("lossy-network", seed, /*journaled=*/false);
    expect_identical(flat, doc);
    EXPECT_GT(flat.ingest_retries, 0u);
  }
}

TEST(FlatEquivalence, SheddingProfileStaysIdentical) {
  for (std::uint64_t seed : {5, 19}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto [flat, doc] =
        run_pair("lossy-network-shed", seed, /*journaled=*/false);
    expect_identical(flat, doc);
  }
}

// Journaled hosts: srv.batch/db.rows/srv.prog/srv.dupb records for flat
// batches, a snapshot taken while batches wait out backoff, and a crash
// whose recovery rebuilds each pending batch in the form it arrived in.
TEST(FlatEquivalence, JournaledCrashMidStreamStaysIdentical) {
  for (const char* profile : {"none", "lossy-network", "lossy-network-shed"}) {
    for (std::uint64_t seed : {3, 19}) {
      SCOPED_TRACE(std::string(profile) + " seed " + std::to_string(seed));
      auto [flat, doc] = run_pair(profile, seed, /*journaled=*/true);
      expect_identical(flat, doc);
    }
  }
}

/// A full study's outcome in one FNV-1a digest: every stored observation
/// in insert order, the report's counters and the server's totals.
std::string study_digest(const std::string& profile, bool journaled,
                         std::uint64_t* stored) {
  crowd::PopulationConfig pc;
  pc.seed = 9;
  pc.device_scale = 0.004;
  pc.obs_scale = 0.02;
  pc.horizon = days(2);
  crowd::Population pop = crowd::Population::generate(pc);

  sim::Simulation sim;
  broker::Broker broker;
  docstore::Database db;
  core::GoFlowServer server(sim, broker, db);
  durable::MemStorageEnv env;
  std::optional<core::ServerLifecycle> lifecycle;
  if (journaled) lifecycle.emplace(env, sim, broker, db, server);
  fault::FaultPlan plan = fault::FaultPlan::profile(profile, 9);

  study::StudyConfig sc;
  sc.seed = 9;
  sc.duration_days = 1;
  sc.faults = &plan;
  if (journaled) {
    sc.lifecycle = &*lifecycle;
    sc.snapshot_period = hours(6);
    sc.drain = hours(1);
  }
  study::StudyRunner runner(pop, sc, sim, broker, server);
  study::StudyReport r = runner.run();
  std::string text = collection_json(db);
  for (std::uint64_t v :
       {r.observations_recorded, r.observations_stored, r.uploads,
        r.buffered_unsent, r.in_flight_unsent, r.publish_failures,
        r.upload_retries, r.duplicate_observations, r.server_kills,
        server.total_batches(), server.total_observations(),
        server.duplicate_batches(), server.duplicate_observations()})
    text += "|" + std::to_string(v);
  char mean[32];
  std::snprintf(mean, sizeof(mean), "|%.17g", r.mean_delay_ms);
  text += mean;
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fnv1a64(text)));
  *stored = r.observations_stored;
  return hex;
}

// The digests were taken where the client still had a document
// serializer and a test proved both serializers produced them.
TEST(FlatEquivalence, FleetStudyMatchesPinnedDigest) {
  std::uint64_t stored = 0;
  EXPECT_EQ(study_digest("lossy-network", /*journaled=*/false, &stored),
            "ef090732b25d6c4f");
  EXPECT_EQ(stored, 1642u);
}

// Journaled: the server used to reroute flat batches to the document path
// whenever a journal was attached; this pins what that stored.
TEST(FlatEquivalence, JournaledStudyMatchesPinnedDigest) {
  std::uint64_t stored = 0;
  EXPECT_EQ(study_digest("server-kill-lossy", /*journaled=*/true, &stored),
            "6aad12fc89d2444e");
  EXPECT_EQ(stored, 1642u);
}

}  // namespace
}  // namespace mps::ingest
