// Durability plane: what the WAL + snapshot machinery costs and what it
// buys. Seven measurements, all on MemStorageEnv (the environment the
// simulation itself runs on, so the numbers are the sim's own overhead,
// deterministic and disk-independent):
//
//   1. Raw WAL append throughput, fsync-per-record vs group commit
//      (sync_every=64) — the price of the strictest durability setting.
//   2. Journaled vs unjournaled docstore insert throughput — the
//      log-before-apply overhead on the ingest hot path.
//   3. Recovery time as a function of log size: full-tail replay into a
//      fresh docstore at 1k/10k/50k records.
//   4. Recovery time against snapshot size: 1k/10k/50k stored documents,
//      each restored from a snapshot plus a 100-record tail — the case
//      the snapshot_period knob is there to create. Reports the snapshot
//      write time and size per point, so the curve has both axes.
//   5. The next snapshot: 1k/10k/50k stored documents snapshotted, 100
//      more inserted, snapshotted again. A snapshot seals only what was
//      appended since the previous one, so the second snapshot's bytes
//      and time track the 100 new documents, not n.
//   6. The WAL cost of flat ingest: a journaled GoFlowServer under a
//      ServerLifecycle ingests 1,000 clean flat batches of 16 rows. Each
//      batch is journaled as three records (srv.batch and db.rows carry
//      its columns, srv.prog the stored run), whatever its row count.
//      Then a snapshot seals the stored rows, one column run per batch,
//      and a crash + recovery restores them from it; the bench exits 1
//      unless all 16,000 observations come back.
//   7. Recovery after a retention purge: 10k and 100k lazy rows under the
//      server's four indexes, snapshotted, then the older half removed by
//      a journaled remove_many. Recovery restores the snapshot and replays
//      one db.remove per purged row, oldest first, so its cost is linear
//      in n only while removing a row from an index costs O(1); the
//      100k/10k ratio is ~10 then, and ~100 when each removal erases its
//      slot from the front of a sorted index. The bench exits 1 unless
//      every recovery replays the purge and keeps the newer half.
#include <chrono>
#include <cstdio>
#include <string>

#include <vector>

#include "common/bench_util.h"
#include "common/codec.h"
#include "core/goflow_server.h"
#include "core/recovery.h"
#include "docstore/database.h"
#include "durable/journal.h"
#include "durable/storage.h"
#include "durable/wal.h"
#include "ingest/obs_batch.h"

namespace {

using namespace mps;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// A representative observation document (~the ingest path's shape).
Value observation_doc(int i) {
  return Value(Object{{"client", Value("dev" + std::to_string(i % 50))},
                      {"seq", Value(i)},
                      {"captured_at", Value(static_cast<std::int64_t>(i) * 60)},
                      {"spl", Value(55.0 + (i % 20))},
                      {"lat", Value(48.85 + 0.0001 * (i % 100))},
                      {"lon", Value(2.35 + 0.0001 * (i % 100))}});
}

/// Journals `n` docstore inserts into `env` (the realistic record mix:
/// every record is a real db.insert the recovery path will re-apply).
void build_log(durable::MemStorageEnv& env, int n) {
  durable::Journal journal(env);
  docstore::Database db;
  db.attach_journal(&journal);
  auto& c = db.collection("observations");
  for (int i = 0; i < n; ++i) c.insert(observation_doc(i));
  db.attach_journal(nullptr);
}

/// Writes a {"db": ...} snapshot of `db` through `journal`.
void snapshot_db(durable::Journal& journal, docstore::Database& db) {
  journal.write_snapshot([&](durable::SnapshotWriter& writer) {
    codec::encode_object_header(1, writer.out());
    codec::encode_key("db", writer.out());
    db.encode_snapshot(writer);
  });
}

/// Times one full recovery (journal open + snapshot restore + tail
/// replay) into a fresh database; returns wall seconds.
double time_recovery(durable::MemStorageEnv& env, std::uint64_t* replayed) {
  docstore::Database db;
  auto start = std::chrono::steady_clock::now();
  durable::Journal journal(env);
  durable::RecoveryStats stats = journal.recover(
      [&](durable::LoadedSnapshot& snap) {
        const Value* db_state = snap.state.find("db");
        if (db_state != nullptr) db.restore_snapshot(*db_state, snap.segments);
      },
      [&](const Value& record) { db.apply_journal_record(record); });
  double secs = seconds_since(start);
  if (replayed != nullptr) *replayed = stats.replayed;
  return secs;
}

}  // namespace

int main() {
  using namespace mps::bench;
  BenchScale scale = bench_scale_from_env();
  print_header("bench_durable",
               "Durability plane - WAL append throughput, journaling "
               "overhead, recovery time vs log size",
               scale);

  // --- 1. Raw WAL append throughput ---------------------------------------
  const int kAppends = 50'000;
  // One db.insert record exactly as Journal::append encodes it.
  Value doc = observation_doc(0);
  doc.as_object().set("_id", Value("observations-1"));
  std::string payload;
  codec::encode_value(Value(Object{{"op", Value("db.insert")},
                                   {"c", Value("observations")},
                                   {"doc", std::move(doc)}}),
                      payload);
  std::printf("1) WAL append, %d records of %zu bytes:\n", kAppends,
              payload.size());
  for (std::uint64_t sync_every : {std::uint64_t{1}, std::uint64_t{64}}) {
    durable::MemStorageEnv env;
    durable::WalConfig cfg;
    cfg.sync_every = sync_every;
    durable::Wal wal(env, cfg);
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kAppends; ++i) wal.append(payload);
    wal.sync();
    double secs = seconds_since(start);
    std::printf("   sync_every=%-3llu %.3fs (%.0f appends/s, %zu segments)\n",
                static_cast<unsigned long long>(sync_every), secs,
                kAppends / secs, wal.segment_count());
    bench_record_rate("wal_appends_sync" + std::to_string(sync_every),
                      kAppends, secs);
  }

  // --- 2. Journaling overhead on the insert path --------------------------
  const int kInserts = 20'000;
  std::printf("\n2) docstore insert, %d documents:\n", kInserts);
  double plain_secs = 0;
  {
    docstore::Database db;
    auto& c = db.collection("observations");
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kInserts; ++i) c.insert(observation_doc(i));
    plain_secs = seconds_since(start);
  }
  double journaled_secs = 0;
  {
    durable::MemStorageEnv env;
    auto start = std::chrono::steady_clock::now();
    build_log(env, kInserts);
    journaled_secs = seconds_since(start);
  }
  std::printf("   unjournaled %.3fs  journaled %.3fs  (%.2fx overhead)\n",
              plain_secs, journaled_secs,
              plain_secs > 0 ? journaled_secs / plain_secs : 0.0);
  bench_record_rate("insert_unjournaled", kInserts, plain_secs);
  bench_record_rate("insert_journaled", kInserts, journaled_secs);
  bench_record("journal_overhead_ratio",
               plain_secs > 0 ? journaled_secs / plain_secs : 0.0);

  // --- 3. Recovery time vs log size ---------------------------------------
  std::printf("\n3) recovery, full-tail replay:\n");
  for (int n : {1'000, 10'000, 50'000}) {
    durable::MemStorageEnv env;
    build_log(env, n);
    std::uint64_t replayed = 0;
    double secs = time_recovery(env, &replayed);
    std::printf("   %6d records: %.3fs (%.0f records/s, durable bytes %zu)\n",
                n, secs, replayed / secs, env.total_durable_bytes());
    bench_record("recover_tail_" + std::to_string(n) + "_seconds", secs);
    bench_record_rate("recover_tail_" + std::to_string(n) + "_records",
                      static_cast<double>(replayed), secs);
  }

  // --- 4. Snapshot + short tail, by state size -----------------------------
  constexpr int kTail = 100;
  std::printf("\n4) recovery, snapshot + %d-record tail:\n", kTail);
  for (int n : {1'000, 10'000, 50'000}) {
    durable::MemStorageEnv env;
    durable::Journal journal(env);
    docstore::Database db;
    db.attach_journal(&journal);
    auto& c = db.collection("observations");
    for (int i = 0; i < n - kTail; ++i) c.insert(observation_doc(i));
    auto snap_start = std::chrono::steady_clock::now();
    snapshot_db(journal, db);
    double snap_secs = seconds_since(snap_start);
    const double snap_bytes =
        static_cast<double>(journal.stats().snapshot_bytes);
    for (int i = n - kTail; i < n; ++i) c.insert(observation_doc(i));
    db.attach_journal(nullptr);

    std::uint64_t replayed = 0;
    double secs = time_recovery(env, &replayed);
    std::printf("   %6d docs: snapshot %.0f bytes written in %.3fs; "
                "recovery %.3fs (replayed %llu)\n",
                n, snap_bytes, snap_secs, secs,
                static_cast<unsigned long long>(replayed));
    const std::string tag = std::to_string(n);
    bench_record("snapshot_write_" + tag + "_seconds", snap_secs);
    bench_record("snapshot_" + tag + "_bytes", snap_bytes);
    bench_record("recover_snapshot_" + tag + "_seconds", secs);
    bench_record("recover_snapshot_" + tag + "_tail_records",
                 static_cast<double>(replayed));
  }

  // --- 5. The next snapshot, by state size ---------------------------------
  constexpr int kNext = 100;
  std::printf("\n5) next snapshot after %d more inserts:\n", kNext);
  for (int n : {1'000, 10'000, 50'000}) {
    durable::MemStorageEnv env;
    durable::Journal journal(env);
    docstore::Database db;
    db.attach_journal(&journal);
    auto& c = db.collection("observations");
    for (int i = 0; i < n; ++i) c.insert(observation_doc(i));
    snapshot_db(journal, db);
    for (int i = n; i < n + kNext; ++i) c.insert(observation_doc(i));
    const std::uint64_t written_before = journal.stats().snapshot_bytes_written;
    auto start = std::chrono::steady_clock::now();
    snapshot_db(journal, db);
    double secs = seconds_since(start);
    db.attach_journal(nullptr);
    const double written = static_cast<double>(
        journal.stats().snapshot_bytes_written - written_before);
    std::printf("   %6d docs: %.0f bytes written in %.6fs (snapshot %llu "
                "bytes in %llu segments)\n",
                n, written, secs,
                static_cast<unsigned long long>(journal.stats().snapshot_bytes),
                static_cast<unsigned long long>(
                    journal.stats().snapshot_segments));
    const std::string tag = std::to_string(n);
    bench_record("snapshot_next_" + tag + "_bytes", written);
    bench_record("snapshot_next_write_" + tag + "_seconds", secs);
  }

  // --- 6. WAL records and bytes per flat batch -----------------------------
  constexpr int kFlatBatches = 1'000;
  constexpr int kFlatRows = 16;
  std::printf("\n6) journaled server, %d clean flat batches of %d rows:\n",
              kFlatBatches, kFlatRows);
  {
    sim::Simulation sim;
    broker::Broker broker;
    docstore::Database db;
    core::GoFlowServer server(sim, broker, db);
    server.register_app("soundcity").value_or_throw();
    durable::MemStorageEnv env;
    core::ServerLifecycle lifecycle(env, sim, broker, db, server);
    const durable::WalStats before = lifecycle.journal()->wal().stats();
    ingest::BatchPool pool;
    const char* models[] = {"GT-I9300", "Nexus 5", "iPhone6,2"};
    std::uint64_t span = 0;
    for (int b = 0; b < kFlatBatches; ++b) {
      const std::string client = "dev" + std::to_string(b % 50);
      const TimeMs sent_at = static_cast<TimeMs>(b) * 60'000;
      std::vector<phone::Observation> rows;
      for (int r = 0; r < kFlatRows; ++r) {
        phone::Observation o;
        o.user = "u-" + client;
        o.model = models[b % 3];
        o.captured_at = sent_at - (kFlatRows - r) * 1000;
        o.spl_db = 50.0 + (r * 7 + b) % 30;
        if (r % 3 != 0)
          o.location = phone::LocationFix{phone::LocationProvider::kNetwork,
                                          10.0 * r, 20.0 * b, 35.0};
        o.span_id = ++span;
        rows.push_back(std::move(o));
      }
      broker
          .publish_flat(server.config().goflow_exchange, "b",
                        pool.make_batch("soundcity", client,
                                        client + "#" + std::to_string(b),
                                        sent_at, rows),
                        sent_at)
          .value_or_throw();
    }
    const durable::WalStats& after = lifecycle.journal()->wal().stats();
    const double records = static_cast<double>(after.appends - before.appends);
    const double bytes =
        static_cast<double>(after.bytes_appended - before.bytes_appended);
    const double stored = static_cast<double>(server.total_observations());
    if (stored != static_cast<double>(kFlatBatches * kFlatRows)) {
      std::fprintf(stderr, "flat ingest stored %.0f observations\n", stored);
      return 1;
    }
    std::printf("   %.0f records (%.2f per batch), %.0f bytes (%.1f per "
                "observation)\n",
                records, records / kFlatBatches, bytes, bytes / stored);
    bench_record("flat_wal_records_per_batch_exact", records / kFlatBatches);
    bench_record("flat_wal_bytes_per_obs", bytes / stored);

    lifecycle.snapshot();
    const double snapshot_bytes =
        static_cast<double>(lifecycle.journal()->stats().snapshot_bytes);
    lifecycle.crash();
    auto start = std::chrono::steady_clock::now();
    lifecycle.recover();
    const double recover_secs = seconds_since(start);
    const std::size_t recovered = db.collection("observations").size();
    if (recovered != static_cast<std::size_t>(kFlatBatches * kFlatRows)) {
      std::fprintf(stderr, "recovery restored %zu observations\n", recovered);
      return 1;
    }
    std::printf("   snapshot %.0f bytes (%.1f per observation); recovery "
                "%.3fs\n",
                snapshot_bytes, snapshot_bytes / stored, recover_secs);
    bench_record("flat_snapshot_bytes_per_obs", snapshot_bytes / stored);
    bench_record("flat_recover_seconds", recover_secs);
  }

  // --- 7. Recovery after a journaled purge of half the rows ----------------
  std::printf("\n7) recovery after a journaled purge of the older half "
              "(indexes on app, user, model, captured_at):\n");
  double purge_secs[2] = {0.0, 0.0};
  const int purge_sizes[2] = {10'000, 100'000};
  for (int k = 0; k < 2; ++k) {
    const int n = purge_sizes[k];
    const TimeMs cutoff = static_cast<TimeMs>(n / 2) * 1000;
    durable::MemStorageEnv env;
    {
      durable::Journal journal(env);
      docstore::Database db;
      db.attach_journal(&journal);
      auto& c = db.collection("observations");
      for (const char* path : {"app", "user", "model", "captured_at"})
        c.create_index(path);
      ingest::BatchPool pool;
      const char* models[] = {"GT-I9300", "Nexus 5", "iPhone6,2", "XT1068"};
      for (int first = 0; first < n; first += kFlatRows) {
        std::vector<phone::Observation> rows;
        for (int i = first; i < first + kFlatRows; ++i) {
          phone::Observation o;
          o.user = "u" + std::to_string(i / kFlatRows % 300);
          o.model = models[i / kFlatRows % 4];
          o.captured_at = static_cast<TimeMs>(i) * 1000;
          o.spl_db = 50.0 + i % 30;
          rows.push_back(std::move(o));
        }
        const TimeMs at = static_cast<TimeMs>(first + kFlatRows) * 1000;
        c.insert_batch(pool.make_batch("soundcity", rows[0].user,
                                       rows[0].user + "#" + std::to_string(first),
                                       at, rows),
                       0, rows.size(), at);
      }
      snapshot_db(journal, db);
      const std::size_t purged = c.remove_many(docstore::Query::and_(
          {docstore::Query::eq("app", Value("soundcity")),
           docstore::Query::lt("captured_at", Value(cutoff))}));
      if (purged != static_cast<std::size_t>(n / 2)) {
        std::fprintf(stderr, "purge removed %zu of %d rows\n", purged, n);
        return 1;
      }
      db.attach_journal(nullptr);
    }
    // The best of three recoveries, each into a fresh database.
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      docstore::Database db;
      auto start = std::chrono::steady_clock::now();
      durable::Journal journal(env);
      durable::RecoveryStats stats = journal.recover(
          [&](durable::LoadedSnapshot& snap) {
            db.restore_snapshot(snap.state.at("db"), snap.segments);
          },
          [&](const Value& record) { db.apply_journal_record(record); });
      const double secs = seconds_since(start);
      const std::size_t kept = db.collection("observations").size();
      if (stats.replayed != static_cast<std::uint64_t>(n / 2) ||
          kept != static_cast<std::size_t>(n - n / 2)) {
        std::fprintf(stderr, "purge recovery replayed %llu, kept %zu\n",
                     static_cast<unsigned long long>(stats.replayed), kept);
        return 1;
      }
      if (rep == 0 || secs < best) best = secs;
    }
    purge_secs[k] = best;
    std::printf("   %6d rows, %6d purged: recovery %.4fs\n", n, n / 2, best);
    bench_record("recover_purge_" + std::to_string(n) + "_seconds", best);
  }
  std::printf("   100k/10k recovery ratio %.1f (linear ~10)\n",
              purge_secs[1] / purge_secs[0]);
  bench_record("recover_purge_ratio", purge_secs[1] / purge_secs[0]);
  return 0;
}
