// The Value-record layer: one shared Journal carrying "db." and "brk."
// records, snapshot + tail replay, and the recovery contracts of the
// docstore (exact state round-trip, _id generator catch-up) and the
// broker (topology rebuild, durable-queue messages back with the
// redelivered flag, non-durable queues drained). Also the binary
// codec's guarantees on this path: doubles come back bit-exact, and
// validly framed but undecodable records and snapshots are skipped and
// counted, never fatal. And the snapshot's manifest-over-segments
// contract: a manifest with a missing or damaged segment is skipped, and
// a crash between writing segments and the manifest keeps the previous
// snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "common/codec.h"
#include "common/rng.h"
#include "common/strings.h"
#include "docstore/database.h"
#include "durable/journal.h"
#include "durable/snapshot.h"
#include "durable/storage.h"
#include "durable/wal.h"
#include "obs/metrics.h"

namespace mps::durable {
namespace {

using mps::broker::Broker;
using mps::broker::ExchangeType;
using mps::broker::Message;
using mps::broker::QueueOptions;
using mps::docstore::Database;
using mps::docstore::Query;

// Mirrors ServerLifecycle's dispatch for a db+broker pair (no server):
// restore each component's snapshot section, then fan tail records out
// by their "op" prefix.
RecoveryStats recover_pair(Journal& journal, Database& db, Broker& broker) {
  return journal.recover(
      [&](LoadedSnapshot& snap) {
        const Value* db_state = snap.state.find("db");
        if (db_state != nullptr) db.restore_snapshot(*db_state, snap.segments);
        const Value* brk_state = snap.state.find("brk");
        if (brk_state != nullptr) broker.restore_snapshot(*brk_state);
      },
      [&](const Value& record) {
        const std::string op = record.get_string("op");
        if (starts_with(op, "db.")) db.apply_journal_record(record);
        if (starts_with(op, "brk.")) broker.apply_journal_record(record);
      });
}

// Mirrors ServerLifecycle::snapshot for the pair: the {db, brk} state
// tree, with the docstore sealing its new documents into segments and
// the broker's Value inline.
void snapshot_pair(Journal& journal, Database& db, const Broker& broker) {
  journal.write_snapshot([&](SnapshotWriter& writer) {
    std::string& out = writer.out();
    codec::encode_object_header(2, out);
    codec::encode_key("db", out);
    db.encode_snapshot(writer);
    codec::encode_key("brk", out);
    codec::encode_value(broker.durable_snapshot(), out);
  });
}

std::multiset<std::string> doc_keys(Database& db, const std::string& coll) {
  std::multiset<std::string> keys;
  if (!db.has_collection(coll)) return keys;
  db.collection(coll).for_each([&](const Value& doc) {
    keys.insert(doc.get_string("k") + "#" + doc.get_string("_id"));
  });
  return keys;
}

TEST(JournalRecovery, DocstoreReplaysTailWithoutSnapshot) {
  MemStorageEnv env;
  Database db;
  {
    Journal journal(env);
    db.attach_journal(&journal);
    auto& c = db.collection("obs");
    c.create_index("k");
    c.insert(Value(Object{{"k", Value("a")}}));
    std::string id = c.insert(Value(Object{{"k", Value("b")}}));
    c.insert(Value(Object{{"k", Value("c")}}));
    c.remove(id);
    c.update_many(Query::eq("k", Value("c")),
                  [](Value& doc) { doc.as_object().set("k", Value("c2")); });
    db.attach_journal(nullptr);
  }
  auto before = doc_keys(db, "obs");
  db.crash();
  ASSERT_EQ(db.collection("obs").size(), 0u);

  Journal reopened(env);
  Broker unused;
  RecoveryStats stats = recover_pair(reopened, db, unused);
  EXPECT_FALSE(stats.snapshot_loaded);
  EXPECT_GT(stats.replayed, 0u);
  EXPECT_EQ(stats.skipped_bad, 0u);
  EXPECT_EQ(doc_keys(db, "obs"), before);
  EXPECT_TRUE(db.collection("obs").has_index("k"));
}

TEST(JournalRecovery, SnapshotPlusTailReplay) {
  MemStorageEnv env;
  Database db;
  Broker broker;
  Journal journal(env);
  db.attach_journal(&journal);
  auto& c = db.collection("obs");
  for (int i = 0; i < 5; ++i)
    c.insert(Value(Object{{"k", Value("pre-" + std::to_string(i))}}));

  // Snapshot covers the first five inserts; the tail carries three more.
  snapshot_pair(journal, db, broker);
  for (int i = 0; i < 3; ++i)
    c.insert(Value(Object{{"k", Value("post-" + std::to_string(i))}}));
  db.attach_journal(nullptr);

  auto before = doc_keys(db, "obs");
  db.crash();
  broker.crash();

  Journal reopened(env);
  RecoveryStats stats = recover_pair(reopened, db, broker);
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.replayed, 3u);  // only the post-snapshot tail replays
  EXPECT_EQ(doc_keys(db, "obs"), before);
}

TEST(JournalRecovery, IdGeneratorNeverCollidesAfterRecovery) {
  MemStorageEnv env;
  Database db;
  std::set<std::string> ids;
  {
    Journal journal(env);
    db.attach_journal(&journal);
    auto& c = db.collection("obs");
    for (int i = 0; i < 10; ++i)
      ids.insert(c.insert(Value(Object{{"k", Value(i)}})));
    db.attach_journal(nullptr);
  }
  db.crash();
  Journal reopened(env);
  Broker unused;
  recover_pair(reopened, db, unused);

  // Fresh inserts after recovery must not reuse any replayed _id.
  auto& c = db.collection("obs");
  db.attach_journal(&reopened);
  for (int i = 0; i < 10; ++i) {
    std::string id = c.insert(Value(Object{{"k", Value(100 + i)}}));
    EXPECT_TRUE(ids.insert(id).second) << "generated duplicate _id " << id;
  }
  EXPECT_EQ(c.size(), 20u);
  db.attach_journal(nullptr);
}

TEST(JournalRecovery, DurableQueueMessagesSurviveFlaggedRedelivered) {
  MemStorageEnv env;
  Broker broker;
  Database unused_db;
  Journal journal(env);
  broker.attach_journal(&journal);

  broker.declare_exchange("ex", ExchangeType::kTopic).throw_if_error();
  QueueOptions durable_q;
  durable_q.durable = true;
  broker.declare_queue("q.durable", durable_q).throw_if_error();
  broker.declare_queue("q.volatile").throw_if_error();
  broker.bind_queue("ex", "q.durable", "keep.#").throw_if_error();
  broker.bind_queue("ex", "q.volatile", "lose.#").throw_if_error();

  broker.publish("ex", "keep.1", Value(Object{{"n", Value(1)}}), 10)
      .value_or_throw();
  broker.publish("ex", "keep.2", Value(Object{{"n", Value(2)}}), 20)
      .value_or_throw();
  broker.publish("ex", "lose.1", Value(Object{{"n", Value(3)}}), 30)
      .value_or_throw();
  ASSERT_EQ(broker.queue_depth("q.durable"), 2u);
  ASSERT_EQ(broker.queue_depth("q.volatile"), 1u);

  broker.attach_journal(nullptr);
  env.crash();  // sync_every=1: everything acknowledged is durable
  broker.crash();
  EXPECT_EQ(broker.queue_depth("q.durable"), 0u);

  Journal reopened(env);
  recover_pair(reopened, unused_db, broker);
  broker.finish_recovery();

  // Topology is back (a publish routes), durable messages are back in
  // order and flagged redelivered, the volatile queue came back empty.
  EXPECT_EQ(broker.queue_depth("q.durable"), 2u);
  EXPECT_EQ(broker.queue_depth("q.volatile"), 0u);
  std::optional<Message> m1 = broker.pop("q.durable");
  std::optional<Message> m2 = broker.pop("q.durable");
  ASSERT_TRUE(m1.has_value());
  ASSERT_TRUE(m2.has_value());
  EXPECT_EQ(m1->payload.get_int("n"), 1);
  EXPECT_EQ(m2->payload.get_int("n"), 2);
  EXPECT_TRUE(m1->redelivered);
  EXPECT_TRUE(m2->redelivered);
  EXPECT_EQ(m1->published_at, 10);

  broker.publish("ex", "keep.3", Value(Object{{"n", Value(4)}}), 40)
      .value_or_throw();
  std::optional<Message> m3 = broker.pop("q.durable");
  ASSERT_TRUE(m3.has_value());
  EXPECT_FALSE(m3->redelivered);  // new traffic is not tainted
}

TEST(JournalRecovery, ConsumedDurableMessagesStayConsumed) {
  MemStorageEnv env;
  Broker broker;
  Database unused_db;
  Journal journal(env);
  broker.attach_journal(&journal);

  QueueOptions durable_q;
  durable_q.durable = true;
  broker.declare_exchange("ex", ExchangeType::kDirect).throw_if_error();
  broker.declare_queue("q", durable_q).throw_if_error();
  broker.bind_queue("ex", "q", "k").throw_if_error();
  broker.publish("ex", "k", Value(Object{{"n", Value(1)}}), 1).value_or_throw();
  broker.publish("ex", "k", Value(Object{{"n", Value(2)}}), 2).value_or_throw();
  ASSERT_TRUE(broker.pop("q").has_value());  // auto-ack: deq logged now

  broker.attach_journal(nullptr);
  env.crash();
  broker.crash();
  Journal reopened(env);
  recover_pair(reopened, unused_db, broker);
  broker.finish_recovery();

  // Only the unconsumed message returns — no resurrection of acked work.
  EXPECT_EQ(broker.queue_depth("q"), 1u);
  std::optional<Message> m = broker.pop("q");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload.get_int("n"), 2);
}

TEST(JournalRecovery, GroupCommitCrashRecoversConsistentPrefix) {
  MemStorageEnv env;
  JournalConfig cfg;
  cfg.wal.sync_every = 1000;  // group commit: records pend until sync()
  Database db;
  constexpr int kSynced = 6;
  {
    Journal journal(env, cfg);
    db.attach_journal(&journal);
    auto& c = db.collection("obs");
    for (int i = 0; i < kSynced; ++i)
      c.insert(Value(Object{{"k", Value(i)}}));
    journal.sync();
    for (int i = kSynced; i < kSynced + 7; ++i)
      c.insert(Value(Object{{"k", Value(i)}}));  // never synced
    db.attach_journal(nullptr);
  }
  env.crash();
  db.crash();

  Journal reopened(env, cfg);
  Broker unused;
  RecoveryStats stats = recover_pair(reopened, db, unused);
  // The unsynced suffix is gone, but what survives is an exact prefix of
  // the insert order — never a hole, never a half-applied record.
  EXPECT_EQ(stats.replayed, static_cast<std::uint64_t>(kSynced));
  auto& c = db.collection("obs");
  EXPECT_EQ(c.size(), static_cast<std::size_t>(kSynced));
  std::vector<std::int64_t> ks;
  c.for_each([&](const Value& doc) { ks.push_back(doc.get_int("k")); });
  for (int i = 0; i < kSynced; ++i) EXPECT_EQ(ks[static_cast<std::size_t>(i)], i);
}

TEST(JournalRecovery, MalformedTailRecordIsSkippedNotFatal) {
  MemStorageEnv env;
  Database db;
  {
    Journal journal(env);
    db.attach_journal(&journal);
    db.collection("obs").insert(Value(Object{{"k", Value("good")}}));
    journal.append(Value("not an object record"));  // garbage op-less record
    db.collection("obs").insert(Value(Object{{"k", Value("good2")}}));
    db.attach_journal(nullptr);
  }
  db.crash();
  Journal reopened(env);
  Broker unused;
  RecoveryStats stats = recover_pair(reopened, db, unused);
  EXPECT_EQ(db.collection("obs").size(), 2u);
  EXPECT_EQ(stats.replayed + stats.skipped_bad, 3u);
}

TEST(JournalRecovery, SecondCrashReplaysFromNewestSnapshot) {
  MemStorageEnv env;
  Database db;
  Broker broker;
  // First incarnation + snapshot + crash + recovery.
  {
    Journal journal(env);
    db.attach_journal(&journal);
    db.collection("obs").insert(Value(Object{{"k", Value("one")}}));
    snapshot_pair(journal, db, broker);
    db.attach_journal(nullptr);
  }
  db.crash();
  {
    Journal journal(env);
    recover_pair(journal, db, broker);
    db.attach_journal(&journal);
    db.collection("obs").insert(Value(Object{{"k", Value("two")}}));
    snapshot_pair(journal, db, broker);
    db.collection("obs").insert(Value(Object{{"k", Value("three")}}));
    db.attach_journal(nullptr);
  }
  db.crash();
  // Second recovery: newest snapshot (two docs) + one-record tail.
  Journal journal(env);
  RecoveryStats stats = recover_pair(journal, db, broker);
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.replayed, 1u);
  EXPECT_EQ(db.collection("obs").size(), 3u);
}

// --- Values JSON cannot carry ------------------------------------------

/// Asserts `doc[key]` is a double with exactly the bits of `want` (so
/// NaN payloads and the sign of zero count).
void expect_same_double(const Value& doc, const char* key, double want) {
  const Value* v = doc.find(key);
  ASSERT_NE(v, nullptr) << key;
  ASSERT_TRUE(v->is_double()) << key << " came back as " << v->to_json();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(v->as_double()),
            std::bit_cast<std::uint64_t>(want))
      << key;
}

// JSON text cannot carry these: it has no NaN or infinities, and it
// prints -0.0 and 3.0 as the ints 0 and 3. Recovery through the binary
// codec must return every double with its type and bits, on both paths.
TEST(JournalRecovery, DoublesSurviveReplayAndSnapshotBitExact) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const Value doc(Object{{"_id", Value("obs-1")},
                         {"nan", Value(kNaN)},
                         {"inf", Value(kInf)},
                         {"neg_inf", Value(-kInf)},
                         {"neg_zero", Value(-0.0)},
                         {"three", Value(3.0)}});
  auto check = [&](Database& db) {
    std::optional<Value> got = db.collection("obs").get("obs-1");
    ASSERT_TRUE(got.has_value());
    expect_same_double(*got, "nan", kNaN);
    expect_same_double(*got, "inf", kInf);
    expect_same_double(*got, "neg_inf", -kInf);
    expect_same_double(*got, "neg_zero", -0.0);
    expect_same_double(*got, "three", 3.0);
  };
  for (bool via_snapshot : {false, true}) {
    SCOPED_TRACE(via_snapshot ? "snapshot restore" : "WAL replay");
    MemStorageEnv env;
    Database db;
    Broker broker;
    {
      Journal journal(env);
      db.attach_journal(&journal);
      db.collection("obs").insert(doc);
      if (via_snapshot) snapshot_pair(journal, db, broker);
      db.attach_journal(nullptr);
    }
    db.crash();
    broker.crash();
    Journal reopened(env);
    RecoveryStats stats = recover_pair(reopened, db, broker);
    EXPECT_EQ(stats.snapshot_loaded, via_snapshot);
    EXPECT_EQ(stats.replayed, via_snapshot ? 0u : 1u);
    check(db);
  }
}

// --- Hostile durable payloads -------------------------------------------

/// A codec encoding of `depth` nested one-element arrays around a null.
std::string nested_arrays(std::size_t depth) {
  std::string out;
  for (std::size_t i = 0; i < depth; ++i) codec::encode_array_header(1, out);
  codec::encode_value(Value(), out);
  return out;
}

TEST(JournalRecovery, UndecodableRecordsAreSkippedAndReplayContinues) {
  std::string valid_record;
  codec::encode_value(Value(Object{{"op", Value("db.insert")},
                                   {"c", Value("obs")},
                                   {"doc", Value(Object{{"k", Value("x")}})}}),
                      valid_record);
  const std::vector<std::string> hostile = {
      std::string(1, '\x09'),                        // tag past kObject
      valid_record.substr(0, valid_record.size() / 2),  // truncated
      valid_record + "x",                            // trailing bytes
      nested_arrays(codec::kMaxValueDepth + 1),      // depth 65
  };
  // Depth 64 is the deepest a decoder accepts: the cap sits exactly there.
  Value deepest;
  ASSERT_TRUE(codec::decode_value(nested_arrays(codec::kMaxValueDepth),
                                  deepest));

  MemStorageEnv env;
  Database db;
  {
    Journal journal(env);
    db.attach_journal(&journal);
    for (std::size_t i = 0; i < hostile.size(); ++i) {
      db.collection("obs").insert(
          Value(Object{{"k", Value(static_cast<std::int64_t>(i))}}));
      // Framed with a valid CRC: only the decoder can catch these.
      journal.wal().append(hostile[i]);
    }
    db.collection("obs").insert(Value(Object{{"k", Value("last")}}));
    db.attach_journal(nullptr);
  }
  db.crash();
  Journal reopened(env);
  Broker unused;
  RecoveryStats stats = recover_pair(reopened, db, unused);
  EXPECT_EQ(stats.skipped_bad, hostile.size());
  EXPECT_EQ(stats.replayed, hostile.size() + 1);
  EXPECT_EQ(db.collection("obs").size(), hostile.size() + 1);
}

TEST(JournalRecovery, UndecodableSnapshotIsSkippedAndCounted) {
  MemStorageEnv env;
  Database db;
  Broker broker;
  {
    Journal journal(env);
    db.attach_journal(&journal);
    db.collection("obs").insert(Value(Object{{"k", Value("a")}}));
    snapshot_pair(journal, db, broker);
    db.collection("obs").insert(Value(Object{{"k", Value("b")}}));
    // A newer manifest whose frame and CRC are valid but whose payload is
    // not one codec Value: recovery must fall back to the older one.
    std::string payload;
    codec::encode_object_header(1, payload);
    payload += "\x09";
    std::string framed;
    encode_record(journal.wal().last_lsn(), payload, framed);
    env.write_atomic(snapshot_name(journal.wal().last_lsn()), framed);
    db.attach_journal(nullptr);
  }
  db.crash();
  obs::Registry registry;
  Journal reopened(env, {}, &registry);
  RecoveryStats stats = recover_pair(reopened, db, broker);
  EXPECT_EQ(registry.counter("durable.snapshots_corrupt_skipped").value(), 1u);
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.replayed, 1u);  // the older snapshot's tail
  EXPECT_EQ(stats.skipped_bad, 0u);
  EXPECT_EQ(db.collection("obs").size(), 2u);
}

TEST(JournalRecovery, MutatedSnapshotPayloadsNeverCrashLoading) {
  // A real snapshot: documents, an index and broker topology, as a
  // manifest plus the segment holding the documents.
  struct File {
    std::string name;
    std::uint64_t lsn = 0;  ///< the frame's lsn field
    std::string payload;
  };
  std::vector<File> files;
  {
    MemStorageEnv env;
    Database db;
    Broker broker;
    Journal journal(env);
    db.attach_journal(&journal);
    broker.attach_journal(&journal);
    broker.declare_exchange("ex", ExchangeType::kTopic).throw_if_error();
    auto& c = db.collection("obs");
    c.create_index("k");
    for (int i = 0; i < 4; ++i)
      c.insert(Value(Object{{"k", Value(i)}, {"spl", Value(50.5 + i)}}));
    snapshot_pair(journal, db, broker);
    db.attach_journal(nullptr);
    broker.attach_journal(nullptr);
    for (const std::string& name : env.list()) {
      if (!snapshot_lsn(name).has_value() && !segment_id(name).has_value())
        continue;
      std::string file = env.read(name);
      std::optional<DecodedRecord> rec = decode_record(file, 0);
      ASSERT_TRUE(rec.has_value());
      files.push_back(File{name, rec->lsn, std::string(rec->payload)});
    }
  }
  ASSERT_EQ(files.size(), 2u);  // one segment, one manifest

  // Each file in turn is re-framed with a correct CRC around a damaged
  // payload, beside the intact other, so the decoder itself meets the
  // damage; loading either yields a snapshot or skips it — never a crash
  // or an over-read (ASan/UBSan run this suite). A tree that decodes but
  // is the wrong shape may make restore throw; that too must stay an
  // exception.
  std::size_t loaded = 0;
  std::size_t skipped_total = 0;
  std::size_t payload_bytes = 0;
  auto load = [&](std::size_t damaged, const std::string& mutated) {
    MemStorageEnv env;
    for (std::size_t i = 0; i < files.size(); ++i) {
      std::string framed;
      encode_record(files[i].lsn, i == damaged ? mutated : files[i].payload,
                    framed);
      env.write_atomic(files[i].name, framed);
    }
    std::uint64_t skipped = 0;
    std::optional<LoadedSnapshot> snap = load_latest_snapshot(env, skipped);
    EXPECT_EQ(snap.has_value() ? 0u : 1u, skipped);
    skipped_total += skipped;
    if (!snap.has_value()) return;
    ++loaded;
    Database db;
    Broker broker;
    try {
      if (const Value* d = snap->state.find("db"))
        db.restore_snapshot(*d, snap->segments);
      if (const Value* b = snap->state.find("brk")) broker.restore_snapshot(*b);
    } catch (const std::exception&) {
    }
  };
  Rng rng(65);
  for (std::size_t f = 0; f < files.size(); ++f) {
    SCOPED_TRACE(files[f].name);
    const std::string& payload = files[f].payload;
    payload_bytes += payload.size();
    for (std::size_t pos = 0; pos < payload.size(); ++pos) {
      std::string flipped = payload;
      flipped[pos] = static_cast<char>(
          static_cast<unsigned char>(flipped[pos]) ^
          (1u << rng.uniform_int(0, 7)));
      load(f, flipped);
    }
    for (std::size_t cut = 0; cut < payload.size(); ++cut)
      load(f, payload.substr(0, cut));
  }
  // Both outcomes occur: flips inside string and number bytes still
  // decode, while damaged tags, lengths and every truncation do not.
  EXPECT_GT(loaded, 0u);
  EXPECT_GE(skipped_total, payload_bytes);
}

// --- Manifest over segments -----------------------------------------------

std::vector<std::string> files_with(const MemStorageEnv& env,
                                    const char* prefix) {
  std::vector<std::string> out;
  for (const std::string& name : env.list())
    if (starts_with(name, prefix)) out.push_back(name);
  return out;
}

// The newest manifest loads only when every segment it lists loads. A
// missing segment, a CRC failure and a valid frame around something
// other than an array each skip it (counted), and recovery falls back to
// the older manifest plus the longer WAL tail.
TEST(JournalRecovery, ManifestWithAMissingOrCorruptSegmentIsSkipped) {
  enum class Damage { kMissing, kCrc, kNotAnArray };
  for (Damage damage : {Damage::kMissing, Damage::kCrc, Damage::kNotAnArray}) {
    SCOPED_TRACE(static_cast<int>(damage));
    MemStorageEnv env;
    Database db;
    Broker broker;
    std::string older_name;
    std::string older_manifest;
    {
      Journal journal(env);
      db.attach_journal(&journal);
      db.collection("obs").insert(Value(Object{{"k", Value("a")}}));
      snapshot_pair(journal, db, broker);
      older_name = files_with(env, kSnapshotPrefix).at(0);
      older_manifest = env.read(older_name);
      std::vector<std::string> older_segments = files_with(env, kSegmentPrefix);
      ASSERT_EQ(older_segments.size(), 1u);

      db.collection("obs").insert(Value(Object{{"k", Value("b")}}));
      snapshot_pair(journal, db, broker);
      db.attach_journal(nullptr);
      // The newer manifest lists the older segment plus one new one.
      std::vector<std::string> segments = files_with(env, kSegmentPrefix);
      ASSERT_EQ(segments.size(), 2u);
      ASSERT_EQ(segments[0], older_segments[0]);
      // Keep the older manifest (pruned by the newer one), then damage
      // the segment only the newer manifest lists.
      env.write_atomic(older_name, older_manifest);
      const std::string& newest = segments[1];
      if (damage == Damage::kMissing) {
        env.remove(newest);
      } else if (damage == Damage::kCrc) {
        std::string bytes = env.read(newest);
        bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
        env.write_atomic(newest, bytes);
      } else {
        std::string payload;
        codec::encode_value(Value(Object{{"k", Value("not an array")}}),
                            payload);
        std::string framed;
        encode_record(*segment_id(newest), payload, framed);
        env.write_atomic(newest, framed);
      }
    }
    db.crash();
    obs::Registry registry;
    Journal reopened(env, {}, &registry);
    RecoveryStats stats = recover_pair(reopened, db, broker);
    EXPECT_EQ(registry.counter("durable.snapshots_corrupt_skipped").value(),
              1u);
    EXPECT_TRUE(stats.snapshot_loaded);
    EXPECT_EQ(stats.snapshot_lsn, *snapshot_lsn(older_name));
    EXPECT_EQ(stats.replayed, 1u);  // "b", from the older manifest's tail
    EXPECT_EQ(doc_keys(db, "obs").size(), 2u);
  }
}

/// A storage env that dies (throws) on the first manifest write after
/// `arm()`: the snapshot's segments are written, its manifest never is.
class ManifestCutEnv final : public StorageEnv {
 public:
  void arm() { armed_ = true; }
  MemStorageEnv& mem() { return mem_; }

  std::vector<std::string> list() const override { return mem_.list(); }
  bool exists(const std::string& name) const override {
    return mem_.exists(name);
  }
  std::string read(const std::string& name) const override {
    return mem_.read(name);
  }
  void append(const std::string& name, std::string_view data) override {
    mem_.append(name, data);
  }
  void write_atomic(const std::string& name, std::string_view data) override {
    if (armed_ && snapshot_lsn(name).has_value()) {
      armed_ = false;
      throw std::runtime_error("power cut before " + name);
    }
    mem_.write_atomic(name, data);
  }
  void remove(const std::string& name) override { mem_.remove(name); }
  void sync(const std::string& name) override { mem_.sync(name); }
  void crash() override { mem_.crash(); }

 private:
  MemStorageEnv mem_;
  bool armed_ = false;
};

TEST(JournalRecovery, CrashBetweenSegmentsAndManifestKeepsThePreviousSnapshot) {
  ManifestCutEnv env;
  Database db;
  Broker broker;
  std::string previous;
  std::vector<std::string> orphans;
  {
    Journal journal(env);
    db.attach_journal(&journal);
    db.collection("obs").insert(Value(Object{{"k", Value("a")}}));
    snapshot_pair(journal, db, broker);
    previous = files_with(env.mem(), kSnapshotPrefix).at(0);
    std::vector<std::string> before = files_with(env.mem(), kSegmentPrefix);

    db.collection("obs").insert(Value(Object{{"k", Value("b")}}));
    env.arm();
    EXPECT_THROW(snapshot_pair(journal, db, broker), std::runtime_error);
    db.attach_journal(nullptr);
    // The new segment landed; the manifest listing it did not.
    for (const std::string& name : files_with(env.mem(), kSegmentPrefix))
      if (std::find(before.begin(), before.end(), name) == before.end())
        orphans.push_back(name);
    ASSERT_EQ(orphans.size(), 1u);
    EXPECT_EQ(files_with(env.mem(), kSnapshotPrefix),
              std::vector<std::string>{previous});
  }
  env.crash();
  db.crash();

  Journal reopened(env);
  RecoveryStats stats = recover_pair(reopened, db, broker);
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.snapshot_lsn, *snapshot_lsn(previous));
  EXPECT_EQ(stats.replayed, 1u);
  const std::multiset<std::string> recovered = doc_keys(db, "obs");
  EXPECT_EQ(recovered.size(), 2u);

  // The next snapshot seals the replayed tail under a fresh name and
  // prunes the orphan.
  snapshot_pair(reopened, db, broker);
  std::vector<std::string> segments = files_with(env.mem(), kSegmentPrefix);
  EXPECT_EQ(segments.size(), 2u);
  EXPECT_TRUE(std::find(segments.begin(), segments.end(), orphans[0]) ==
              segments.end());
  db.crash();
  Journal third(env);
  stats = recover_pair(third, db, broker);
  EXPECT_EQ(stats.replayed, 0u);
  EXPECT_EQ(doc_keys(db, "obs"), recovered);
}

}  // namespace
}  // namespace mps::durable
