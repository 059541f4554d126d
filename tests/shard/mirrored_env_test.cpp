// MirroredEnv: a shard node's disk, mirrored onto a follower disk in the
// writing call. The follower must hold the primary's files, by name and
// bytes, after every WAL append, snapshot, pruning and truncation; a
// crash takes only the primary's unsynced tail; promotion turns the dead
// disk into a copy of the promoted one, rewriting only the files a crash
// can have changed; each snapshot file crosses to the follower once; and
// the WAL's torn-tail repair on the promoted disk lands on both disks.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/value.h"
#include "docstore/database.h"
#include "durable/journal.h"
#include "durable/snapshot.h"
#include "durable/storage.h"
#include "durable/wal.h"
#include "shard/mirrored_env.h"

namespace mps::shard {
namespace {

using durable::MemStorageEnv;

/// Every file of `env` with its bytes (a live process's view: durable
/// bytes plus any unsynced tail).
std::map<std::string, std::string> files(const durable::StorageEnv& env) {
  std::map<std::string, std::string> out;
  for (const std::string& name : env.list()) out[name] = env.read(name);
  return out;
}

std::map<std::string, std::vector<Value>> documents(docstore::Database& db) {
  std::map<std::string, std::vector<Value>> out;
  for (const std::string& name : db.collection_names())
    db.collection(name).for_each(
        [&](const Value& doc) { out[name].push_back(doc); });
  return out;
}

void insert(docstore::Database& db, int first, int count) {
  for (int i = first; i < first + count; ++i)
    db.collection("obs").insert(Value(Object{{"i", Value(i)}}));
}

void snapshot(durable::Journal& journal, docstore::Database& db) {
  journal.write_snapshot(
      [&](durable::SnapshotWriter& writer) { db.encode_snapshot(writer); });
}

TEST(MirroredEnv, FollowerHoldsThePrimarysFilesAfterEveryWrite) {
  MemStorageEnv a;
  MemStorageEnv b;
  MirroredEnv disk(a, b);
  durable::JournalConfig jc;
  jc.wal.segment_bytes = 256;  // rotation and truncation on every round
  durable::Journal journal(disk, jc);
  docstore::Database db;
  db.attach_journal(&journal);

  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 40; ++i) {
      insert(db, round * 40 + i, 1);
      ASSERT_EQ(files(b), files(a)) << "round " << round << " insert " << i;
    }
    snapshot(journal, db);
    ASSERT_EQ(files(b), files(a)) << "round " << round << " snapshot";
  }
  EXPECT_GT(journal.wal().stats().truncated_segments, 0u);
  EXPECT_EQ(disk.stats().appends, 240u);
  EXPECT_EQ(disk.stats().syncs, 240u);
  EXPECT_EQ(disk.stats().manifests, 6u);
  db.attach_journal(nullptr);
}

TEST(MirroredEnv, CrashLosesOnlyThePrimarysUnsyncedTail) {
  MemStorageEnv a;
  MemStorageEnv b;
  MirroredEnv disk(a, b);
  durable::JournalConfig jc;
  jc.wal.sync_every = 8;
  std::map<std::string, std::vector<Value>> live;
  {
    durable::Journal journal(disk, jc);
    docstore::Database db;
    db.attach_journal(&journal);
    insert(db, 0, 50);
    snapshot(journal, db);
    insert(db, 50, 11);  // 8 synced, 3 only in the page cache
    live = documents(db);
    db.attach_journal(nullptr);
  }

  disk.crash();
  EXPECT_NE(files(a), files(b));
  disk.promote();
  EXPECT_EQ(&disk.primary(), &b);
  EXPECT_EQ(files(a), files(b));

  durable::Journal promoted(disk, jc);
  docstore::Database restored;
  durable::RecoveryStats stats = promoted.recover(
      [&](durable::LoadedSnapshot& snap) {
        restored.restore_snapshot(snap.state, snap.segments);
      },
      [&](const Value& record) { restored.apply_journal_record(record); });
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.replayed, 11u);
  EXPECT_EQ(documents(restored), live);
}

TEST(MirroredEnv, PromoteReformatsTheDeadDiskAsACopy) {
  MemStorageEnv a;
  MemStorageEnv b;
  MirroredEnv disk(a, b);
  disk.write_atomic("snap-0000000000000004", "manifest");
  disk.append("wal-0000000000000001", "tail");
  disk.sync("wal-0000000000000001");
  a.write_atomic("stale", "only the dead disk has this");

  disk.crash();
  disk.promote();
  EXPECT_FALSE(a.exists("stale"));
  EXPECT_EQ(files(a), files(b));
  b.write_atomic("fresh", "written on the new primary");
  EXPECT_EQ(disk.list(), b.list());
  EXPECT_EQ(disk.read("fresh"), "written on the new primary");
  EXPECT_FALSE(a.exists("fresh"));

  disk.append("wal-0000000000000001", "+next");
  EXPECT_EQ(a.read("wal-0000000000000001"), "tail+next");
  EXPECT_EQ(b.read("wal-0000000000000001"), "tail+next");
}

/// A MemStorageEnv that counts whole-file reads and atomic writes per
/// name.
class CountingEnv final : public durable::StorageEnv {
 public:
  std::map<std::string, int>& reads() { return reads_; }
  std::map<std::string, int>& writes() { return writes_; }

  std::vector<std::string> list() const override { return mem_.list(); }
  bool exists(const std::string& name) const override {
    return mem_.exists(name);
  }
  std::string read(const std::string& name) const override {
    ++reads_[name];
    return mem_.read(name);
  }
  void append(const std::string& name, std::string_view data) override {
    mem_.append(name, data);
  }
  void write_atomic(const std::string& name, std::string_view data) override {
    ++writes_[name];
    mem_.write_atomic(name, data);
  }
  void remove(const std::string& name) override { mem_.remove(name); }
  void sync(const std::string& name) override { mem_.sync(name); }
  void crash() override { mem_.crash(); }

 private:
  MemStorageEnv mem_;
  mutable std::map<std::string, int> reads_;
  std::map<std::string, int> writes_;
};

// Segments are immutable and their names never repeat, so each one — and
// each manifest — crosses to the follower exactly once, when it is
// written, and nothing is read back from the primary to mirror it.
TEST(MirroredEnv, EachSnapshotFileCrossesOnce) {
  CountingEnv primary;
  CountingEnv follower;
  MirroredEnv disk(primary, follower);
  durable::Journal journal(disk, durable::JournalConfig{});
  docstore::Database db;
  db.attach_journal(&journal);

  insert(db, 0, 50);
  snapshot(journal, db);
  insert(db, 50, 5);
  snapshot(journal, db);
  insert(db, 55, 5);
  snapshot(journal, db);
  db.attach_journal(nullptr);

  int manifests = 0;
  int segments = 0;
  for (const auto& [name, n] : follower.writes()) {
    EXPECT_EQ(n, 1) << name;
    if (durable::snapshot_lsn(name).has_value()) ++manifests;
    if (durable::segment_id(name).has_value()) ++segments;
  }
  EXPECT_EQ(manifests, 3);
  EXPECT_EQ(segments, 3);  // one per snapshot: the rows sealed since the last
  EXPECT_EQ(follower.writes(), primary.writes());
  EXPECT_TRUE(primary.reads().empty());
  EXPECT_EQ(disk.stats().manifests, 3u);
}

// A crash drops only bytes appended since their file's last sync, so
// promotion rewrites only those files: nothing at the fleet's
// sync_every = 1, and just the active WAL segment when its tail was
// unsynced. The disks still end byte-identical.
TEST(MirroredEnv, PromoteRewritesOnlyTheLostTail) {
  for (std::uint32_t sync_every : {1u, 8u}) {
    SCOPED_TRACE(sync_every);
    CountingEnv a;
    CountingEnv b;
    MirroredEnv disk(a, b);
    durable::JournalConfig jc;
    jc.wal.sync_every = sync_every;
    {
      durable::Journal journal(disk, jc);
      docstore::Database db;
      db.attach_journal(&journal);
      insert(db, 0, 50);
      snapshot(journal, db);
      insert(db, 50, 11);  // at sync_every 8: 8 synced, 3 not
      db.attach_journal(nullptr);
    }
    std::string active;
    for (const std::string& name : disk.list())
      if (name.rfind(jc.wal.prefix, 0) == 0) active = name;
    ASSERT_FALSE(active.empty());

    disk.crash();
    const std::map<std::string, int> before = a.writes();
    b.reads().clear();
    disk.promote();
    std::map<std::string, int> rewritten = a.writes();
    for (const auto& [name, n] : before) rewritten[name] -= n;
    std::erase_if(rewritten, [](const auto& entry) { return entry.second == 0; });
    if (sync_every == 1) {
      EXPECT_TRUE(rewritten.empty());
      EXPECT_TRUE(b.reads().empty());
    } else {
      EXPECT_EQ(rewritten, (std::map<std::string, int>{{active, 1}}));
      EXPECT_EQ(b.reads(), (std::map<std::string, int>{{active, 1}}));
    }
    EXPECT_EQ(files(a), files(b));
  }
}

TEST(MirroredEnv, TornTailRepairIsMirrored) {
  MemStorageEnv a;
  MemStorageEnv b;
  MirroredEnv disk(a, b);
  durable::JournalConfig jc;
  auto record = [](int i) {
    return Value(Object{{"op", Value("test.put")}, {"i", Value(i)}});
  };
  {
    durable::Journal journal(disk, jc);
    for (int i = 1; i <= 10; ++i) journal.append(record(i));
  }
  std::string active;
  for (const std::string& name : disk.list())
    if (name.rfind(jc.wal.prefix, 0) == 0) active = name;
  ASSERT_FALSE(active.empty());
  std::string torn;
  durable::encode_record(11, "never finished", torn);
  disk.append(active, std::string_view(torn).substr(0, torn.size() / 2));
  disk.sync(active);

  disk.crash();
  disk.promote();
  durable::Journal promoted(disk, jc);
  EXPECT_EQ(promoted.wal().stats().discarded_tail_records, 1u);
  EXPECT_EQ(promoted.wal().last_lsn(), 10u);
  EXPECT_EQ(files(a), files(b));

  EXPECT_EQ(promoted.append(record(11)), 11u);
  EXPECT_EQ(files(a), files(b));
  std::vector<std::uint64_t> lsns;
  promoted.wal().replay(0, [&](std::uint64_t lsn, std::string_view) {
    lsns.push_back(lsn);
  });
  ASSERT_EQ(lsns.size(), 11u);
  EXPECT_EQ(lsns.back(), 11u);
}

}  // namespace
}  // namespace mps::shard
