// WalShipper: the replication stream that keeps a follower disk
// promotable. Every appended record must arrive in the follower's Wal
// as the primary framed it (same LSNs, same bytes), shipping must
// survive detach/re-attach (recovery rebuilds the Wal and the cursor
// with it), and a fresh shipper pointed at a half-shipped follower must
// resume where the previous one left off — not re-ship from zero, not
// skip the gap, and not append behind a torn tail. Mirroring a snapshot
// copies only the segments the follower lacks, and truncates the
// follower's log as writing it truncated the primary's.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/value.h"
#include "docstore/database.h"
#include "durable/journal.h"
#include "durable/snapshot.h"
#include "durable/storage.h"
#include "durable/wal.h"
#include "shard/wal_shipper.h"

namespace mps::shard {
namespace {

using durable::MemStorageEnv;
using durable::Wal;
using durable::WalConfig;

using Records = std::vector<std::pair<std::uint64_t, std::string>>;

Records replay_all(durable::StorageEnv& env, const WalConfig& config) {
  Records out;
  Wal wal(env, config);
  wal.replay(0, [&](std::uint64_t lsn, std::string_view payload) {
    out.emplace_back(lsn, std::string(payload));
  });
  return out;
}

TEST(WalShipper, ShipsEveryAppendAsItHappens) {
  WalConfig config;
  MemStorageEnv primary;
  MemStorageEnv follower;
  Wal wal(primary, config);
  WalShipper shipper(0, config);
  shipper.set_follower(&follower);
  shipper.attach(&wal);
  EXPECT_TRUE(shipper.attached());

  Records expected;
  for (int i = 0; i < 20; ++i) {
    std::string payload = "record-" + std::to_string(i);
    expected.emplace_back(wal.append(payload), payload);
  }
  // The append listener drains per append: nothing left to pull.
  EXPECT_EQ(shipper.last_shipped_lsn(), wal.last_lsn());
  EXPECT_EQ(shipper.stats().records_shipped, 20u);
  EXPECT_GT(shipper.stats().frames, 0u);
  EXPECT_GT(shipper.stats().bytes_shipped, 0u);
  shipper.detach();
  EXPECT_FALSE(shipper.attached());
  EXPECT_EQ(wal.open_cursor_count(), 0u);

  EXPECT_EQ(replay_all(follower, config), expected);
}

TEST(WalShipper, CatchesUpOnAttachAndRotatesFollowerSegments) {
  WalConfig config;
  config.segment_bytes = 128;  // force rotation on both sides
  MemStorageEnv primary;
  MemStorageEnv follower;
  Wal wal(primary, config);
  // Appends before anyone is attached: attach() must catch up on the
  // whole backlog, not just tail appends.
  for (int i = 0; i < 50; ++i) wal.append("backlog-" + std::to_string(i));

  WalShipper shipper(0, config);
  shipper.set_follower(&follower);
  shipper.attach(&wal);
  EXPECT_EQ(shipper.last_shipped_lsn(), wal.last_lsn());
  EXPECT_GT(shipper.follower()->segment_count(), 1u);
  EXPECT_EQ(replay_all(follower, config), replay_all(primary, config));
}

TEST(WalShipper, FreshShipperResumesFromFollowerContents) {
  WalConfig config;
  MemStorageEnv primary;
  MemStorageEnv follower;
  Wal wal(primary, config);
  {
    WalShipper first(0, config);
    first.set_follower(&follower);
    first.attach(&wal);
    for (int i = 0; i < 10; ++i) wal.append("early-" + std::to_string(i));
    first.detach();
  }
  // Appends while nobody ships: the gap the successor must close.
  for (int i = 0; i < 10; ++i) wal.append("gap-" + std::to_string(i));

  WalShipper second(0, config);
  second.set_follower(&follower);
  // Scanning the follower recovered the resume point before attaching.
  EXPECT_EQ(second.last_shipped_lsn(), 10u);
  second.attach(&wal);
  EXPECT_EQ(second.last_shipped_lsn(), 20u);
  // Exactly the gap was shipped — no re-ship, no skip.
  EXPECT_EQ(second.stats().records_shipped, 10u);
  EXPECT_EQ(replay_all(follower, config), replay_all(primary, config));
}

// A follower whose last write tore (half a frame, then the shipper went
// away) must be repaired before shipping resumes: records appended after
// the torn bytes would be cut off by the follower's next open.
TEST(WalShipper, ResumesPastATornFollowerTail) {
  WalConfig config;
  MemStorageEnv primary;
  MemStorageEnv follower;
  Wal wal(primary, config);
  {
    WalShipper first(0, config);
    first.set_follower(&follower);
    first.attach(&wal);
    for (int i = 0; i < 10; ++i) wal.append("before-" + std::to_string(i));
    first.detach();
  }
  std::string active;
  for (const std::string& name : follower.list())
    if (name.rfind(config.prefix, 0) == 0) active = name;
  ASSERT_FALSE(active.empty());
  std::string torn;
  durable::encode_record(11, "never finished", torn);
  follower.append(active, std::string_view(torn).substr(0, torn.size() / 2));
  follower.sync(active);

  {
    WalShipper second(0, config);
    second.set_follower(&follower);
    second.attach(&wal);
    for (int i = 0; i < 10; ++i) wal.append("after-" + std::to_string(i));
    second.detach();
  }
  Records replayed = replay_all(follower, config);
  EXPECT_EQ(replayed.size(), 20u);
  EXPECT_EQ(replayed, replay_all(primary, config));
}

// A follower that cannot continue the primary's log — the records after
// its last LSN were truncated from the primary while nobody shipped —
// refuses the next record instead of writing a gap its next open would
// cut off.
TEST(WalShipper, RefusesToShipAcrossAGap) {
  WalConfig config;
  config.segment_bytes = 64;
  MemStorageEnv primary;
  MemStorageEnv follower;
  Wal wal(primary, config);
  WalShipper shipper(0, config);
  shipper.set_follower(&follower);
  shipper.attach(&wal);
  for (int i = 0; i < 5; ++i) wal.append("r-" + std::to_string(i));
  shipper.detach();
  for (int i = 5; i < 20; ++i) wal.append("r-" + std::to_string(i));
  wal.truncate_through(15);  // no cursor open: drops LSN 6 onwards too

  EXPECT_THROW(shipper.attach(&wal), std::logic_error);
  shipper.detach();
  shipper.set_follower(nullptr);
  Records replayed = replay_all(follower, config);
  ASSERT_EQ(replayed.size(), 5u);
  EXPECT_EQ(replayed.back().first, 5u);
}

std::size_t wal_bytes(const MemStorageEnv& env, const WalConfig& config) {
  std::size_t total = 0;
  for (const std::string& name : env.list())
    if (name.rfind(config.prefix, 0) == 0) total += env.read(name).size();
  return total;
}

// A follower holds what its primary holds: the tail since the newest
// snapshot. Mirroring a snapshot truncates the follower's log as writing
// it truncated the primary's, and the follower still recovers the
// snapshot plus exactly the records logged after it.
TEST(WalShipper, FollowerLogIsTruncatedWithTheMirroredSnapshot) {
  durable::JournalConfig jc;
  jc.wal.segment_bytes = 256;
  MemStorageEnv primary;
  MemStorageEnv follower;
  durable::Journal journal(primary, jc);
  WalShipper shipper(0, jc.wal);
  shipper.set_follower(&follower);
  shipper.attach(&journal.wal());

  auto record = [](int round, int i) {
    return Value(Object{{"op", Value("test.put")},
                        {"round", Value(round)},
                        {"i", Value(i)}});
  };
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 40; ++i) journal.append(record(round, i));
    journal.write_snapshot([round](durable::SnapshotWriter& writer) {
      codec::encode_value(Value(Object{{"rounds", Value(round + 1)}}),
                          writer.out());
    });
    shipper.mirror_snapshots(primary);
    std::size_t primary_bytes = wal_bytes(primary, jc.wal);
    std::size_t follower_bytes = wal_bytes(follower, jc.wal);
    EXPECT_LE(follower_bytes, primary_bytes + jc.wal.segment_bytes)
        << "round " << round;
    EXPECT_LE(primary_bytes, follower_bytes + jc.wal.segment_bytes)
        << "round " << round;
  }
  // The tail after the last snapshot, shipped but not yet snapshotted.
  std::vector<Value> tail;
  for (int i = 0; i < 7; ++i) {
    tail.push_back(record(99, i));
    journal.append(tail.back());
  }
  shipper.detach();
  shipper.set_follower(nullptr);

  durable::Journal promoted(follower, jc);
  Value restored;
  std::vector<Value> replayed;
  durable::RecoveryStats stats = promoted.recover(
      [&](durable::LoadedSnapshot& snap) { restored = snap.state; },
      [&](const Value& rec) { replayed.push_back(rec); });
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.snapshot_lsn, journal.wal().last_lsn() - tail.size());
  EXPECT_EQ(restored, Value(Object{{"rounds", Value(6)}}));
  EXPECT_EQ(replayed, tail);
}

TEST(WalShipper, ShipsNothingWithoutAFollower) {
  WalConfig config;
  MemStorageEnv primary;
  Wal wal(primary, config);
  WalShipper shipper(0, config);
  shipper.attach(&wal);
  wal.append("unreplicated");
  EXPECT_EQ(shipper.stats().records_shipped, 0u);
  shipper.detach();
}

TEST(WalShipper, MirrorsSnapshotsAndPrunesStaleOnes) {
  WalConfig config;
  MemStorageEnv primary;
  MemStorageEnv follower;
  WalShipper shipper(0, config);
  shipper.set_follower(&follower);

  primary.write_atomic("seg-0000000000000001", "segment one");
  primary.write_atomic("snap-0000000000000003", "first");
  shipper.mirror_snapshots(primary);
  EXPECT_EQ(follower.read("seg-0000000000000001"), "segment one");
  EXPECT_EQ(follower.read("snap-0000000000000003"), "first");
  EXPECT_EQ(shipper.stats().snapshots_mirrored, 1u);

  // Unchanged snapshots are not re-copied.
  shipper.mirror_snapshots(primary);
  EXPECT_EQ(shipper.stats().snapshots_mirrored, 1u);

  // A manifest rewritten under the same LSN is copied again.
  primary.write_atomic("snap-0000000000000003", "first, again");
  shipper.mirror_snapshots(primary);
  EXPECT_EQ(follower.read("snap-0000000000000003"), "first, again");
  EXPECT_EQ(shipper.stats().snapshots_mirrored, 2u);

  // The primary pruned the old manifest and a superseded segment after
  // writing a new snapshot; the mirror must converge to the same file
  // set or the follower's recovery could load a snapshot the primary
  // already discarded.
  primary.remove("snap-0000000000000003");
  primary.remove("seg-0000000000000001");
  primary.write_atomic("seg-0000000000000002", "segment two");
  primary.write_atomic("snap-0000000000000009", "second");
  shipper.mirror_snapshots(primary);
  EXPECT_FALSE(follower.exists("snap-0000000000000003"));
  EXPECT_FALSE(follower.exists("seg-0000000000000001"));
  EXPECT_EQ(follower.read("seg-0000000000000002"), "segment two");
  EXPECT_EQ(follower.read("snap-0000000000000009"), "second");
  EXPECT_EQ(shipper.stats().snapshots_mirrored, 3u);

  // Non-snapshot files on the primary are never mirrored.
  primary.write_atomic("wal-0000000000000001", "not a snapshot");
  shipper.mirror_snapshots(primary);
  EXPECT_FALSE(follower.exists("wal-0000000000000001"));
}

/// A MemStorageEnv that counts whole-file reads and atomic writes per
/// name.
class CountingEnv final : public durable::StorageEnv {
 public:
  MemStorageEnv& mem() { return mem_; }
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
  std::string read_suffix(const std::string& name,
                          std::size_t offset) const override {
    return mem_.read_suffix(name, offset);
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

std::map<std::string, std::vector<Value>> documents(docstore::Database& db) {
  std::map<std::string, std::vector<Value>> out;
  for (const std::string& name : db.collection_names())
    db.collection(name).for_each(
        [&](const Value& doc) { out[name].push_back(doc); });
  return out;
}

// Segments are immutable and never renamed, so a mirror reads and copies
// only the ones the follower lacks: after the first mirror, each further
// snapshot ships one new segment and its manifest.
TEST(WalShipper, MirrorCopiesOnlyNewSegments) {
  durable::JournalConfig jc;
  CountingEnv primary;
  CountingEnv follower;
  durable::Journal journal(primary, jc);
  docstore::Database db;
  db.attach_journal(&journal);
  WalShipper shipper(0, jc.wal);
  shipper.set_follower(&follower);
  shipper.attach(&journal.wal());
  auto snapshot = [&] {
    journal.write_snapshot(
        [&](durable::SnapshotWriter& writer) { db.encode_snapshot(writer); });
  };
  auto insert = [&](int first, int count) {
    for (int i = first; i < first + count; ++i)
      db.collection("obs").insert(Value(Object{{"i", Value(i)}}));
  };

  insert(0, 50);
  snapshot();
  shipper.mirror_snapshots(primary);
  EXPECT_EQ(shipper.stats().snapshots_mirrored, 1u);

  insert(50, 5);
  snapshot();
  primary.reads().clear();
  follower.writes().clear();
  shipper.mirror_snapshots(primary);
  EXPECT_EQ(shipper.stats().snapshots_mirrored, 2u);
  std::vector<std::string> written;
  for (const auto& [name, n] : follower.writes()) {
    EXPECT_EQ(n, 1) << name;
    written.push_back(name);
  }
  ASSERT_EQ(written.size(), 2u);  // one segment, one manifest
  EXPECT_TRUE(durable::segment_id(written[0]).has_value()) << written[0];
  EXPECT_TRUE(durable::snapshot_lsn(written[1]).has_value()) << written[1];
  // The primary's older segment was never read again.
  for (const auto& [name, n] : primary.reads())
    EXPECT_TRUE(name == written[0] || name == written[1]) << name;
  auto snapshot_files = [](MemStorageEnv& env) {
    std::vector<std::string> out;
    for (const std::string& name : env.list())
      if (durable::segment_id(name) || durable::snapshot_lsn(name))
        out.push_back(name);
    return out;
  };
  EXPECT_EQ(snapshot_files(follower.mem()), snapshot_files(primary.mem()));

  // The promoted follower recovers the primary's state.
  insert(55, 3);  // shipped tail after the snapshot
  const std::map<std::string, std::vector<Value>> live = documents(db);
  db.attach_journal(nullptr);
  shipper.detach();
  shipper.set_follower(nullptr);
  durable::Journal promoted(follower, jc);
  docstore::Database restored;
  durable::RecoveryStats stats = promoted.recover(
      [&](durable::LoadedSnapshot& snap) {
        restored.restore_snapshot(snap.state, snap.segments);
      },
      [&](const Value& record) { restored.apply_journal_record(record); });
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.replayed, 3u);
  EXPECT_EQ(documents(restored), live);
}

}  // namespace
}  // namespace mps::shard
