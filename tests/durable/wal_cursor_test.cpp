// Shipping cursors: the WAL's replication read path (DESIGN.md §16).
//
// A WalShipper streams the log to a follower through a cursor; these
// tests pin the cursor contract — exactly-once in-order delivery across
// segment rotation, incremental tail reads, and (the regression this
// file exists for) truncate_through refusing to drop a segment an open
// cursor has not finished shipping. Before the clamp, a snapshot racing
// an in-flight shipping pass would compact records out from under the
// cursor and the follower's history would silently skip them.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "durable/storage.h"
#include "durable/wal.h"

namespace mps::durable {
namespace {

WalConfig small_segments() {
  WalConfig cfg;
  cfg.segment_bytes = 64;  // a couple of records per segment
  return cfg;
}

std::vector<std::pair<std::uint64_t, std::string>> drain(Wal& wal,
                                                         std::uint64_t cursor,
                                                         std::uint64_t max) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  wal.cursor_read(cursor, max, [&](const DecodedRecord& rec) {
    out.emplace_back(rec.lsn, std::string(rec.payload));
  });
  return out;
}

TEST(WalCursor, DeliversEveryRecordInOrderAcrossRotation) {
  MemStorageEnv env;
  Wal wal(env, small_segments());
  for (int i = 0; i < 20; ++i) wal.append("record-" + std::to_string(i));
  ASSERT_GT(wal.segment_count(), 2u);

  std::uint64_t cursor = wal.open_cursor(0);
  // Read in small chunks so chunk boundaries cross segment boundaries.
  std::vector<std::pair<std::uint64_t, std::string>> got;
  while (true) {
    auto chunk = drain(wal, cursor, 3);
    if (chunk.empty()) break;
    got.insert(got.end(), chunk.begin(), chunk.end());
  }
  ASSERT_EQ(got.size(), 20u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, i + 1);
    EXPECT_EQ(got[i].second, "record-" + std::to_string(i));
  }
  EXPECT_EQ(wal.cursor_position(cursor), 20u);
  wal.close_cursor(cursor);
  EXPECT_EQ(wal.open_cursor_count(), 0u);
}

TEST(WalCursor, TailReadsPickUpNewAppendsIncrementally) {
  MemStorageEnv env;
  Wal wal(env, small_segments());
  std::uint64_t cursor = wal.open_cursor(0);
  EXPECT_TRUE(drain(wal, cursor, 100).empty());  // empty log: caught up

  wal.append("a");
  wal.append("b");
  auto first = drain(wal, cursor, 100);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[1].second, "b");

  wal.append("c");
  auto second = drain(wal, cursor, 100);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].first, 3u);
  EXPECT_EQ(second[0].second, "c");
  EXPECT_EQ(wal.stats().cursor_records, 3u);
}

// The ship-while-snapshotting race: a snapshot covering the whole log
// must not compact segments the shipping cursor is still mid-way
// through. truncate_through re-anchors to the cursor, the cursor ships
// the rest without a gap, and the *next* truncation reclaims the space.
TEST(WalCursor, TruncateReanchorsToOpenShippingCursor) {
  MemStorageEnv env;
  Wal wal(env, small_segments());
  for (int i = 0; i < 20; ++i) wal.append("r" + std::to_string(i));
  std::size_t before = wal.segment_count();
  ASSERT_GT(before, 2u);

  std::uint64_t cursor = wal.open_cursor(0);
  auto shipped = drain(wal, cursor, 2);  // mid-segment, far behind the tip
  ASSERT_EQ(shipped.size(), 2u);

  // Snapshot at the log tip: without the clamp this drops every sealed
  // segment, including the one the cursor sits in.
  wal.truncate_through(wal.last_lsn());
  EXPECT_EQ(wal.segment_count(), before);
  EXPECT_EQ(wal.stats().truncate_clamped, 1u);
  EXPECT_EQ(wal.stats().truncated_segments, 0u);

  // The cursor still ships a complete, gapless history.
  auto rest = drain(wal, cursor, 1000);
  ASSERT_EQ(rest.size(), 18u);
  EXPECT_EQ(rest.front().first, 3u);
  EXPECT_EQ(rest.back().first, 20u);

  // Caught up: the same truncation now reclaims the sealed segments.
  wal.truncate_through(wal.last_lsn());
  EXPECT_EQ(wal.segment_count(), 1u);
  EXPECT_GT(wal.stats().truncated_segments, 0u);
  wal.close_cursor(cursor);
}

TEST(WalCursor, SlowestOfSeveralCursorsAnchorsTruncation) {
  MemStorageEnv env;
  Wal wal(env, small_segments());
  for (int i = 0; i < 12; ++i) wal.append("x" + std::to_string(i));
  std::uint64_t fast = wal.open_cursor(0);
  std::uint64_t slow = wal.open_cursor(0);
  drain(wal, fast, 1000);  // fast cursor fully caught up
  drain(wal, slow, 1);     // slow cursor at lsn 1

  std::size_t before = wal.segment_count();
  wal.truncate_through(wal.last_lsn());
  EXPECT_EQ(wal.segment_count(), before);  // slow cursor pins everything

  wal.close_cursor(slow);
  wal.truncate_through(wal.last_lsn());
  EXPECT_EQ(wal.segment_count(), 1u);  // fast cursor pins nothing
  wal.close_cursor(fast);
}

TEST(WalCursor, CursorOpenedBelowCompactedPrefixSkipsForward) {
  MemStorageEnv env;
  Wal wal(env, small_segments());
  for (int i = 0; i < 20; ++i) wal.append("y" + std::to_string(i));
  wal.truncate_through(10);  // no cursors: compacts freely
  ASSERT_LT(wal.segment_count(), 5u);
  std::uint64_t first_retained = 0;
  wal.replay(0, [&](std::uint64_t lsn, std::string_view) {
    if (first_retained == 0) first_retained = lsn;
  });
  ASSERT_GT(first_retained, 1u);

  std::uint64_t cursor = wal.open_cursor(0);
  auto got = drain(wal, cursor, 1000);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.front().first, first_retained);
  EXPECT_EQ(got.back().first, 20u);
  wal.close_cursor(cursor);
}

TEST(WalCursor, UnknownCursorThrowsAndCloseIsIdempotent) {
  MemStorageEnv env;
  Wal wal(env);
  EXPECT_THROW(wal.cursor_position(42), std::invalid_argument);
  EXPECT_THROW(wal.cursor_read(42, 1, [](const DecodedRecord&) {}),
               std::invalid_argument);
  wal.close_cursor(42);  // no-op
}

std::vector<std::string> segment_files(const MemStorageEnv& env) {
  std::vector<std::string> out;
  for (const std::string& name : env.list()) out.push_back(env.read(name));
  return out;
}

// Shipping's write path: the frames a cursor delivers, appended to a
// second Wal with the same config, rebuild the primary's segment files
// byte for byte.
TEST(WalCursor, CursorFramesAppendVerbatimIntoAnotherWal) {
  MemStorageEnv primary_env;
  MemStorageEnv follower_env;
  Wal primary(primary_env, small_segments());
  Wal follower(follower_env, small_segments());
  for (int i = 0; i < 20; ++i) primary.append("frame-" + std::to_string(i));
  ASSERT_GT(primary.segment_count(), 2u);

  std::uint64_t cursor = primary.open_cursor(0);
  std::uint64_t frame_bytes = 0;
  primary.cursor_read(cursor, 1000, [&](const DecodedRecord& rec) {
    EXPECT_EQ(rec.frame.substr(rec.frame.size() - rec.payload.size()),
              rec.payload);
    follower.append_frame(rec.lsn, rec.frame);
    frame_bytes += rec.frame.size();
  });
  follower.sync();
  EXPECT_EQ(follower.last_lsn(), primary.last_lsn());
  EXPECT_EQ(follower.stats().appends, 20u);
  EXPECT_EQ(follower.stats().bytes_appended, frame_bytes);
  EXPECT_EQ(frame_bytes, primary.stats().bytes_appended);
  EXPECT_EQ(follower.segment_count(), primary.segment_count());
  EXPECT_EQ(segment_files(follower_env), segment_files(primary_env));
  primary.close_cursor(cursor);
}

TEST(WalCursor, AppendFrameAdoptsTheFirstLsnThenRequiresTheNext) {
  MemStorageEnv primary_env;
  Wal primary(primary_env, small_segments());
  for (int i = 0; i < 6; ++i) primary.append("z" + std::to_string(i));
  std::vector<std::pair<std::uint64_t, std::string>> frames;
  std::uint64_t cursor = primary.open_cursor(0);
  primary.cursor_read(cursor, 1000, [&](const DecodedRecord& rec) {
    frames.emplace_back(rec.lsn, std::string(rec.frame));
  });
  primary.close_cursor(cursor);

  MemStorageEnv follower_env;
  {
    Wal follower(follower_env, small_segments());
    // An empty log starts wherever shipping starts (here: LSN 3, as after
    // a failover onto a primary whose older segments are truncated).
    follower.append_frame(frames[2].first, frames[2].second);
    EXPECT_EQ(follower.next_lsn(), 4u);
    // A gap and a replay both throw and write nothing.
    EXPECT_THROW(follower.append_frame(frames[4].first, frames[4].second),
                 std::invalid_argument);
    EXPECT_THROW(follower.append_frame(frames[2].first, frames[2].second),
                 std::invalid_argument);
    follower.append_frame(frames[3].first, frames[3].second);
    EXPECT_EQ(follower.stats().appends, 2u);
    follower.sync();
  }
  Wal reopened(follower_env, small_segments());
  std::vector<std::uint64_t> lsns;
  reopened.replay(0, [&](std::uint64_t lsn, std::string_view) {
    lsns.push_back(lsn);
  });
  EXPECT_EQ(lsns, (std::vector<std::uint64_t>{3, 4}));
  EXPECT_EQ(reopened.next_lsn(), 5u);
  // A log with records no longer adopts.
  EXPECT_THROW(reopened.append_frame(frames[0].first, frames[0].second),
               std::invalid_argument);
}

TEST(MemStorageEnvSuffix, ReadSuffixSpansDurableAndPendingBytes) {
  MemStorageEnv env;
  env.append("f", "abcdef");
  env.sync("f");
  env.append("f", "ghij");  // pending tail
  EXPECT_EQ(env.read_suffix("f", 0), "abcdefghij");
  EXPECT_EQ(env.read_suffix("f", 3), "defghij");
  EXPECT_EQ(env.read_suffix("f", 6), "ghij");
  EXPECT_EQ(env.read_suffix("f", 8), "ij");
  EXPECT_EQ(env.read_suffix("f", 10), "");
  EXPECT_EQ(env.read_suffix("f", 99), "");
  EXPECT_THROW(env.read_suffix("missing", 0), std::runtime_error);
}

}  // namespace
}  // namespace mps::durable
