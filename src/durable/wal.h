// Append-only, CRC-checksummed write-ahead log with segment rotation.
//
// Record framing (all integers little-endian, fixed width):
//
//   [u32 payload_len][u32 crc32][u64 lsn][payload bytes]
//
// The CRC (common/crc32.h) covers the lsn field plus the payload, so a
// record whose length field survived a torn write but whose body didn't
// is still rejected. LSNs are assigned densely starting at 1 and never
// reused. The WAL frames opaque payload bytes; the Journal above it
// fills them with codec-encoded Values.
//
// Segments are files named "<prefix><first-lsn, zero-padded to 16>"
// ("wal-0000000000000001", ...); a segment rotates once it reaches
// segment_bytes. Sorting names lexicographically therefore sorts
// segments by LSN — the recovery scan needs no manifest.
//
// Durability contract: append() makes the record durable according to
// sync_every (group commit — sync after every Nth append; sync() forces
// it). A crash between syncs loses the unsynced suffix, which the next
// open detects as a torn tail: the longest valid prefix of records is
// kept, the torn bytes are atomically truncated away, and the log
// continues from there. A corrupt record *before* the tail (bit rot)
// conservatively ends the log at the last valid record before it —
// recovery always yields a consistent prefix, never a crash.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "durable/storage.h"

#include "obs/metrics.h"

namespace mps::durable {

/// Appends one framed record to `out`.
void encode_record(std::uint64_t lsn, std::string_view payload,
                   std::string& out);

/// Appends one framed record whose payload `write_payload` appends to
/// `out` in place — a multi-megabyte snapshot is framed without a
/// staging copy.
void encode_record(std::uint64_t lsn,
                   const std::function<void(std::string&)>& write_payload,
                   std::string& out);

/// One decoded record plus the offset just past it. The views point
/// into the scanned buffer.
struct DecodedRecord {
  std::uint64_t lsn = 0;
  std::string_view payload;
  std::size_t end_offset = 0;
};

/// Decodes the record at `offset`; nullopt on truncation or CRC/frame
/// mismatch (the caller treats that as end-of-valid-prefix).
std::optional<DecodedRecord> decode_record(std::string_view buffer,
                                           std::size_t offset);

struct WalConfig {
  std::string prefix = "wal-";
  /// Rotation threshold; a segment admits records until it crosses this.
  std::size_t segment_bytes = 256 * 1024;
  /// Group commit: sync the active segment after every Nth append.
  /// 1 = sync every record (nothing acknowledged is ever lost).
  std::uint32_t sync_every = 1;
};

struct WalStats {
  std::uint64_t appends = 0;
  std::uint64_t bytes_appended = 0;  ///< framed record bytes
  std::uint64_t syncs = 0;           ///< fsync batches issued
  std::uint64_t segments_created = 0;
  std::uint64_t replayed_records = 0;
  std::uint64_t discarded_tail_records = 0;  ///< torn/corrupt, dropped on open
  std::uint64_t discarded_tail_bytes = 0;
  std::uint64_t truncated_segments = 0;      ///< whole segments compacted away
};

/// The log. Opening scans existing segments, repairs any torn tail and
/// resumes LSN assignment after the last valid record.
class Wal {
 public:
  /// With `metrics`, registers the stats as durable.* counters
  /// (wal_appends, wal_bytes, fsync_batches, replayed_records,
  /// discarded_tail_records) and the segment count as the
  /// durable.wal_segments gauge, summed over every attached Wal.
  explicit Wal(StorageEnv& env, WalConfig config = {},
               obs::Registry* metrics = nullptr);

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends one record; returns its LSN. Durable per sync_every.
  std::uint64_t append(std::string_view payload);

  /// Forces any unsynced appends to durability now.
  void sync();

  /// Replays every record with lsn > after_lsn, in LSN order: the valid
  /// prefix open_existing() kept, then what this Wal appended. Their
  /// CRCs were checked once, at open or when framed, so replay reads
  /// frame headers only. Returns the number of records delivered to `fn`.
  std::uint64_t replay(
      std::uint64_t after_lsn,
      const std::function<void(std::uint64_t lsn, std::string_view payload)>&
          fn);

  /// Drops whole segments whose records are all <= lsn (they are covered
  /// by a snapshot). The active segment is never removed.
  void truncate_through(std::uint64_t lsn);

  /// LSN the next append will get.
  std::uint64_t next_lsn() const { return next_lsn_; }
  /// LSN of the last appended record (0 if none yet).
  std::uint64_t last_lsn() const { return next_lsn_ - 1; }

  std::size_t segment_count() const { return segments_.size(); }
  const WalStats& stats() const { return stats_; }
  const WalConfig& config() const { return config_; }

 private:
  struct Segment {
    std::string name;
    std::uint64_t first_lsn = 0;
    std::size_t size = 0;  // valid bytes (post tail-repair)
  };

  void open_existing();
  void start_segment(std::uint64_t first_lsn);
  std::string segment_name(std::uint64_t first_lsn) const;

  StorageEnv& env_;
  WalConfig config_;
  std::vector<Segment> segments_;
  std::uint64_t next_lsn_ = 1;
  std::uint32_t unsynced_appends_ = 0;
  WalStats stats_;
  obs::Sources sources_;
};

}  // namespace mps::durable
