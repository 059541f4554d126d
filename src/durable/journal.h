// Journal: the Value-record durability layer the middleware writes to.
//
// Components don't frame bytes — they append Values ({"op": "db.insert",
// ...}) and the journal handles the encoding (common/codec.h: binary,
// exact, doubles bit for bit), WAL framing, group commit, snapshots and
// recovery. One journal (one WAL) is shared by the docstore, the broker
// and the server, so the global LSN order totally orders every state
// change across components; records are dispatched back on recovery by
// their "op" prefix ("db.", "brk.", "srv." — see core::ServerLifecycle).
//
// Recovery = load the newest valid snapshot (restore_fn), then replay
// the WAL tail after the snapshot's LSN (apply_fn per record). A fresh
// Journal is constructed per process incarnation over the same
// StorageEnv; construction itself repairs any torn WAL tail.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/sealed.h"
#include "common/value.h"
#include "durable/snapshot.h"
#include "durable/storage.h"
#include "durable/wal.h"

namespace mps::durable {

struct JournalConfig {
  WalConfig wal;
};

struct JournalStats {
  std::uint64_t snapshots = 0;  ///< snapshots written
  /// Framed bytes of the newest snapshot written: its manifest plus every
  /// segment it lists — what a recovery from it reads.
  std::uint64_t snapshot_bytes = 0;
  /// Segments the newest snapshot written lists.
  std::uint64_t snapshot_segments = 0;
  /// Framed bytes of every manifest and segment written.
  std::uint64_t snapshot_bytes_written = 0;
  std::uint64_t snapshots_corrupt_skipped = 0;  ///< passed over by recover()
  std::uint64_t recoveries = 0;
};

struct RecoveryStats {
  bool snapshot_loaded = false;
  std::uint64_t snapshot_lsn = 0;
  std::uint64_t replayed = 0;       ///< tail records applied
  /// Tail records that framed correctly but did not decode as exactly
  /// one Value, or whose apply threw.
  std::uint64_t skipped_bad = 0;
};

class Journal;

/// What Journal::write_snapshot hands the state writer. Components append
/// their small state inline to out() with the codec's streaming calls,
/// and write each large append-mostly sequence with sequence().
class SnapshotWriter {
 public:
  /// The manifest's state encoding.
  std::string& out() { return out_; }

  /// Appends to out() the segment names holding a sequence of `end`
  /// entries, of which `sealed` says which prefix earlier snapshots
  /// wrote. Entries [sealed.end, end) are sealed first, as one new
  /// segment: `encode_from(first, segment)` appends the codec encodings
  /// of the entries from position `first` on and returns how many it
  /// appended (none: no segment is written). A prefix sealed through
  /// another journal, or reaching past `end`, is forgotten first, so the
  /// whole sequence is written. Updates `sealed`.
  void sequence(SealedPrefix& sealed, std::size_t end,
                const std::function<std::uint32_t(std::size_t first,
                                                  std::string& segment)>&
                    encode_from);

 private:
  friend class Journal;
  SnapshotWriter(Journal& journal, std::string& out)
      : journal_(journal), out_(out) {}

  Journal& journal_;
  std::string& out_;
  std::vector<std::string> listed_;  ///< every segment the manifest lists
};

class Journal {
 public:
  /// With `metrics`, registers the WAL's counters (see Wal) and the
  /// journal's as durable.snapshots, durable.snapshot_bytes_written,
  /// durable.snapshots_corrupt_skipped and durable.recoveries, plus the
  /// newest snapshot's size and segment count as the
  /// durable.snapshot_bytes and durable.snapshot_segments gauges, summed
  /// over every attached journal.
  explicit Journal(StorageEnv& env, JournalConfig config = {},
                   obs::Registry* metrics = nullptr);

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Logs one record (codec::encode_value); returns its LSN. Durable per
  /// the WAL's sync_every.
  std::uint64_t append(const Value& record);

  /// Forces group-committed appends durable.
  void sync() { wal_.sync(); }

  /// Full recovery: restore_fn(snapshot) if a snapshot loads — its
  /// segments owned by this journal, for components to take their
  /// sequences from — then apply_fn(record) for each valid tail record
  /// in LSN order.
  RecoveryStats recover(
      const std::function<void(LoadedSnapshot& snapshot)>& restore_fn,
      const std::function<void(const Value& record)>& apply_fn);

  /// Writes a snapshot covering everything logged so far. `write_state`
  /// streams the state tree through the writer: sequences seal their new
  /// entries into segment files (write_atomic) as it goes, and the
  /// manifest follows once the tree is complete. Then the WAL is
  /// truncated through the snapshot's LSN, and older manifests and every
  /// segment the new manifest does not list are deleted. A crash before
  /// the manifest lands leaves the previous snapshot intact; the next
  /// snapshot deletes the orphaned segments.
  void write_snapshot(const std::function<void(SnapshotWriter&)>& write_state);

  Wal& wal() { return wal_; }
  const Wal& wal() const { return wal_; }
  const JournalStats& stats() const { return stats_; }

 private:
  friend class SnapshotWriter;

  StorageEnv& env_;
  Wal wal_;
  /// Process-unique: the owner of the sealed prefixes this journal
  /// writes or restores (see SealedPrefix).
  std::uint64_t id_;
  /// Id of the next segment written: past every segment name present
  /// when the journal opened, so a name never repeats within the env.
  std::uint64_t next_segment_ = 1;
  /// Framed size of every segment this journal wrote or loaded that is
  /// still on disk.
  std::map<std::string, std::size_t> segment_bytes_;
  JournalStats stats_;
  obs::Sources sources_;
};

}  // namespace mps::durable
