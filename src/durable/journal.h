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
#include <optional>

#include "common/value.h"
#include "durable/snapshot.h"
#include "durable/storage.h"
#include "durable/wal.h"

namespace mps::durable {

struct JournalConfig {
  WalConfig wal;
};

struct JournalStats {
  std::uint64_t snapshots = 0;       ///< snapshots written
  std::uint64_t snapshot_bytes = 0;  ///< framed size of the last one written
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

class Journal {
 public:
  /// With `metrics`, registers the WAL's counters (see Wal) and the
  /// journal's as durable.snapshots, durable.snapshots_corrupt_skipped
  /// and durable.recoveries, plus the last snapshot's size as the
  /// durable.snapshot_bytes gauge, summed over every attached journal.
  explicit Journal(StorageEnv& env, JournalConfig config = {},
                   obs::Registry* metrics = nullptr);

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Logs one record (codec::encode_value); returns its LSN. Durable per
  /// the WAL's sync_every.
  std::uint64_t append(const Value& record);

  /// Forces group-committed appends durable.
  void sync() { wal_.sync(); }

  /// Full recovery: restore_fn(snapshot state) if a snapshot loads,
  /// then apply_fn(record) for each valid tail record in LSN order.
  RecoveryStats recover(
      const std::function<void(const Value& snapshot_state)>& restore_fn,
      const std::function<void(const Value& record)>& apply_fn);

  /// Writes a snapshot covering everything logged so far — `write_state`
  /// streams the state's encoding into the file (see StateWriter) — then
  /// truncates the WAL through it and prunes older snapshots.
  void write_snapshot(const StateWriter& write_state);

  Wal& wal() { return wal_; }
  const Wal& wal() const { return wal_; }
  const JournalStats& stats() const { return stats_; }

 private:
  StorageEnv& env_;
  Wal wal_;
  JournalStats stats_;
  obs::Sources sources_;
};

}  // namespace mps::durable
