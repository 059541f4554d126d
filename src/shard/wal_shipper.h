// WAL shipping: the replication pipe between a shard's primary and its
// follower (DESIGN.md §16).
//
// The follower's log is a durable::Wal of its own. A WalShipper holds a
// shipping cursor (durable::Wal cursor API) on the primary's journal WAL
// and, driven by that WAL's append listener, appends every record the
// cursor delivers to the follower Wal verbatim: the cursor has already
// CRC-verified the frame, and Wal::append_frame writes those exact bytes
// under the same LSN. Built with the primary's WalConfig, the follower
// rotates its segments at the same LSNs, so a promoted follower's log is
// the primary's log. Each drain ends with one sync of the follower.
//
// Snapshots are mirrored separately, on demand (after each lifecycle
// snapshot), because state created before the journal attached only
// exists in the snapshot — a follower with only the WAL tail would
// recover an empty base. A snapshot is a manifest ("snap-*") over
// immutable segment files ("seg-*", durable/snapshot.h): mirroring
// copies the segments the follower lacks, then the manifest, and never
// reads a segment the follower already holds, so each sealed entry
// crosses once. It then truncates the follower Wal through the newest
// mirrored snapshot, as the primary's Journal truncates its own log, so
// a follower holds the tail since that snapshot, not the whole history.
// Failover = durable::Journal recovery over the follower env: newest
// mirrored snapshot + shipped tail replay.
//
// Opening the follower Wal (set_follower) repairs a torn tail and gives
// the resume point: after a primary recovery rebuilds its Wal, re-attach
// and the cursor re-opens after the follower's last LSN. The cursor pins
// unread segments against truncate_through (the ship-while-snapshotting
// race fixed in the Wal), so shipping never observes a gap; a gap the
// protocol cannot produce makes ship() throw instead of writing it.
#pragma once

#include <cstdint>
#include <memory>

#include "durable/storage.h"
#include "durable/wal.h"
#include "obs/metrics.h"

namespace mps::shard {

struct ShipperStats {
  std::uint64_t records_shipped = 0;
  /// Drains that shipped at least one record: the follower's sync points.
  std::uint64_t frames = 0;
  /// Framed WAL bytes appended to the follower.
  std::uint64_t bytes_shipped = 0;
  std::uint64_t snapshots_mirrored = 0;
};

class WalShipper {
 public:
  /// `shard` names the node in errors; `wal_config` is the follower log's
  /// config (prefix, rotation threshold) — use the same config the
  /// primary journal uses so a promoted follower's log looks exactly like
  /// a primary's. With `metrics`, registers the stats as
  /// shard.shipped_records, shard.ship_frames and
  /// shard.snapshots_mirrored. The follower Wal itself registers nothing,
  /// so durable.* keeps counting primaries only.
  WalShipper(std::uint32_t shard, durable::WalConfig wal_config,
             obs::Registry* metrics = nullptr);

  WalShipper(const WalShipper&) = delete;
  WalShipper& operator=(const WalShipper&) = delete;

  /// Opens the follower Wal on `env` (which may hold an earlier shipper's
  /// log: the open repairs its torn tail and shipping resumes after its
  /// last record). nullptr releases the follower Wal, which must happen
  /// before anything else opens a Wal on that env (promotion).
  void set_follower(durable::StorageEnv* env);

  /// Attaches to a (fresh) primary WAL: opens a cursor after the
  /// follower's last LSN, registers the append listener and ships
  /// anything the cursor can already see. Call after every primary
  /// journal (re)construction — recovery rebuilds the Wal and cursors do
  /// not survive it.
  void attach(durable::Wal* wal);

  /// Closes the cursor and detaches the listener. MUST be called before
  /// the primary journal is torn down (crash/failover) — the shipper
  /// must never touch a dead Wal.
  void detach();

  /// Drains the cursor now (the append listener calls this; explicit
  /// calls are for tests and post-recovery catch-up).
  void ship();

  /// Copies the primary's segments the follower lacks, then its changed
  /// manifests (counted in snapshots_mirrored), removes follower snapshot
  /// files the primary no longer has (pruning mirrors too), then
  /// truncates the follower Wal through the newest snapshot.
  void mirror_snapshots(durable::StorageEnv& primary);

  /// The follower's log (nullptr without a follower).
  const durable::Wal* follower() const { return follower_.get(); }
  std::uint64_t last_shipped_lsn() const {
    return follower_ != nullptr ? follower_->last_lsn() : 0;
  }
  bool attached() const { return wal_ != nullptr; }
  const ShipperStats& stats() const { return stats_; }

 private:
  std::uint32_t shard_;
  durable::WalConfig follower_config_;
  durable::StorageEnv* follower_env_ = nullptr;
  std::unique_ptr<durable::Wal> follower_;
  durable::Wal* wal_ = nullptr;
  std::uint64_t cursor_ = 0;
  ShipperStats stats_;
  obs::Sources sources_;
};

}  // namespace mps::shard
