// WAL shipping: the replication pipe between a shard's primary and its
// follower (DESIGN.md §16).
//
// A WalShipper holds a shipping cursor (durable::Wal cursor API) on the
// primary's journal WAL and, driven by the WAL's append listener, drains
// every new record into kWalShip wire frames which it applies to the
// follower's StorageEnv — appending the records byte-identically
// (preserved LSNs, same segment framing and naming discipline) so the
// follower's log is a valid Wal the promoted Journal can recover from.
// The frames genuinely round-trip through the wire codec (encode then
// decode) even in-process, so the shipped bytes are exactly what a
// socketed follower would apply.
//
// Snapshots are mirrored separately: the primary's "snap-*" files are
// copied to the follower on demand (after each lifecycle snapshot),
// because state created before the journal attached only exists in the
// snapshot — a follower with only the WAL tail would recover an empty
// base. Failover = durable::Journal recovery over the follower env:
// newest mirrored snapshot + shipped tail replay.
//
// The cursor pins unread segments against truncate_through (the
// ship-while-snapshotting race fixed in the Wal), so shipping never
// observes a gap. After a primary recovery rebuilds its Wal, re-attach:
// the shipper remembers the last LSN it applied and re-opens its cursor
// there.
#pragma once

#include <cstdint>
#include <string>

#include "durable/storage.h"
#include "durable/wal.h"
#include "obs/metrics.h"

namespace mps::shard {

struct ShipperStats {
  std::uint64_t records_shipped = 0;
  std::uint64_t frames = 0;         ///< kWalShip frames encoded+decoded
  std::uint64_t bytes_shipped = 0;  ///< wire frame bytes
  std::uint64_t snapshots_mirrored = 0;
  std::uint64_t follower_segments = 0;
};

class WalShipper {
 public:
  /// `shard` tags the wire frames; `wal_config` supplies the follower's
  /// segment discipline (prefix, rotation threshold) — use the same
  /// config the primary journal uses so a promoted follower's log looks
  /// exactly like a primary's. With `metrics`, registers the stats as
  /// shard.shipped_records, shard.ship_frames and
  /// shard.snapshots_mirrored.
  WalShipper(std::uint32_t shard, durable::WalConfig wal_config,
             obs::Registry* metrics = nullptr);

  WalShipper(const WalShipper&) = delete;
  WalShipper& operator=(const WalShipper&) = delete;

  /// Points the shipper at (a possibly non-empty) follower env and scans
  /// it for existing shipped segments so appends continue in place.
  void set_follower(durable::StorageEnv* env);

  /// Attaches to a (fresh) primary WAL: opens a cursor after the last
  /// LSN already applied to the follower, registers the append listener
  /// and ships anything the cursor can already see. Call after every
  /// primary journal (re)construction — recovery rebuilds the Wal and
  /// cursors do not survive it.
  void attach(durable::Wal* wal);

  /// Closes the cursor and detaches the listener. MUST be called before
  /// the primary journal is torn down (crash/failover) — the shipper
  /// must never touch a dead Wal.
  void detach();

  /// Drains the cursor now (the append listener calls this; explicit
  /// calls are for tests and post-recovery catch-up).
  void ship();

  /// Copies the primary's snapshot files to the follower, removing
  /// follower snapshots the primary no longer has (pruning mirrors too).
  void mirror_snapshots(durable::StorageEnv& primary);

  std::uint64_t last_shipped_lsn() const { return last_shipped_lsn_; }
  bool attached() const { return wal_ != nullptr; }
  const ShipperStats& stats() const { return stats_; }

 private:
  void apply_record(std::uint64_t lsn, std::string_view payload);
  std::string segment_name(std::uint64_t first_lsn) const;

  std::uint32_t shard_;
  durable::WalConfig wal_config_;
  durable::StorageEnv* follower_ = nullptr;
  durable::Wal* wal_ = nullptr;
  std::uint64_t cursor_ = 0;
  std::uint64_t last_shipped_lsn_ = 0;
  /// Follower-side active segment (empty name = none yet).
  std::string cur_segment_;
  std::size_t cur_segment_size_ = 0;
  ShipperStats stats_;
  obs::Sources sources_;
};

}  // namespace mps::shard
