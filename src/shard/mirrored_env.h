// A shard node's disk: a primary StorageEnv mirrored synchronously onto
// a follower StorageEnv (DESIGN.md §16).
//
// Every write the journal makes — WAL appends and syncs, snapshot
// segments and manifests written atomically, pruned files and truncated
// WAL segments removed — lands on the primary and, in the same call, on
// the follower, so the follower holds the primary's files byte for byte
// without a second log writer or a copy pass. Reads answer from the
// primary. crash() models the primary's host dying: only the primary
// drops its unsynced tail, while the follower, another host's disk,
// keeps every byte it was sent. promote() makes the follower the
// primary and makes the dead disk a copy of it by rewriting only what a
// crash can have made differ: the files appended since their last sync
// and any file one disk lacks. Failover is then ordinary Journal
// recovery over this env.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "durable/storage.h"
#include "obs/metrics.h"

namespace mps::shard {

struct MirrorStats {
  std::uint64_t appends = 0;    ///< appends that reached the follower
  std::uint64_t syncs = 0;      ///< follower syncs: its durability points
  std::uint64_t manifests = 0;  ///< snapshot manifests written to the follower
};

class MirroredEnv final : public durable::StorageEnv {
 public:
  /// `primary` and `follower` must outlive this env. With `metrics`,
  /// registers the stats as shard.shipped_records, shard.ship_frames and
  /// shard.snapshots_mirrored.
  MirroredEnv(durable::StorageEnv& primary, durable::StorageEnv& follower,
              obs::Registry* metrics = nullptr);

  std::vector<std::string> list() const override;
  bool exists(const std::string& name) const override;
  std::string read(const std::string& name) const override;
  void append(const std::string& name, std::string_view data) override;
  void write_atomic(const std::string& name, std::string_view data) override;
  void remove(const std::string& name) override;
  void sync(const std::string& name) override;
  /// Crashes the primary only.
  void crash() override;

  /// Swaps the disks, then makes the new follower a copy of the new
  /// primary: each file appended since its last sync, and each file only
  /// the new primary lists, is written whole into it, and each file only
  /// it lists is removed. Every other file got the same bytes on both
  /// disks and kept them through the crash. Call while nothing writes
  /// through this env (the node is down).
  void promote();

  durable::StorageEnv& primary() { return *primary_; }
  durable::StorageEnv& follower() { return *follower_; }
  const MirrorStats& stats() const { return stats_; }

 private:
  durable::StorageEnv* primary_;
  durable::StorageEnv* follower_;
  /// Files appended since their last sync: the bytes a crash can drop.
  std::set<std::string> unsynced_;
  MirrorStats stats_;
  obs::Sources sources_;
};

}  // namespace mps::shard
