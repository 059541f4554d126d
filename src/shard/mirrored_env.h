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
// primary and reformats the dead disk as a copy of it; failover is then
// ordinary Journal recovery over this env.
#pragma once

#include <cstdint>
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

  /// Swaps the disks, then removes every file of the new follower and
  /// writes every file of the new primary into it. Call while nothing
  /// writes through this env (the node is down).
  void promote();

  durable::StorageEnv& primary() { return *primary_; }
  durable::StorageEnv& follower() { return *follower_; }
  const MirrorStats& stats() const { return stats_; }

 private:
  durable::StorageEnv* primary_;
  durable::StorageEnv* follower_;
  MirrorStats stats_;
  obs::Sources sources_;
};

}  // namespace mps::shard
