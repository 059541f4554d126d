#include "shard/wal_shipper.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "durable/snapshot.h"

namespace mps::shard {

WalShipper::WalShipper(std::uint32_t shard, durable::WalConfig wal_config,
                       obs::Registry* metrics)
    : shard_(shard), follower_config_(std::move(wal_config)) {
  // One durability point per drain, not per record (ship() syncs): the
  // follower is a replica, and the primary's ack never depends on it in
  // this topology.
  follower_config_.sync_every = std::numeric_limits<std::uint32_t>::max();
  if (metrics == nullptr) return;
  sources_.counter(*metrics, "shard.shipped_records", stats_.records_shipped);
  sources_.counter(*metrics, "shard.ship_frames", stats_.frames);
  sources_.counter(*metrics, "shard.snapshots_mirrored",
                   stats_.snapshots_mirrored);
}

void WalShipper::set_follower(durable::StorageEnv* env) {
  follower_.reset();
  follower_env_ = env;
  if (env != nullptr)
    follower_ = std::make_unique<durable::Wal>(*env, follower_config_);
}

void WalShipper::attach(durable::Wal* wal) {
  detach();
  wal_ = wal;
  if (wal_ == nullptr) return;
  cursor_ = wal_->open_cursor(last_shipped_lsn());
  wal_->set_append_listener([this] { ship(); });
  ship();  // catch up on anything already in the log
}

void WalShipper::detach() {
  if (wal_ == nullptr) return;
  wal_->set_append_listener({});
  wal_->close_cursor(cursor_);
  wal_ = nullptr;
  cursor_ = 0;
}

void WalShipper::ship() {
  if (wal_ == nullptr || follower_ == nullptr) return;
  std::uint64_t shipped = wal_->cursor_read(
      cursor_, std::numeric_limits<std::uint64_t>::max(),
      [this](const durable::DecodedRecord& rec) {
        try {
          follower_->append_frame(rec.lsn, rec.frame);
        } catch (const std::invalid_argument& e) {
          throw std::logic_error("WalShipper: shard " +
                                 std::to_string(shard_) + ": " + e.what());
        }
        ++stats_.records_shipped;
        stats_.bytes_shipped += rec.frame.size();
      });
  if (shipped == 0) return;
  follower_->sync();
  ++stats_.frames;
}

namespace {

bool is_snapshot_file(const std::string& name) {
  return durable::snapshot_lsn(name).has_value() ||
         durable::segment_id(name).has_value();
}

}  // namespace

void WalShipper::mirror_snapshots(durable::StorageEnv& primary) {
  if (follower_ == nullptr) return;
  std::set<std::string> primary_files;
  std::vector<std::string> manifests;
  std::uint64_t newest = 0;
  for (const std::string& name : primary.list()) {
    if (!is_snapshot_file(name)) continue;
    primary_files.insert(name);
    if (std::optional<std::uint64_t> lsn = durable::snapshot_lsn(name)) {
      manifests.push_back(name);
      newest = std::max(newest, *lsn);
    } else if (!follower_env_->exists(name)) {
      // Segments are immutable and their names never repeat, so one the
      // follower holds is already these bytes: only missing ones are
      // read, and they land before the manifests that list them.
      follower_env_->write_atomic(name, primary.read(name));
    }
  }
  for (const std::string& name : manifests) {
    std::string data = primary.read(name);
    if (follower_env_->exists(name) && follower_env_->read(name) == data)
      continue;
    follower_env_->write_atomic(name, data);
    ++stats_.snapshots_mirrored;
  }
  // Then the files the primary pruned go, so the follower converges on
  // the primary's file set.
  for (const std::string& name : follower_env_->list())
    if (is_snapshot_file(name) && primary_files.count(name) == 0)
      follower_env_->remove(name);
  // The newest snapshot covers the log through its LSN, so the follower
  // drops those segments just as the primary's Journal did.
  follower_->truncate_through(newest);
}

}  // namespace mps::shard
