#include "shard/mirrored_env.h"

#include <utility>

#include "durable/snapshot.h"

namespace mps::shard {

MirroredEnv::MirroredEnv(durable::StorageEnv& primary,
                         durable::StorageEnv& follower, obs::Registry* metrics)
    : primary_(&primary), follower_(&follower) {
  if (metrics == nullptr) return;
  sources_.counter(*metrics, "shard.shipped_records", stats_.appends);
  sources_.counter(*metrics, "shard.ship_frames", stats_.syncs);
  sources_.counter(*metrics, "shard.snapshots_mirrored", stats_.manifests);
}

std::vector<std::string> MirroredEnv::list() const { return primary_->list(); }

bool MirroredEnv::exists(const std::string& name) const {
  return primary_->exists(name);
}

std::string MirroredEnv::read(const std::string& name) const {
  return primary_->read(name);
}

void MirroredEnv::append(const std::string& name, std::string_view data) {
  primary_->append(name, data);
  follower_->append(name, data);
  ++stats_.appends;
}

void MirroredEnv::write_atomic(const std::string& name, std::string_view data) {
  primary_->write_atomic(name, data);
  follower_->write_atomic(name, data);
  if (durable::snapshot_lsn(name).has_value()) ++stats_.manifests;
}

void MirroredEnv::remove(const std::string& name) {
  primary_->remove(name);
  follower_->remove(name);
}

void MirroredEnv::sync(const std::string& name) {
  primary_->sync(name);
  follower_->sync(name);
  ++stats_.syncs;
}

void MirroredEnv::crash() { primary_->crash(); }

void MirroredEnv::promote() {
  std::swap(primary_, follower_);
  for (const std::string& name : follower_->list()) follower_->remove(name);
  for (const std::string& name : primary_->list())
    follower_->write_atomic(name, primary_->read(name));
}

}  // namespace mps::shard
