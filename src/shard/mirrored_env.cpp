#include "shard/mirrored_env.h"

#include <algorithm>
#include <iterator>
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
  unsynced_.insert(name);
  ++stats_.appends;
}

void MirroredEnv::write_atomic(const std::string& name, std::string_view data) {
  primary_->write_atomic(name, data);
  follower_->write_atomic(name, data);
  unsynced_.erase(name);
  if (durable::snapshot_lsn(name).has_value()) ++stats_.manifests;
}

void MirroredEnv::remove(const std::string& name) {
  primary_->remove(name);
  follower_->remove(name);
  unsynced_.erase(name);
}

void MirroredEnv::sync(const std::string& name) {
  primary_->sync(name);
  follower_->sync(name);
  unsynced_.erase(name);
  ++stats_.syncs;
}

void MirroredEnv::crash() { primary_->crash(); }

void MirroredEnv::promote() {
  std::swap(primary_, follower_);
  // Both lists are sorted, so merge walks find the names one disk
  // lacks. A name that stays unsynced keeps its entry, since the new
  // primary still holds those bytes unsynced.
  const std::vector<std::string> primary_names = primary_->list();
  const std::vector<std::string> follower_names = follower_->list();
  std::set<std::string> rewrite = unsynced_;
  std::vector<std::string> stale;
  std::set_difference(primary_names.begin(), primary_names.end(),
                      follower_names.begin(), follower_names.end(),
                      std::inserter(rewrite, rewrite.end()));
  std::set_difference(follower_names.begin(), follower_names.end(),
                      primary_names.begin(), primary_names.end(),
                      std::back_inserter(stale));
  for (const std::string& name : stale) follower_->remove(name);
  for (const std::string& name : rewrite)
    follower_->write_atomic(name, primary_->read(name));
}

}  // namespace mps::shard
