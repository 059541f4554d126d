#include "shard/wal_shipper.h"

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "common/strings.h"
#include "durable/snapshot.h"
#include "net/wire.h"

namespace mps::shard {

namespace {

/// Records per kWalShip frame. Small enough that a frame stays far below
/// the wire's payload bound even with fat journal records; large enough
/// to amortize the codec round-trip during catch-up shipping.
constexpr std::uint64_t kRecordsPerFrame = 64;

bool is_snapshot_file(const std::string& name) {
  return starts_with(name, durable::kSnapshotPrefix);
}

}  // namespace

WalShipper::WalShipper(std::uint32_t shard, durable::WalConfig wal_config,
                       obs::Registry* metrics)
    : shard_(shard), wal_config_(std::move(wal_config)) {
  if (metrics == nullptr) return;
  sources_.counter(*metrics, "shard.shipped_records", stats_.records_shipped);
  sources_.counter(*metrics, "shard.ship_frames", stats_.frames);
  sources_.counter(*metrics, "shard.snapshots_mirrored",
                   stats_.snapshots_mirrored);
}

std::string WalShipper::segment_name(std::uint64_t first_lsn) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIu64, first_lsn);
  return wal_config_.prefix + buf;
}

void WalShipper::set_follower(durable::StorageEnv* env) {
  follower_ = env;
  cur_segment_.clear();
  cur_segment_size_ = 0;
  last_shipped_lsn_ = 0;
  if (follower_ == nullptr) return;
  // Resume in place: the lexicographically last segment is the active
  // one (same naming discipline as the primary Wal), and its last valid
  // record is where shipping left off.
  std::string last_segment;
  for (const std::string& name : follower_->list())
    if (starts_with(name, wal_config_.prefix)) last_segment = name;
  if (last_segment.empty()) return;
  std::string data = follower_->read(last_segment);
  std::size_t offset = 0;
  while (auto rec = durable::decode_record(data, offset)) {
    last_shipped_lsn_ = rec->lsn;
    offset = rec->end_offset;
  }
  cur_segment_ = last_segment;
  cur_segment_size_ = offset;  // valid prefix only; a torn tail is rewritten
}

void WalShipper::attach(durable::Wal* wal) {
  detach();
  wal_ = wal;
  if (wal_ == nullptr) return;
  cursor_ = wal_->open_cursor(last_shipped_lsn_);
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
  bool appended = false;
  while (true) {
    // Collect one frame's worth of records off the cursor...
    net::wire::WalShipMsg msg;
    msg.shard = shard_;
    std::uint64_t got = wal_->cursor_read(
        cursor_, kRecordsPerFrame,
        [&](std::uint64_t lsn, std::string_view payload) {
          msg.records.push_back({lsn, std::string(payload)});
        });
    if (got == 0) break;
    // ...round-trip them through the wire codec (the bytes a socketed
    // follower would receive are the bytes we apply)...
    std::string body;
    net::wire::encode_wal_ship(msg, body);
    net::wire::WalShipMsg decoded;
    if (!net::wire::decode_wal_ship(body, decoded))
      throw std::logic_error("WalShipper: own frame failed to decode");
    ++stats_.frames;
    stats_.bytes_shipped += body.size();
    // ...and apply them to the follower's log.
    for (const net::wire::WalRecord& rec : decoded.records)
      apply_record(rec.lsn, rec.payload);
    appended = true;
    if (got < kRecordsPerFrame) break;  // caught up with the tail
  }
  // One durability point per drain, not per record: the follower is a
  // replica, group-committing its file is safe (the primary's ack never
  // depends on it in this topology).
  if (appended && !cur_segment_.empty()) follower_->sync(cur_segment_);
}

void WalShipper::apply_record(std::uint64_t lsn, std::string_view payload) {
  if (cur_segment_.empty() || cur_segment_size_ >= wal_config_.segment_bytes) {
    cur_segment_ = segment_name(lsn);
    cur_segment_size_ = 0;
    ++stats_.follower_segments;
  }
  std::string framed;
  durable::encode_record(lsn, payload, framed);
  follower_->append(cur_segment_, framed);
  cur_segment_size_ += framed.size();
  last_shipped_lsn_ = lsn;
  ++stats_.records_shipped;
}

void WalShipper::mirror_snapshots(durable::StorageEnv& primary) {
  if (follower_ == nullptr) return;
  std::vector<std::string> primary_snaps;
  for (const std::string& name : primary.list())
    if (is_snapshot_file(name)) primary_snaps.push_back(name);
  // Prune first (the primary prunes after writing, so mirrored state
  // matches), then copy anything new or changed.
  for (const std::string& name : follower_->list()) {
    if (!is_snapshot_file(name)) continue;
    bool keep = false;
    for (const std::string& p : primary_snaps) keep = keep || p == name;
    if (!keep) follower_->remove(name);
  }
  for (const std::string& name : primary_snaps) {
    std::string data = primary.read(name);
    if (follower_->exists(name) && follower_->read(name) == data) continue;
    follower_->write_atomic(name, data);
    ++stats_.snapshots_mirrored;
  }
}

}  // namespace mps::shard
