#include "durable/journal.h"

#include <algorithm>
#include <atomic>
#include <set>

#include "common/codec.h"

namespace mps::durable {

namespace {

std::atomic<std::uint64_t> next_journal_id{1};

}  // namespace

Journal::Journal(StorageEnv& env, JournalConfig config, obs::Registry* metrics)
    : env_(env),
      wal_(env, config.wal, metrics),
      id_(next_journal_id.fetch_add(1, std::memory_order_relaxed)) {
  for (const std::string& name : env_.list())
    if (std::optional<std::uint64_t> seg = segment_id(name))
      next_segment_ = std::max(next_segment_, *seg + 1);
  if (metrics == nullptr) return;
  obs::Registry& r = *metrics;
  sources_.counter(r, "durable.snapshots", stats_.snapshots);
  sources_.counter(r, "durable.snapshot_bytes_written",
                   stats_.snapshot_bytes_written);
  sources_.counter(r, "durable.snapshots_corrupt_skipped",
                   stats_.snapshots_corrupt_skipped);
  sources_.counter(r, "durable.recoveries", stats_.recoveries);
  sources_.gauge(r, "durable.snapshot_bytes", [this] {
    return static_cast<double>(stats_.snapshot_bytes);
  });
  sources_.gauge(r, "durable.snapshot_segments", [this] {
    return static_cast<double>(stats_.snapshot_segments);
  });
}

std::uint64_t Journal::append(const Value& record) {
  std::string payload;
  codec::encode_value(record, payload);
  return wal_.append(payload);
}

RecoveryStats Journal::recover(
    const std::function<void(LoadedSnapshot&)>& restore_fn,
    const std::function<void(const Value&)>& apply_fn) {
  RecoveryStats stats;
  std::optional<LoadedSnapshot> snap =
      load_latest_snapshot(env_, stats_.snapshots_corrupt_skipped);
  std::uint64_t after = 0;
  if (snap.has_value()) {
    snap->segments.owner = id_;
    segment_bytes_ = std::move(snap->segment_bytes);
    restore_fn(*snap);
    stats.snapshot_loaded = true;
    stats.snapshot_lsn = snap->lsn;
    after = snap->lsn;
  }
  wal_.replay(after, [&](std::uint64_t, std::string_view payload) {
    // A record that framed correctly but doesn't decode (or doesn't
    // apply) is a writer bug, not a storage fault; recovery keeps going
    // so one bad record can't take the whole store down.
    Value record;
    if (!codec::decode_value(payload, record)) {
      ++stats.skipped_bad;
      return;
    }
    try {
      apply_fn(record);
      ++stats.replayed;
    } catch (const std::exception&) {
      ++stats.skipped_bad;
    }
  });
  ++stats_.recoveries;
  return stats;
}

void SnapshotWriter::sequence(
    SealedPrefix& sealed, std::size_t end,
    const std::function<std::uint32_t(std::size_t, std::string&)>&
        encode_from) {
  if (sealed.owner != journal_.id_ || sealed.end > end) {
    sealed.forget();
    sealed.owner = journal_.id_;
  }
  if (end > sealed.end) {
    const std::uint64_t id = journal_.next_segment_;
    std::uint32_t entries = 0;
    std::string framed;
    encode_record(
        id,
        [&](std::string& segment) {
          const std::size_t header = segment.size();
          codec::encode_array_header(0, segment);
          entries = encode_from(sealed.end, segment);
          codec::patch_array_header(header, entries, segment);
        },
        framed);
    if (entries > 0) {
      std::string name = segment_name(id);
      journal_.env_.write_atomic(name, framed);
      ++journal_.next_segment_;
      journal_.stats_.snapshot_bytes_written += framed.size();
      journal_.segment_bytes_[name] = framed.size();
      sealed.segments.push_back(std::move(name));
    }
    sealed.end = end;
  }
  codec::encode_array_header(static_cast<std::uint32_t>(sealed.segments.size()),
                             out_);
  for (const std::string& name : sealed.segments) {
    codec::encode_string(name, out_);
    listed_.push_back(name);
  }
}

void Journal::write_snapshot(
    const std::function<void(SnapshotWriter&)>& write_state) {
  wal_.sync();
  const std::uint64_t lsn = wal_.last_lsn();
  std::string framed;
  std::vector<std::string> listed;
  encode_record(
      lsn,
      [&](std::string& out) {
        SnapshotWriter writer(*this, out);
        codec::encode_object_header(2, out);
        codec::encode_key("state", out);
        write_state(writer);
        codec::encode_key("segments", out);
        codec::encode_array_header(
            static_cast<std::uint32_t>(writer.listed_.size()), out);
        for (const std::string& name : writer.listed_)
          codec::encode_string(name, out);
        listed = std::move(writer.listed_);
      },
      framed);
  // Segments first (written above), then the manifest that lists them.
  env_.write_atomic(snapshot_name(lsn), framed);
  ++stats_.snapshots;
  stats_.snapshot_bytes_written += framed.size();
  stats_.snapshot_bytes = framed.size();
  for (const std::string& name : listed) {
    auto it = segment_bytes_.find(name);
    if (it != segment_bytes_.end()) stats_.snapshot_bytes += it->second;
  }
  stats_.snapshot_segments = listed.size();
  wal_.truncate_through(lsn);

  // Prune: older manifests, and every segment this one does not list
  // (superseded sequences and orphans of a crash mid-snapshot).
  const std::set<std::string> keep(listed.begin(), listed.end());
  for (const std::string& name : env_.list()) {
    std::optional<std::uint64_t> manifest_lsn = snapshot_lsn(name);
    if ((manifest_lsn.has_value() && *manifest_lsn < lsn) ||
        (segment_id(name).has_value() && keep.count(name) == 0)) {
      env_.remove(name);
      segment_bytes_.erase(name);
    }
  }
}

}  // namespace mps::durable
