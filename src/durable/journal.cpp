#include "durable/journal.h"

#include "common/codec.h"

namespace mps::durable {

Journal::Journal(StorageEnv& env, JournalConfig config, obs::Registry* metrics)
    : env_(env), wal_(env, config.wal, metrics) {
  if (metrics == nullptr) return;
  obs::Registry& r = *metrics;
  sources_.counter(r, "durable.snapshots", stats_.snapshots);
  sources_.counter(r, "durable.snapshots_corrupt_skipped",
                   stats_.snapshots_corrupt_skipped);
  sources_.counter(r, "durable.recoveries", stats_.recoveries);
  sources_.gauge(r, "durable.snapshot_bytes", [this] {
    return static_cast<double>(stats_.snapshot_bytes);
  });
}

std::uint64_t Journal::append(const Value& record) {
  std::string payload;
  codec::encode_value(record, payload);
  return wal_.append(payload);
}

RecoveryStats Journal::recover(
    const std::function<void(const Value&)>& restore_fn,
    const std::function<void(const Value&)>& apply_fn) {
  RecoveryStats stats;
  std::optional<LoadedSnapshot> snap =
      load_latest_snapshot(env_, stats_.snapshots_corrupt_skipped);
  std::uint64_t after = 0;
  if (snap.has_value()) {
    restore_fn(snap->state);
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

void Journal::write_snapshot(const StateWriter& write_state) {
  wal_.sync();
  std::uint64_t lsn = wal_.last_lsn();
  stats_.snapshot_bytes = durable::write_snapshot(env_, lsn, write_state);
  ++stats_.snapshots;
  wal_.truncate_through(lsn);
  prune_snapshots(env_, lsn);
}

}  // namespace mps::durable
