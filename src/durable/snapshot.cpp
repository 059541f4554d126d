#include "durable/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/codec.h"
#include "durable/wal.h"

namespace mps::durable {

namespace {

std::string snapshot_name(std::uint64_t lsn) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llu",
                static_cast<unsigned long long>(lsn));
  return std::string(kSnapshotPrefix) + buf;
}

}  // namespace

std::optional<std::uint64_t> snapshot_lsn(const std::string& name) {
  const std::string prefix = kSnapshotPrefix;
  if (name.size() != prefix.size() + 16 ||
      name.compare(0, prefix.size(), prefix) != 0)
    return std::nullopt;
  return std::strtoull(name.c_str() + prefix.size(), nullptr, 10);
}

std::size_t write_snapshot(StorageEnv& env, std::uint64_t lsn,
                           const StateWriter& write_state) {
  std::string framed;
  encode_record(lsn, write_state, framed);
  env.write_atomic(snapshot_name(lsn), framed);
  return framed.size();
}

std::optional<LoadedSnapshot> load_latest_snapshot(StorageEnv& env,
                                                   std::uint64_t& skipped) {
  std::vector<std::string> names;
  for (const std::string& name : env.list())
    if (snapshot_lsn(name).has_value()) names.push_back(name);
  // Newest first; fall back on corruption.
  std::sort(names.rbegin(), names.rend());
  for (const std::string& name : names) {
    std::string data = env.read(name);
    std::optional<DecodedRecord> rec = decode_record(data, 0);
    LoadedSnapshot out;
    if (rec.has_value() && rec->lsn == snapshot_lsn(name) &&
        rec->end_offset == data.size() &&
        codec::decode_value(rec->payload, out.state)) {
      out.lsn = rec->lsn;
      return out;
    }
    ++skipped;  // torn, CRC-failed or undecodable: fall back to older
  }
  return std::nullopt;
}

void prune_snapshots(StorageEnv& env, std::uint64_t keep_lsn) {
  for (const std::string& name : env.list()) {
    std::optional<std::uint64_t> lsn = snapshot_lsn(name);
    if (lsn.has_value() && *lsn < keep_lsn) env.remove(name);
  }
}

}  // namespace mps::durable
