#include "durable/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "common/codec.h"
#include "durable/wal.h"

namespace mps::durable {

namespace {

std::string padded_name(const char* prefix, std::uint64_t n) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llu",
                static_cast<unsigned long long>(n));
  return std::string(prefix) + buf;
}

std::optional<std::uint64_t> padded_number(const std::string& name,
                                           std::string_view prefix) {
  if (name.size() != prefix.size() + 16 ||
      name.compare(0, prefix.size(), prefix) != 0)
    return std::nullopt;
  std::uint64_t n = 0;
  for (std::size_t i = prefix.size(); i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    n = n * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return n;
}

/// Decodes the one-record file `name`, whose lsn field must be `expect`,
/// into `out`; returns the file's size, or 0 when it is missing, torn,
/// CRC-failed, carries bytes past its record or does not decode as
/// exactly one Value.
std::size_t read_record_file(StorageEnv& env, const std::string& name,
                             std::uint64_t expect, Value& out) {
  if (!env.exists(name)) return 0;
  std::string data = env.read(name);
  std::optional<DecodedRecord> rec = decode_record(data, 0);
  if (!rec.has_value() || rec->lsn != expect ||
      rec->end_offset != data.size() ||
      !codec::decode_value(rec->payload, out))
    return 0;
  return data.size();
}

/// Loads the manifest `name` and every segment it lists; nullopt when any
/// part of it fails to load.
std::optional<LoadedSnapshot> load_snapshot(StorageEnv& env,
                                            const std::string& name,
                                            std::uint64_t lsn) {
  LoadedSnapshot out;
  Value manifest;
  if (read_record_file(env, name, lsn, manifest) == 0 || !manifest.is_object())
    return std::nullopt;
  Value* state = manifest.as_object().find("state");
  const Value* names = manifest.find("segments");
  if (state == nullptr || names == nullptr || !names->is_array())
    return std::nullopt;
  for (const Value& seg_name : names->as_array()) {
    if (!seg_name.is_string()) return std::nullopt;
    const std::string& file = seg_name.as_string();
    std::optional<std::uint64_t> id = segment_id(file);
    if (!id.has_value()) return std::nullopt;
    Value entries;
    const std::size_t bytes = read_record_file(env, file, *id, entries);
    if (bytes == 0 || !entries.is_array()) return std::nullopt;
    out.segment_bytes[file] = bytes;
    out.segments.arrays[file] = std::move(entries.as_array());
  }
  out.lsn = lsn;
  out.state = std::move(*state);
  return out;
}

}  // namespace

std::string snapshot_name(std::uint64_t lsn) {
  return padded_name(kSnapshotPrefix, lsn);
}

std::string segment_name(std::uint64_t id) {
  return padded_name(kSegmentPrefix, id);
}

std::optional<std::uint64_t> snapshot_lsn(const std::string& name) {
  return padded_number(name, kSnapshotPrefix);
}

std::optional<std::uint64_t> segment_id(const std::string& name) {
  return padded_number(name, kSegmentPrefix);
}

SealedPrefix Segments::take(const Value& names,
                            const std::function<std::size_t(Value&&)>& add) {
  SealedPrefix sealed;
  sealed.owner = owner;
  for (const Value& name : names.as_array()) {
    auto it = arrays.find(name.as_string());
    if (it == arrays.end())
      throw std::runtime_error("snapshot: segment '" + name.as_string() +
                               "' was not loaded");
    for (Value& entry : it->second) sealed.end += add(std::move(entry));
    sealed.segments.push_back(it->first);
    arrays.erase(it);
  }
  return sealed;
}

std::optional<LoadedSnapshot> load_latest_snapshot(StorageEnv& env,
                                                   std::uint64_t& skipped) {
  std::vector<std::string> names;
  for (const std::string& name : env.list())
    if (snapshot_lsn(name).has_value()) names.push_back(name);
  // Newest first; fall back on corruption.
  std::sort(names.rbegin(), names.rend());
  for (const std::string& name : names) {
    std::optional<LoadedSnapshot> snap =
        load_snapshot(env, name, *snapshot_lsn(name));
    if (snap.has_value()) return snap;
    ++skipped;  // damaged manifest or segment: fall back to older
  }
  return std::nullopt;
}

}  // namespace mps::durable
