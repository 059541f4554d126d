// Point-in-time snapshots: a CRC-framed copy of full component state,
// named by the last LSN it covers ("snap-<lsn, zero-padded to 16>").
//
// A snapshot file reuses the WAL record framing (one record, lsn field =
// covered LSN), written atomically. Its payload is the common/codec.h
// encoding of the state tree. Writers stream that encoding straight
// into the framed buffer (see StateWriter) instead of building the tree
// first; the loader decodes it back into one Value.
// Recovery loads the *newest valid* snapshot — a corrupt newest file is
// skipped and the loader falls back to the next older one (and finally
// to "no snapshot, replay the whole log"), so a failure mid-snapshot
// can never brick recovery. After a successful snapshot the WAL is
// truncated through the covered LSN and older snapshot files pruned.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "common/value.h"
#include "durable/storage.h"

namespace mps::durable {

inline constexpr const char* kSnapshotPrefix = "snap-";

struct LoadedSnapshot {
  std::uint64_t lsn = 0;  ///< log position the state covers
  Value state;
};

/// Appends the codec encoding of the state a snapshot covers — exactly
/// the bytes codec::encode_value would write for the state tree.
using StateWriter = std::function<void(std::string& out)>;

/// Atomically writes a snapshot covering `lsn` whose payload `write_state`
/// appends; returns the framed size in bytes.
std::size_t write_snapshot(StorageEnv& env, std::uint64_t lsn,
                           const StateWriter& write_state);

/// Loads the newest snapshot that passes CRC + decode (a payload that is
/// not exactly one codec Value counts as corrupt), skipping corrupt ones
/// and adding their number to `skipped`. nullopt when none is loadable.
std::optional<LoadedSnapshot> load_latest_snapshot(StorageEnv& env,
                                                   std::uint64_t& skipped);

/// Removes every snapshot older than `keep_lsn` (the one covering
/// keep_lsn itself survives).
void prune_snapshots(StorageEnv& env, std::uint64_t keep_lsn);

/// The LSN a snapshot file covers, read from its name; nullopt when
/// `name` is not a snapshot file's.
std::optional<std::uint64_t> snapshot_lsn(const std::string& name);

}  // namespace mps::durable
