// Point-in-time snapshots: a CRC-framed copy of full component state,
// named by the last LSN it covers ("snap-<lsn, zero-padded to 16>").
//
// A snapshot file reuses the WAL record framing (one record holding the
// JSON-serialized state, lsn field = covered LSN), written atomically.
// Recovery loads the *newest valid* snapshot — a corrupt newest file is
// skipped and the loader falls back to the next older one (and finally
// to "no snapshot, replay the whole log"), so a failure mid-snapshot
// can never brick recovery. After a successful snapshot the WAL is
// truncated through the covered LSN and older snapshot files pruned.
#pragma once

#include <cstddef>
#include <cstdint>
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

/// Atomically writes a snapshot of `state` covering `lsn`; returns the
/// framed size in bytes.
std::size_t write_snapshot(StorageEnv& env, std::uint64_t lsn,
                           const Value& state);

/// Loads the newest snapshot that passes CRC + parse, skipping corrupt
/// ones and adding their number to `skipped`. nullopt when none is
/// loadable.
std::optional<LoadedSnapshot> load_latest_snapshot(StorageEnv& env,
                                                   std::uint64_t& skipped);

/// Removes every snapshot older than `keep_lsn` (the one covering
/// keep_lsn itself survives).
void prune_snapshots(StorageEnv& env, std::uint64_t keep_lsn);

}  // namespace mps::durable
