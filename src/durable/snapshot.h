// Point-in-time snapshots: a small manifest over immutable segment files
// (DESIGN.md §11), the LevelDB/RocksDB manifest model.
//
// A manifest ("snap-<lsn, zero-padded to 16>") is one record in the WAL
// framing (lsn field = the last LSN the snapshot covers), written
// atomically. Its payload is the common/codec.h encoding of
//   {"state": <state tree>, "segments": [segment name...]}
// The state tree carries everything small inline; each large
// append-mostly sequence (a collection's documents, a dedup set's keys)
// appears in it as the ordered list of segments that hold its entries.
// A segment ("seg-<id, zero-padded to 16>") is one record in the same
// framing (lsn field = its id) whose payload encodes an array of
// entries. Segments are immutable and their names never repeat within
// an env, so a later manifest lists an earlier segment by name instead
// of encoding its entries again (see Journal::write_snapshot for the
// write order and pruning).
//
// Recovery loads the *newest loadable* manifest: its frame must be valid
// and every segment it lists must exist, pass its CRC and decode as an
// array. Anything else is skipped and counted, and the loader falls back
// to the next older manifest (and finally to "no snapshot, replay the
// whole log"), so a failure mid-snapshot can never brick recovery.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "common/sealed.h"
#include "common/value.h"
#include "durable/storage.h"

namespace mps::durable {

inline constexpr const char* kSnapshotPrefix = "snap-";
inline constexpr const char* kSegmentPrefix = "seg-";

/// The file name of the manifest covering `lsn`.
std::string snapshot_name(std::uint64_t lsn);
/// The file name of segment `id`.
std::string segment_name(std::uint64_t id);

/// The LSN a manifest covers, read from its name; nullopt when `name` is
/// not a manifest's.
std::optional<std::uint64_t> snapshot_lsn(const std::string& name);
/// A segment's id, read from its name; nullopt when `name` is not a
/// segment's.
std::optional<std::uint64_t> segment_id(const std::string& name);

/// The decoded segments a loaded manifest lists. Restore moves each
/// sequence's entries out of them into the live store.
struct Segments {
  /// Id of the journal that loaded them (0 outside a journal).
  std::uint64_t owner = 0;
  std::map<std::string, Array> arrays;

  /// Passes every entry of the segments `names` lists to `add`, in order,
  /// moving it out, and returns the prefix they seal: `add` returns how
  /// many positions its entry fills (a collection's run of lazy rows
  /// fills one slot per row), and the prefix ends past the last. Each
  /// segment is taken once. Throws std::runtime_error when `names` is not
  /// an array of segment names this snapshot loaded.
  SealedPrefix take(const Value& names,
                    const std::function<std::size_t(Value&& entry)>& add);
};

struct LoadedSnapshot {
  std::uint64_t lsn = 0;  ///< log position the state covers
  Value state;            ///< the manifest's state tree
  Segments segments;
  /// Framed size of each segment the manifest lists.
  std::map<std::string, std::size_t> segment_bytes;
};

/// Loads the newest manifest that passes CRC + decode and whose segments
/// all load, skipping the others and adding their number to `skipped`.
/// nullopt when none is loadable.
std::optional<LoadedSnapshot> load_latest_snapshot(StorageEnv& env,
                                                   std::uint64_t& skipped);

}  // namespace mps::durable
