// How much of an append-mostly sequence the snapshots have already
// written (DESIGN.md §11).
//
// A snapshot is a small manifest plus immutable segment files. Each
// sequence that only grows at its end — a collection's documents in slot
// order, a dedup set's insertion order — remembers the prefix its
// segments already hold, so the next snapshot seals only the entries
// appended since. Whoever owns the sequence calls forget() when an entry
// inside that prefix changes (a remove, a replace, an eviction): the
// next snapshot then writes the whole sequence into one new segment,
// which is what every snapshot cost before segments existed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mps {

struct SealedPrefix {
  /// Process-unique id of the durable::Journal whose env holds
  /// `segments`; 0 = nothing sealed. A snapshot through any other journal
  /// writes the whole sequence: its env may lack these files.
  std::uint64_t owner = 0;
  /// Entries [0, end) are sealed — positions in the owner's numbering
  /// (a collection counts slots, live or not; one segment entry of lazy
  /// rows fills a slot per row).
  std::size_t end = 0;
  /// The segment files holding that prefix, oldest first.
  std::vector<std::string> segments;

  void forget() { *this = SealedPrefix{}; }
};

}  // namespace mps
