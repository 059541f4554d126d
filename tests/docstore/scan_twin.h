// The full-scan reference the planner tests compare against. A
// collection with no indexes takes every scan path — plan, find's
// sorting, count, distinct and group_count each need an index to do
// anything else — so an index-free copy answers by reference execution.
#pragma once

#include "docstore/collection.h"

namespace mps::docstore {

/// Copies `c`'s live documents, in slot order and with their _ids, into
/// a collection with no indexes, so its scans visit them in `c`'s order.
inline Collection scan_twin(const Collection& c) {
  Collection twin(c.name());
  c.for_each([&twin](const Document& d) { twin.insert(d); });
  return twin;
}

}  // namespace mps::docstore
