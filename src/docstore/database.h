// Named set of collections — the process-local MongoDB stand-in GoFlow
// stores its state in.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "docstore/collection.h"

namespace mps::docstore {

/// A database owns named collections. Collections are created on first
/// access (as with MongoDB) and remain valid for the database's lifetime.
class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// The collection with this name, creating it if needed.
  Collection& collection(const std::string& name);

  /// Pointer to an existing collection, or nullptr.
  const Collection* find_collection(const std::string& name) const;

  /// True when a collection with this name exists.
  bool has_collection(const std::string& name) const;

  /// Drops a collection and all of its documents. Returns false if absent.
  bool drop_collection(const std::string& name);

  /// Names of all collections, sorted.
  std::vector<std::string> collection_names() const;

  /// Total documents across all collections.
  std::size_t total_documents() const;

  /// Attaches a metrics registry: existing collections and any created
  /// later register their counters and sizes under the shared
  /// "docstore.*" names (see Collection::set_metrics), so the registry
  /// reads totals over the live collections. Pass nullptr to detach.
  void set_metrics(obs::Registry* registry);

  /// Arms fault injection on every collection's write paths (existing and
  /// future — like set_metrics). Pass nullptr to disarm.
  void arm_faults(fault::FaultPlan* plan);

  // --- Durability (DESIGN.md §11) -----------------------------------

  /// Attaches a journal to every collection (existing and future — like
  /// set_metrics): mutations log "db.*" records before applying.
  void attach_journal(durable::Journal* journal);

  /// Appends the database state to the writer's manifest in the
  /// common/codec.h encoding: {"collections": [record...]}, one
  /// Collection::encode_snapshot record per collection, in name order.
  void encode_snapshot(durable::SnapshotWriter& writer);
  /// Rebuilds from the decoded encode_snapshot() state and the loaded
  /// segments it names (crash() first).
  void restore_snapshot(const Value& state, durable::Segments& segments);
  /// Re-applies one "db.*" journal record (no re-logging, no faults).
  void apply_journal_record(const Value& record);

  /// Models the process dying: every collection is emptied in place
  /// (objects survive — callers hold references across the crash).
  void crash();

 private:
  std::map<std::string, std::unique_ptr<Collection>> collections_;
  obs::Registry* metrics_registry_ = nullptr;
  fault::FaultPlan* fault_plan_ = nullptr;
  durable::Journal* journal_ = nullptr;
};

}  // namespace mps::docstore
