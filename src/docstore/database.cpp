#include "docstore/database.h"

#include "common/codec.h"
#include "durable/journal.h"

namespace mps::docstore {

Collection& Database::collection(const std::string& name) {
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    it = collections_.emplace(name, std::make_unique<Collection>(name)).first;
    it->second->set_metrics(metrics_registry_);
    it->second->arm_faults(fault_plan_);
    it->second->attach_journal(journal_);
  }
  return *it->second;
}

const Collection* Database::find_collection(const std::string& name) const {
  auto it = collections_.find(name);
  return it == collections_.end() ? nullptr : it->second.get();
}

bool Database::has_collection(const std::string& name) const {
  return collections_.count(name) > 0;
}

bool Database::drop_collection(const std::string& name) {
  return collections_.erase(name) > 0;
}

std::vector<std::string> Database::collection_names() const {
  std::vector<std::string> out;
  out.reserve(collections_.size());
  for (const auto& [name, _] : collections_) out.push_back(name);
  return out;
}

std::size_t Database::total_documents() const {
  std::size_t n = 0;
  for (const auto& [_, c] : collections_) n += c->size();
  return n;
}

void Database::set_metrics(obs::Registry* registry) {
  metrics_registry_ = registry;
  for (auto& [_, c] : collections_) c->set_metrics(registry);
}

void Database::arm_faults(fault::FaultPlan* plan) {
  fault_plan_ = plan;
  for (auto& [_, c] : collections_) c->arm_faults(plan);
}

void Database::attach_journal(durable::Journal* journal) {
  journal_ = journal;
  for (auto& [_, c] : collections_) c->attach_journal(journal);
}

void Database::encode_snapshot(durable::SnapshotWriter& writer) {
  std::string& out = writer.out();
  codec::encode_object_header(1, out);
  codec::encode_key("collections", out);
  codec::encode_array_header(static_cast<std::uint32_t>(collections_.size()),
                             out);
  for (const auto& [_, c] : collections_) c->encode_snapshot(writer);
}

void Database::restore_snapshot(const Value& state,
                                durable::Segments& segments) {
  const Value* collections = state.find("collections");
  if (collections == nullptr) return;
  for (const Value& snap : collections->as_array())
    collection(snap.get_string("name")).restore_snapshot(snap, segments);
}

void Database::apply_journal_record(const Value& record) {
  const std::string op = record.get_string("op");
  Collection& c = collection(record.get_string("c"));
  if (op == "db.rows") {
    // The snapshot's run entries take the same applier; it decodes the
    // columns before touching state, so recovery skips a record whose
    // columns throw.
    c.apply_run(record.get_int("at"),
                static_cast<std::uint64_t>(record.get_int("id")),
                record.at("b").as_string());
  } else if (op == "db.insert") {
    c.apply_entry(record.at("doc"));
  } else if (op == "db.replace") {
    c.apply_replace(record.get_string("id"), record.at("doc"));
  } else if (op == "db.remove") {
    c.apply_remove(record.get_string("id"));
  } else if (op == "db.index") {
    c.apply_create_index(record.get_string("path"));
  }
  // Unknown db.* ops are skipped: a newer log replaying through older
  // code degrades to the records it understands.
}

void Database::crash() {
  for (auto& [_, c] : collections_) c->crash();
}

}  // namespace mps::docstore
