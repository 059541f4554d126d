#include "docstore/collection.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>

#include "common/codec.h"
#include "common/strings.h"
#include "durable/journal.h"
#include "durable/snapshot.h"
#include "ingest/obs_batch.h"

namespace mps::docstore {

std::string Collection::generate_id() {
  return name_ + "-" + std::to_string(++id_counter_);
}

std::string Collection::slot_id(Slot s) const {
  if (const auto* lazy = std::get_if<LazyRow>(&slots_[s]))
    return name_ + "-" + std::to_string(lazy->id_counter);
  return std::get<Document>(slots_[s]).get_string("_id");
}

void Collection::set_metrics(obs::Registry* registry) {
  sources_.detach();
  if (registry == nullptr) return;
  obs::Registry& r = *registry;
  sources_.counter(r, "docstore.inserts", stats_.total_inserts);
  sources_.counter(r, "docstore.removes", stats_.total_removes);
  sources_.counter(r, "docstore.plans_scan", stats_.plans_scan);
  sources_.counter(r, "docstore.plans_indexed", stats_.plans_indexed);
  sources_.counter(r, "docstore.plans_intersect", stats_.plans_intersect);
  sources_.counter(r, "docstore.plans_covered", stats_.plans_covered);
  sources_.counter(r, "docstore.plans_sort_index", stats_.plans_sort_index);
  sources_.gauge(r, "docstore.documents",
                 [this] { return static_cast<double>(id_to_slot_.size()); });
  sources_.gauge(r, "docstore.lazy_rows", [this] {
    return static_cast<double>(
        std::count_if(slots_.begin(), slots_.end(), [](const Row& row) {
          return std::holds_alternative<LazyRow>(row);
        }));
  });
}

void Collection::arm_faults(fault::FaultPlan* plan) {
  insert_fault_ = fault::FaultPoint(plan, fault::FaultSite::kDocstoreInsert);
  update_fault_ = fault::FaultPoint(plan, fault::FaultSite::kDocstoreUpdate);
}

void Collection::log_record(Value record) {
  if (journal_ != nullptr) journal_->append(record);
}

std::string Collection::insert(Document doc) {
  // Injected transient failure fires before any state is touched: the
  // write never happened, so a catching caller can safely retry with the
  // same document.
  if (insert_fault_.should_fail())
    throw fault::TransientError(fault::FaultSite::kDocstoreInsert,
                                "injected fault: insert into '" + name_ + "'");
  return insert_checked(std::move(doc), /*journaled=*/true);
}

std::size_t Collection::apply_entry(Value entry, bool fresh_ids) {
  if (entry.is_object()) {
    if (fresh_ids) entry.as_object().erase("_id");
    insert_checked(std::move(entry), /*journaled=*/false);
    return 1;
  }
  if (!entry.is_array() || entry.as_array().size() != 3)
    throw std::invalid_argument("Collection::apply_entry: not an entry");
  const Array& run = entry.as_array();
  return apply_run(run[0].as_int(),
                   fresh_ids ? id_counter_ + 1
                             : static_cast<std::uint64_t>(run[1].as_int()),
                   run[2].as_string());
}

std::string Collection::insert_checked(Document doc, bool journaled) {
  if (!doc.is_object())
    throw std::invalid_argument("Collection::insert: document must be an object");
  std::string id;
  if (const Value* existing = doc.find("_id")) {
    if (!existing->is_string())
      throw std::invalid_argument("Collection::insert: _id must be a string");
    id = existing->as_string();
    if (id_to_slot_.count(id) > 0)
      throw std::invalid_argument("Collection::insert: duplicate _id '" + id + "'");
    // An id in the generator's form advances it past that id, so no
    // later generated id repeats it — live, and when replay re-applies
    // the ids inserts generated.
    std::uint64_t n = 0;
    const char* end = id.data() + id.size();
    if (id.starts_with(name_ + "-") &&
        std::from_chars(id.data() + name_.size() + 1, end, n).ptr == end)
      id_counter_ = std::max(id_counter_, n);
  } else {
    id = generate_id();
    doc.as_object().set("_id", Value(id));
  }
  // Log-before-apply: validation is done, so the record re-applies
  // cleanly on recovery; the state change below cannot throw.
  if (journaled)
    log_record(Value(Object{{"op", Value("db.insert")},
                            {"c", Value(name_)},
                            {"doc", doc}}));
  Slot slot = slots_.size();
  slots_.emplace_back(std::move(doc));
  id_to_slot_[id] = slot;
  index_document(slot, std::get<Document>(slots_[slot]));
  if (journaled) ++stats_.total_inserts;
  return id;
}

std::size_t Collection::insert_batch(
    const std::shared_ptr<const ingest::ObsBatch>& batch, std::size_t first,
    std::size_t count, TimeMs received_at) {
  // The fault stream a loop of insert() calls consults: a transient
  // failure ends the run before any state for its row is touched.
  std::size_t n = 0;
  while (n < count && !insert_fault_.should_fail()) ++n;
  if (n == 0) return 0;
  const std::uint64_t first_id = id_counter_ + 1;
  if (journal_ != nullptr) {
    std::string columns;
    ingest::encode_batch(*batch, first, n, columns);
    log_record(Value(Object{{"op", Value("db.rows")},
                            {"c", Value(name_)},
                            {"at", Value(received_at)},
                            {"id", Value(static_cast<std::int64_t>(first_id))},
                            {"b", Value(std::move(columns))}}));
  }
  apply_rows(batch, first, n, received_at, first_id);
  stats_.total_inserts += n;
  return n;
}

std::size_t Collection::apply_run(TimeMs received_at, std::uint64_t first_id,
                                  std::string_view columns) {
  auto batch = ingest::decode_batch(columns);
  if (batch == nullptr)
    throw std::invalid_argument("Collection::apply_run: bad columns for '" +
                                name_ + "'");
  apply_rows(batch, 0, batch->size(), received_at, first_id);
  return batch->size();
}

void Collection::apply_rows(
    const std::shared_ptr<const ingest::ObsBatch>& batch, std::size_t first,
    std::size_t count, TimeMs received_at, std::uint64_t first_id) {
  std::vector<IndexAppender> appenders;
  appenders.reserve(indexes_.size());
  for (auto& [path, index] : indexes_)
    appenders.push_back(IndexAppender{&path, &index});
  RowReader row(*this);
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint64_t id_counter = first_id + k;
    Slot slot = slots_.size();
    slots_.emplace_back(LazyRow{batch, static_cast<std::uint32_t>(first + k),
                                received_at, id_counter});
    id_to_slot_.emplace(slot_id(slot), slot);
    row.seek(slot);
    for (IndexAppender& a : appenders)
      if (const Value* key = row.slot_value(*a.path)) a.add(*key, slot);
  }
  if (count > 0) id_counter_ = std::max(id_counter_, first_id + count - 1);
}

void Collection::IndexAppender::add(Value key, Slot slot) {
  auto& entries = index->entries;
  if (has_last) {
    const int cmp = Value::compare(last->first.value, key);
    if (cmp == 0) {
      // Equal to the previous entry's key: slot in right after it.
      last = entries.emplace_hint(std::next(last), IndexKey{std::move(key)},
                                  slot);
      return;
    }
    if (cmp < 0 && std::next(last) == entries.end()) {
      // Greater than the current maximum (monotonic column).
      last =
          entries.emplace_hint(entries.end(), IndexKey{std::move(key)}, slot);
      return;
    }
  }
  last = entries.emplace(IndexKey{std::move(key)}, slot);
  has_last = true;
}

const Value* Collection::RowReader::slot_value(const std::string& path) {
  const Row& row = c_.slots_[slot_];
  if (const auto* doc = std::get_if<Document>(&row)) return doc->find_path(path);
  const LazyRow& lazy = std::get<LazyRow>(row);
  if (lazy.batch->index_value(path, lazy.row, lazy.received_at, scratch_))
    return scratch_.is_null() ? nullptr : &scratch_;
  return document().find_path(path);
}

bool Collection::RowReader::matches(const Query& query) {
  return query.matches_row(
      [this](const std::string& path) { return slot_value(path); });
}

const Document& Collection::RowReader::document() {
  if (const auto* doc = std::get_if<Document>(&c_.slots_[slot_])) return *doc;
  if (!built_) built_ = c_.document_at(slot_);
  return *built_;
}

Document Collection::document_at(Slot s) const {
  const auto* lazy = std::get_if<LazyRow>(&slots_[s]);
  if (lazy == nullptr) return std::get<Document>(slots_[s]);
  Document doc = lazy->batch->storage_document(lazy->row, lazy->received_at);
  doc.as_object().set("_id", Value(slot_id(s)));
  return doc;
}

template <typename Fn>
void Collection::for_each_match(const Query& query, Fn&& fn,
                                const Plan& plan) const {
  RowReader row(*this);
  auto visit = [&](Slot s) {
    if (slot_alive(s) && row.seek(s).matches(query)) fn(s, row);
  };
  if (plan.use_index) {
    for (Slot s : plan.candidates) visit(s);
  } else {
    for (Slot s = 0; s < slots_.size(); ++s) visit(s);
  }
}

std::optional<Document> Collection::get(const std::string& id) const {
  auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) return std::nullopt;
  return document_at(it->second);
}

void Collection::index_document(Slot slot, const Document& doc) {
  for (auto& [path, index] : indexes_) {
    if (const Value* v = doc.find_path(path))
      index.entries.insert({IndexKey{*v}, slot});
  }
}

void Collection::unindex_slot(Slot slot) {
  RowReader row(*this);
  row.seek(slot);
  for (auto& [path, index] : indexes_) {
    if (const Value* v = row.slot_value(path)) {
      auto [lo, hi] = index.entries.equal_range(IndexKey{*v});
      for (auto it = lo; it != hi; ++it) {
        if (it->second == slot) {
          index.entries.erase(it);
          break;
        }
      }
    }
  }
}

bool Collection::index_lookup(const Query& clause,
                              std::vector<Slot>& out) const {
  auto index_it = indexes_.find(clause.path());
  if (index_it == indexes_.end()) return false;
  const auto& entries = index_it->second.entries;
  switch (clause.op()) {
    case QueryOp::kEq: {
      auto [lo, hi] = entries.equal_range(IndexKey{clause.values()[0]});
      for (auto it = lo; it != hi; ++it) out.push_back(it->second);
      return true;
    }
    case QueryOp::kIn: {
      for (const Value& v : clause.values()) {
        auto [lo, hi] = entries.equal_range(IndexKey{v});
        for (auto it = lo; it != hi; ++it) out.push_back(it->second);
      }
      return true;
    }
    case QueryOp::kLt: {
      auto hi = entries.lower_bound(IndexKey{clause.values()[0]});
      for (auto it = entries.begin(); it != hi; ++it) out.push_back(it->second);
      return true;
    }
    case QueryOp::kLte: {
      auto hi = entries.upper_bound(IndexKey{clause.values()[0]});
      for (auto it = entries.begin(); it != hi; ++it) out.push_back(it->second);
      return true;
    }
    case QueryOp::kGt: {
      auto lo = entries.upper_bound(IndexKey{clause.values()[0]});
      for (auto it = lo; it != entries.end(); ++it) out.push_back(it->second);
      return true;
    }
    case QueryOp::kGte: {
      auto lo = entries.lower_bound(IndexKey{clause.values()[0]});
      for (auto it = lo; it != entries.end(); ++it) out.push_back(it->second);
      return true;
    }
    default:
      return false;
  }
}

void Collection::note_plan(PlanKind kind) const {
  switch (kind) {
    case PlanKind::kScan:
      ++stats_.plans_scan;
      break;
    case PlanKind::kIndexed:
      ++stats_.plans_indexed;
      break;
    case PlanKind::kIntersect:
      ++stats_.plans_intersect;
      break;
    case PlanKind::kCovered:
      ++stats_.plans_covered;
      break;
    case PlanKind::kSortIndex:
      ++stats_.plans_sort_index;
      break;
  }
}

Collection::Plan Collection::plan(const Query& query) const {
  Plan plan;
  // Candidate slots per indexable clause: the root itself, or any conjunct
  // reachable through ANDs (nested ANDs are flattened — Query::range
  // desugars to one, so "user == u AND time in [lo, hi)" yields two sets).
  // Cost model: materializing a clause's slot list is linear in its
  // selectivity and touches no documents, so gathering every indexable
  // clause and intersecting is cheaper than filtering documents through
  // the residual query whenever any clause is selective.
  std::vector<std::vector<Slot>> sets;
  std::vector<Slot> tmp;
  if (index_lookup(query, tmp)) {
    sets.push_back(std::move(tmp));
  } else if (query.op() == QueryOp::kAnd) {
    auto gather = [&](auto&& self, const Query& conjunction) -> void {
      for (const Query& child : conjunction.children()) {
        if (child.op() == QueryOp::kAnd) {
          self(self, child);
          continue;
        }
        tmp.clear();
        if (index_lookup(child, tmp)) sets.push_back(std::move(tmp));
      }
    };
    gather(gather, query);
  }
  if (sets.empty()) return plan;
  for (auto& set : sets) {
    // kIn with repeated values can list a slot twice.
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
  }
  // Cheapest (most selective) first, then intersect the rest into it.
  std::sort(sets.begin(), sets.end(), [](const auto& a, const auto& b) {
    return a.size() < b.size();
  });
  plan.candidates = std::move(sets[0]);
  for (std::size_t i = 1; i < sets.size(); ++i) {
    tmp.clear();
    std::set_intersection(plan.candidates.begin(), plan.candidates.end(),
                          sets[i].begin(), sets[i].end(),
                          std::back_inserter(tmp));
    plan.candidates.swap(tmp);
  }
  plan.use_index = true;
  plan.intersected = sets.size() > 1;
  return plan;
}

std::vector<Document> Collection::find(const Query& query,
                                       const FindOptions& options) const {
  Plan p = plan(query);
  if (!p.use_index && !options.sort_by.empty()) {
    auto idx_it = indexes_.find(options.sort_by);
    if (idx_it != indexes_.end()) {
      note_plan(PlanKind::kSortIndex);
      return find_via_sort_index(query, options, idx_it->second);
    }
  }
  note_plan(p.use_index
                ? (p.intersected ? PlanKind::kIntersect : PlanKind::kIndexed)
                : PlanKind::kScan);
  // Matches are sorted and paged by (sort key, slot) before any document
  // is built, so a limited query over many matches builds only its page.
  // A missing sort key sorts as null.
  struct Match {
    Value key;
    Slot slot;
  };
  std::vector<Match> matches;
  for_each_match(
      query,
      [&](Slot s, RowReader& row) {
        const Value* key =
            options.sort_by.empty() ? nullptr : row.slot_value(options.sort_by);
        matches.push_back(Match{key != nullptr ? *key : Value(), s});
      },
      p);

  if (!options.sort_by.empty()) {
    std::stable_sort(matches.begin(), matches.end(),
                     [&](const Match& a, const Match& b) {
                       int c = Value::compare(a.key, b.key);
                       return options.descending ? c > 0 : c < 0;
                     });
  }
  std::vector<Slot> slots;
  slots.reserve(matches.size());
  for (const Match& m : matches) slots.push_back(m.slot);
  return page(slots, options);
}

std::vector<Document> Collection::page(const std::vector<Slot>& slots,
                                       const FindOptions& options) const {
  const std::size_t first = std::min(options.skip, slots.size());
  std::size_t last = slots.size();
  if (options.limit > 0 && last - first > options.limit)
    last = first + options.limit;
  std::vector<Document> out;
  out.reserve(last - first);
  RowReader row(*this);
  for (std::size_t i = first; i < last; ++i)
    out.push_back(options.projection.empty()
                      ? document_at(slots[i])
                      : project(row.seek(slots[i]).document(),
                                options.projection));
  return out;
}

std::vector<Document> Collection::find_via_sort_index(
    const Query& query, const FindOptions& options, const Index& index) const {
  const auto& entries = index.entries;
  // Documents missing the sort field sort as null; merge their slots with
  // the explicit-null index entries into one group. Every document with
  // the field contributes exactly one entry, so when the entry count
  // equals the document count the missing-field scan can be skipped.
  std::vector<Slot> null_group;
  RowReader row(*this);
  if (entries.size() != id_to_slot_.size()) {
    for (Slot s = 0; s < slots_.size(); ++s)
      if (slot_alive(s) && row.seek(s).slot_value(options.sort_by) == nullptr)
        null_group.push_back(s);
  }
  auto [null_lo, null_hi] = entries.equal_range(IndexKey{Value()});
  for (auto it = null_lo; it != null_hi; ++it) null_group.push_back(it->second);
  std::sort(null_group.begin(), null_group.end());

  std::vector<Slot> out;
  // Once skip+limit matches exist, later groups cannot alter the page —
  // stop before reading their rows (a page query over a large index
  // reads only the page, not the collection).
  const std::size_t want =
      options.limit > 0 ? options.skip + options.limit : 0;
  auto done = [&] { return want > 0 && out.size() >= want; };
  // Within every equal-key group slots are emitted in ascending
  // (insertion) order — exactly the tie order stable_sort produces over a
  // scan. `group` is reused scratch.
  std::vector<Slot> group;
  auto emit_group = [&] {
    std::sort(group.begin(), group.end());
    for (Slot s : group) {
      if (done()) return;
      if (slot_alive(s) && row.seek(s).matches(query)) out.push_back(s);
    }
  };
  if (!options.descending) {
    group = null_group;  // already sorted; emit_group's sort is a no-op
    emit_group();
    for (auto it = null_hi; it != entries.end() && !done();) {
      auto hi = entries.upper_bound(it->first);
      group.clear();
      for (auto j = it; j != hi; ++j) group.push_back(j->second);
      emit_group();
      it = hi;
    }
  } else {
    // Walk key groups in descending order, nulls last.
    for (auto it = entries.end(); it != null_hi && !done();) {
      auto lo = entries.lower_bound(std::prev(it)->first);
      group.clear();
      for (auto j = lo; j != it; ++j) group.push_back(j->second);
      emit_group();
      it = lo;
    }
    if (!done()) {
      group = null_group;
      emit_group();
    }
  }
  return page(out, options);
}

bool Collection::covered_count(const Query& query, std::size_t& out) const {
  auto index_it = indexes_.find(query.path());
  if (index_it == indexes_.end()) return false;
  const auto& entries = index_it->second.entries;
  switch (query.op()) {
    case QueryOp::kEq: {
      // compare-equality (the index order) admits keys the filter's
      // operator== rejects — int64s that collide as doubles, objects with
      // reordered fields — so re-check equality on the stored key. The
      // key is a copy of the document's value at the path, so this is
      // exactly the filter's predicate with no document access.
      const Value& v = query.values()[0];
      auto [lo, hi] = entries.equal_range(IndexKey{v});
      out = 0;
      for (auto it = lo; it != hi; ++it)
        if (it->first.value == v) ++out;
      return true;
    }
    case QueryOp::kIn: {
      // One span per compare-distinct value (compare-equal values share a
      // span; visiting it once prevents double counting), then the real
      // `in` predicate on each key.
      std::vector<const Value*> reps;
      for (const Value& v : query.values()) {
        bool dup = false;
        for (const Value* r : reps)
          if (Value::compare(*r, v) == 0) {
            dup = true;
            break;
          }
        if (!dup) reps.push_back(&v);
      }
      out = 0;
      for (const Value* r : reps) {
        auto [lo, hi] = entries.equal_range(IndexKey{*r});
        for (auto it = lo; it != hi; ++it)
          for (const Value& v : query.values())
            if (it->first.value == v) {
              ++out;
              break;
            }
      }
      return true;
    }
    // Range filters use Value::compare — the index order — so the range
    // width is the exact answer.
    case QueryOp::kLt:
      out = static_cast<std::size_t>(std::distance(
          entries.begin(), entries.lower_bound(IndexKey{query.values()[0]})));
      return true;
    case QueryOp::kLte:
      out = static_cast<std::size_t>(std::distance(
          entries.begin(), entries.upper_bound(IndexKey{query.values()[0]})));
      return true;
    case QueryOp::kGt:
      out = static_cast<std::size_t>(std::distance(
          entries.upper_bound(IndexKey{query.values()[0]}), entries.end()));
      return true;
    case QueryOp::kGte:
      out = static_cast<std::size_t>(std::distance(
          entries.lower_bound(IndexKey{query.values()[0]}), entries.end()));
      return true;
    case QueryOp::kExists:
      // Every document with the path present has exactly one entry.
      out = entries.size();
      return true;
    default:
      return false;
  }
}

std::size_t Collection::count(const Query& query) const {
  if (query.op() == QueryOp::kAll) return id_to_slot_.size();
  std::size_t covered = 0;
  if (covered_count(query, covered)) {
    note_plan(PlanKind::kCovered);
    return covered;
  }
  std::size_t n = 0;
  Plan p = plan(query);
  note_plan(p.use_index
                ? (p.intersected ? PlanKind::kIntersect : PlanKind::kIndexed)
                : PlanKind::kScan);
  for_each_match(query, [&n](Slot, RowReader&) { ++n; }, p);
  return n;
}

bool Collection::replace(const std::string& id, Document doc) {
  return replace_checked(id, std::move(doc), /*journaled=*/true);
}

bool Collection::apply_replace(const std::string& id, Document doc) {
  return replace_checked(id, std::move(doc), /*journaled=*/false);
}

bool Collection::replace_checked(const std::string& id, Document doc,
                                 bool journaled) {
  auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) return false;
  if (!doc.is_object())
    throw std::invalid_argument("Collection::replace: document must be an object");
  Slot slot = it->second;
  doc.as_object().set("_id", Value(id));
  if (journaled)
    log_record(Value(Object{{"op", Value("db.replace")},
                            {"c", Value(name_)},
                            {"id", Value(id)},
                            {"doc", doc}}));
  if (slot < sealed_.end) sealed_.forget();
  unindex_slot(slot);
  slots_[slot] = std::move(doc);
  index_document(slot, std::get<Document>(slots_[slot]));
  return true;
}

std::size_t Collection::update_many(
    const Query& query, const std::function<void(Document&)>& mutate) {
  if (update_fault_.should_fail())
    throw fault::TransientError(fault::FaultSite::kDocstoreUpdate,
                                "injected fault: update in '" + name_ + "'");
  // Two passes: match first, then mutate. Mutating while scanning would
  // break if the callback reentrantly inserts (slots_ reallocation under
  // the loop) or removes the very document being updated (the old code
  // dereferenced the now-empty slot — UB). The callback mutates a copy;
  // if it removed the document mid-flight, the update is dropped rather
  // than resurrecting it.
  std::vector<Slot> matches;
  for_each_match(query, [&](Slot s, RowReader&) { matches.push_back(s); });
  std::size_t updated = 0;
  for (Slot slot : matches) {
    if (!slot_alive(slot)) continue;  // removed by an earlier mutate
    Document next = document_at(slot);
    std::string id = next.at("_id").as_string();
    mutate(next);
    next.as_object().set("_id", Value(id));  // _id is immutable
    auto it = id_to_slot_.find(id);
    if (it == id_to_slot_.end() || it->second != slot) continue;
    // Journaled as a replace of the post-mutation document: recovery
    // replays final states, not callbacks.
    replace_checked(id, std::move(next), /*journaled=*/true);
    ++updated;
  }
  return updated;
}

bool Collection::remove(const std::string& id) {
  return remove_checked(id, /*journaled=*/true);
}

bool Collection::apply_remove(const std::string& id) {
  return remove_checked(id, /*journaled=*/false);
}

bool Collection::remove_checked(const std::string& id, bool journaled) {
  auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) return false;
  if (journaled)
    log_record(Value(Object{{"op", Value("db.remove")},
                            {"c", Value(name_)},
                            {"id", Value(id)}}));
  Slot slot = it->second;
  if (slot < sealed_.end) sealed_.forget();
  unindex_slot(slot);
  slots_[slot] = std::monostate{};
  id_to_slot_.erase(it);
  if (journaled) ++stats_.total_removes;
  return true;
}

std::size_t Collection::remove_many(const Query& query) {
  std::vector<std::string> ids;
  for_each_match(query,
                 [&](Slot s, RowReader&) { ids.push_back(slot_id(s)); });
  for (const std::string& id : ids) remove(id);
  return ids.size();
}

void Collection::create_index(const std::string& path) {
  if (indexes_.count(path) > 0) return;
  log_record(Value(Object{{"op", Value("db.index")},
                          {"c", Value(name_)},
                          {"path", Value(path)}}));
  apply_create_index(path);
}

void Collection::apply_create_index(const std::string& path) {
  if (indexes_.count(path) > 0) return;
  auto [it, _] = indexes_.try_emplace(path);
  IndexAppender appender{&it->first, &it->second};
  RowReader row(*this);
  for (Slot slot = 0; slot < slots_.size(); ++slot)
    if (slot_alive(slot))
      if (const Value* key = row.seek(slot).slot_value(path))
        appender.add(*key, slot);
}

Array Collection::extract_if(const std::string& path,
                             const std::function<bool(const Value&)>& pred) {
  std::vector<bool> moves(slots_.size());
  for_each_match(Query::all(), [&](Slot s, RowReader& row) {
    if (const Value* v = row.slot_value(path)) moves[s] = pred(*v);
  });
  // A segment's entries, read back: rows leave the process in one form.
  std::string bytes;
  Array entries(encode_entries(0, bytes, [&](Slot s) { return moves[s]; }));
  codec::Reader reader(bytes);
  for (Value& entry : entries) codec::decode_value(reader, entry);
  for (Slot s = 0; s < slots_.size(); ++s)
    if (moves[s]) remove_checked(slot_id(s), /*journaled=*/false);
  return entries;
}

bool Collection::has_index(const std::string& path) const {
  return indexes_.count(path) > 0;
}

namespace {
/// Walks an index's compare-equal key groups in order, calling
/// `group(first_entry_key, group_size)` per group. Returns false (a
/// planner bail-out to the scan path) when a group mixes keys that
/// compare equal but are not operator==-equal (e.g. int64s that collide
/// as doubles), where index grouping and scan semantics could diverge, or
/// when the callback itself vetoes the group.
template <typename Entries, typename GroupFn>
bool walk_index_groups(const Entries& entries, GroupFn&& group) {
  for (auto it = entries.begin(); it != entries.end();) {
    auto hi = entries.upper_bound(it->first);
    std::size_t n = 0;
    for (auto j = it; j != hi; ++j, ++n)
      if (!(j->first.value == it->first.value)) return false;
    if (!group(it->first.value, n)) return false;
    it = hi;
  }
  return true;
}
}  // namespace

std::vector<Value> Collection::distinct(const std::string& path,
                                        const Query& query) const {
  if (query.op() == QueryOp::kAll) {
    auto index_it = indexes_.find(path);
    if (index_it != indexes_.end()) {
      // Covered: one representative per key group, already in compare
      // order — no documents touched, no quadratic dedup. Restricted to
      // scalar keys: the scan below dedups by operator==, which for
      // objects is field-order-insensitive while the index order is not.
      std::vector<Value> out;
      if (walk_index_groups(index_it->second.entries,
                            [&](const Value& key, std::size_t) {
                              if (key.is_array() || key.is_object())
                                return false;
                              out.push_back(key);
                              return true;
                            })) {
        note_plan(PlanKind::kCovered);
        return out;
      }
    }
  }
  std::vector<Value> out;
  for_each_match(query, [&](Slot, RowReader& row) {
    const Value* v = row.slot_value(path);
    if (v != nullptr && std::find(out.begin(), out.end(), *v) == out.end())
      out.push_back(*v);
  });
  std::sort(out.begin(), out.end(), [](const Value& a, const Value& b) {
    return Value::compare(a, b) < 0;
  });
  return out;
}

std::vector<std::pair<Value, std::size_t>> Collection::group_count(
    const std::string& path, const Query& query) const {
  if (query.op() == QueryOp::kAll) {
    auto index_it = indexes_.find(path);
    if (index_it != indexes_.end()) {
      // Covered: group sizes are key-group widths in the index — the scan
      // below groups by the same IndexKey order, so results are identical.
      std::vector<std::pair<Value, std::size_t>> out;
      if (walk_index_groups(index_it->second.entries,
                            [&](const Value& key, std::size_t n) {
                              out.emplace_back(key, n);
                              return true;
                            })) {
        note_plan(PlanKind::kCovered);
        return out;
      }
    }
  }
  std::map<IndexKey, std::size_t> groups;
  for_each_match(query, [&](Slot, RowReader& row) {
    if (const Value* v = row.slot_value(path)) ++groups[IndexKey{*v}];
  });
  std::vector<std::pair<Value, std::size_t>> out;
  out.reserve(groups.size());
  for (auto& [key, n] : groups) out.emplace_back(key.value, n);
  return out;
}

std::vector<Collection::GroupAggregate> Collection::group_aggregate(
    const std::string& group_path, const std::string& value_path,
    const Query& query) const {
  std::map<IndexKey, GroupAggregate> groups;
  for_each_match(query, [&](Slot, RowReader& row) {
    // The number is read before the key's lookup reuses the scratch.
    const Value* value = row.slot_value(value_path);
    if (value == nullptr || !value->is_number()) return;
    const double x = value->as_double();
    const Value* key = row.slot_value(group_path);
    if (key == nullptr) return;
    auto [it, inserted] = groups.try_emplace(IndexKey{*key});
    GroupAggregate& agg = it->second;
    if (inserted) {
      agg.key = *key;
      agg.min = agg.max = x;
    } else {
      agg.min = std::min(agg.min, x);
      agg.max = std::max(agg.max, x);
    }
    ++agg.count;
    agg.sum += x;
  });
  std::vector<GroupAggregate> out;
  out.reserve(groups.size());
  for (auto& [_, agg] : groups) {
    agg.mean = agg.sum / static_cast<double>(agg.count);
    out.push_back(agg);
  }
  return out;
}

void Collection::for_each(
    const std::function<void(const Document&)>& fn) const {
  RowReader row(*this);
  for (Slot s = 0; s < slots_.size(); ++s)
    if (slot_alive(s)) fn(row.seek(s).document());
}

void Collection::encode_snapshot(durable::SnapshotWriter& writer) {
  std::string& out = writer.out();
  codec::encode_object_header(4, out);
  codec::encode_key("name", out);
  codec::encode_value(Value(name_), out);
  codec::encode_key("id_counter", out);
  codec::encode_value(Value(static_cast<std::int64_t>(id_counter_)), out);
  codec::encode_key("indexes", out);
  codec::encode_array_header(static_cast<std::uint32_t>(indexes_.size()), out);
  for (const auto& [path, _] : indexes_) codec::encode_value(Value(path), out);
  codec::encode_key("docs", out);
  writer.sequence(sealed_, slots_.size(),
                  [this](std::size_t first, std::string& segment) {
                    return encode_entries(first, segment);
                  });
}

std::uint32_t Collection::encode_entries(
    Slot first, std::string& segment,
    const std::function<bool(Slot)>& keep) const {
  std::uint32_t entries = 0;
  std::string columns;
  for (Slot s = first; s < slots_.size();) {
    if (!slot_alive(s) || (keep && !keep(s))) {
      ++s;
      continue;
    }
    if (const auto* doc = std::get_if<Document>(&slots_[s])) {
      codec::encode_value(*doc, segment);
      ++entries;
      ++s;
      continue;
    }
    // The run: every following kept slot that is the same batch's next
    // row, received together, under the next id.
    const LazyRow& head = std::get<LazyRow>(slots_[s]);
    std::size_t n = 1;
    for (; s + n < slots_.size(); ++n) {
      const auto* next = std::get_if<LazyRow>(&slots_[s + n]);
      if (next == nullptr || (keep && !keep(s + n)) ||
          next->batch != head.batch ||
          next->received_at != head.received_at ||
          next->row != head.row + n || next->id_counter != head.id_counter + n)
        break;
    }
    columns.clear();
    ingest::encode_batch(*head.batch, head.row, n, columns);
    codec::encode_array_header(3, segment);
    codec::encode_value(Value(head.received_at), segment);
    codec::encode_value(Value(static_cast<std::int64_t>(head.id_counter)),
                        segment);
    codec::encode_string(columns, segment);
    ++entries;
    s += n;
  }
  return entries;
}

void Collection::restore_snapshot(const Value& state,
                                  durable::Segments& segments) {
  id_counter_ = static_cast<std::uint64_t>(state.get_int("id_counter"));
  if (const Value* docs = state.find("docs")) {
    // Positions, not entries: a run entry fills one slot per row, so the
    // sealed prefix ends at slots_.size() and the next snapshot seals
    // only what is appended after the restore.
    sealed_ = segments.take(*docs, [this](Value&& entry) {
      return apply_entry(std::move(entry));
    });
  }
  // Indexes after the slots, one at a time, so each index's entries are
  // built (and allocated) together.
  if (const Value* paths = state.find("indexes"))
    for (const Value& path : paths->as_array())
      apply_create_index(path.as_string());
}

void Collection::crash() {
  sealed_.forget();
  slots_.clear();
  id_to_slot_.clear();
  indexes_.clear();
  id_counter_ = 0;
}

Document Collection::project(const Document& doc,
                             const std::vector<std::string>& fields) {
  Object out;
  if (const Value* id = doc.find("_id")) out.set("_id", *id);
  for (const std::string& f : fields) {
    if (f == "_id") continue;
    if (const Value* v = doc.find(f)) out.set(f, *v);
  }
  return Value(std::move(out));
}

}  // namespace mps::docstore
