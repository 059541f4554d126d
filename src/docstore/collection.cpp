#include "docstore/collection.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
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

namespace {
/// True when two compare-equal keys are one key to every reader: the
/// same type, operator==, and the same bytes where those two let values
/// differ (a double's sign, the element types inside a container).
bool same_key(const Value& a, const Value& b) {
  if (a.type() != b.type() || !(a == b)) return false;
  if (a.is_double())
    return std::signbit(a.as_double()) == std::signbit(b.as_double());
  if (a.is_array() || a.is_object()) {
    std::string x, y;
    codec::encode_value(a, x);
    codec::encode_value(b, y);
    return x == y;
  }
  return true;
}
}  // namespace

void Collection::IndexAppender::add(const Value& key, Slot slot) {
  Postings& postings = index->postings;
  const int cmp = has_last ? Value::compare(last->first, key) : 1;
  bool fresh = false;
  if (cmp < 0 && std::next(last) == postings.end()) {
    // Greater than the current maximum (monotonic column).
    last = postings.try_emplace(postings.end(), key);
    fresh = true;
  } else if (cmp != 0) {
    std::tie(last, fresh) = postings.try_emplace(key);
    has_last = true;
  }
  Posting& posting = last->second;
  if (!fresh && !posting.mixed() && !same_key(last->first, key))
    posting.set_mixed();
  posting.add(slot);
  ++index->live;
}

void Collection::Posting::add(Slot s) {
  if (size_ == 0) {
    one_ = s;
  } else if (size_ == 1) {
    const Slot first = one_;
    many_ = new Slot[2]{std::min(first, s), std::max(first, s)};
  } else {
    if (std::has_single_bit(size_)) reallocate(size_ * 2);
    Slot* end = many_ + size_;
    Slot* at = s > end[-1] ? end : std::lower_bound(many_, end, s);
    std::move_backward(at, end, end + 1);
    *at = s;
  }
  ++size_;
  ++live_;
}

void Collection::Posting::erase(Slot s) {
  --live_;
  if (size_ == 1) {
    size_ = 0;
    return;
  }
  const std::uint32_t capacity = std::bit_ceil(size_);
  Slot* end = many_ + size_;
  Slot* at = std::lower_bound(many_, end, s);
  std::move(at + 1, end, at);
  --size_;
  fit(capacity);
}

template <typename Alive>
void Collection::Posting::compact(Alive&& alive) {
  if (size_ <= 1) return;
  const std::uint32_t capacity = std::bit_ceil(size_);
  Slot* kept = std::remove_if(many_, many_ + size_,
                              [&](Slot s) { return !alive(s); });
  size_ = static_cast<std::uint32_t>(kept - many_);
  fit(capacity);
}

void Collection::Posting::reallocate(std::uint32_t capacity) {
  Slot* fresh = new Slot[capacity];
  std::copy_n(many_, size_, fresh);
  delete[] many_;
  many_ = fresh;
}

void Collection::Posting::fit(std::uint32_t capacity) {
  if (size_ <= 1) {
    const Slot only = many_[0];
    delete[] many_;
    one_ = only;
  } else if (std::bit_ceil(size_) != capacity) {
    reallocate(std::bit_ceil(size_));
  }
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
  for (auto& [path, index] : indexes_)
    if (const Value* v = doc.find_path(path))
      IndexAppender{&path, &index}.add(*v, slot);
}

void Collection::unindex_slot(Slot slot, bool erase) {
  RowReader row(*this);
  row.seek(slot);
  for (auto& [path, index] : indexes_) {
    const Value* v = row.slot_value(path);
    if (v == nullptr) continue;
    auto it = index.postings.find(*v);
    if (it == index.postings.end()) continue;
    Posting& posting = it->second;
    --index.live;
    if (erase) posting.erase(slot);
    else posting.drop();
    if (posting.live() == 0)
      index.postings.erase(it);
    else if (posting.dead() > posting.live())
      posting.compact([&](Slot s) { return s != slot && slot_alive(s); });
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

namespace {
/// The conjuncts of `query`: the root itself, or every clause reachable
/// through ANDs (nested ANDs are flattened, so Query::range's AND yields
/// its two bounds).
void conjuncts(const Query& query, std::vector<const Query*>& out) {
  if (query.op() != QueryOp::kAnd) {
    out.push_back(&query);
    return;
  }
  for (const Query& child : query.children()) conjuncts(child, out);
}

bool is_bound(QueryOp op) {
  return op == QueryOp::kLt || op == QueryOp::kLte || op == QueryOp::kGt ||
         op == QueryOp::kGte;
}

/// One value per compare-distinct key of an eq/in clause: compare-equal
/// values share a posting, and visiting it once keeps runs disjoint.
std::vector<const Value*> distinct_keys(const std::vector<Value>& values) {
  std::vector<const Value*> keys;
  for (const Value& v : values)
    if (std::none_of(keys.begin(), keys.end(), [&](const Value* k) {
          return Value::compare(*k, v) == 0;
        }))
      keys.push_back(&v);
  return keys;
}
}  // namespace

std::size_t Collection::KeyRange::live() const {
  std::size_t n = 0;
  for (PostingIt it = lo; it != hi; ++it) n += it->second.live();
  return n;
}

Collection::KeyRange Collection::key_range(
    const Index& index, const std::vector<const Query*>& bounds) {
  const Postings& postings = index.postings;
  const KeyOrder less;
  KeyRange range{postings.begin(), postings.end()};
  for (const Query* bound : bounds) {
    const Value& v = bound->values()[0];
    if (bound->op() == QueryOp::kGt || bound->op() == QueryOp::kGte) {
      // The tighter of two lower bounds is the later key.
      PostingIt it = bound->op() == QueryOp::kGt ? postings.upper_bound(v)
                                                 : postings.lower_bound(v);
      if (it == postings.end() ||
          (range.lo != postings.end() && less(range.lo->first, it->first)))
        range.lo = it;
    } else {
      PostingIt it = bound->op() == QueryOp::kLt ? postings.lower_bound(v)
                                                 : postings.upper_bound(v);
      if (range.hi == postings.end() ||
          (it != postings.end() && less(it->first, range.hi->first)))
        range.hi = it;
    }
  }
  if (range.lo == postings.end() ||
      (range.hi != postings.end() && !less(range.lo->first, range.hi->first)))
    range.lo = range.hi;  // the bounds admit no key
  return range;
}

Collection::Plan Collection::plan(const Query& query) const {
  Plan plan;
  // One source per eq/in clause on an indexed path, reading its key's
  // postings, and one per indexed path with bounds, reading the key range
  // all of them admit in one walk. Every source knows its live size
  // before a slot is read: the cheapest is gathered, in ascending order,
  // and the others only narrow it, so no set is built just to be
  // intersected away.
  struct Source {
    std::size_t size = 0;
    std::vector<const Posting*> runs;  ///< eq/in: disjoint, ascending
    std::vector<const Query*> bounds;  ///< range: its bound clauses
    KeyRange range{};
  };
  std::vector<const Query*> clauses;
  conjuncts(query, clauses);
  std::vector<Source> sources;
  std::vector<std::pair<const Index*, std::vector<const Query*>>> bounded;
  for (const Query* clause : clauses) {
    auto index_it = indexes_.find(clause->path());
    if (index_it == indexes_.end()) continue;
    const Index& index = index_it->second;
    if (clause->op() == QueryOp::kEq || clause->op() == QueryOp::kIn) {
      Source& source = sources.emplace_back();
      for (const Value* key : distinct_keys(clause->values())) {
        auto it = index.postings.find(*key);
        if (it == index.postings.end()) continue;
        source.runs.push_back(&it->second);
        source.size += it->second.live();
      }
    } else if (is_bound(clause->op())) {
      auto path_it = std::find_if(bounded.begin(), bounded.end(),
                                  [&](const auto& b) { return b.first == &index; });
      if (path_it == bounded.end())
        path_it = bounded.insert(bounded.end(), {&index, {}});
      path_it->second.push_back(clause);
    }
  }
  for (auto& [index, bounds] : bounded) {
    Source& source = sources.emplace_back();
    source.range = key_range(*index, bounds);
    source.size = source.range.live();
    source.bounds = std::move(bounds);
  }
  if (sources.empty()) return plan;
  std::sort(sources.begin(), sources.end(),
            [](const Source& a, const Source& b) { return a.size < b.size; });

  // The cheapest source's live slots, ascending: one run is already in
  // order, several eq/in runs merge, and a range's runs are sorted.
  const Source& cheapest = sources[0];
  std::vector<Slot>& out = plan.candidates;
  out.reserve(cheapest.size);
  auto gather = [&](const Posting& posting) {
    for (Slot s : posting.slots())
      if (slot_alive(s)) out.push_back(s);
  };
  if (cheapest.bounds.empty()) {
    for (const Posting* run : cheapest.runs) {
      const auto merged = static_cast<std::ptrdiff_t>(out.size());
      gather(*run);
      std::inplace_merge(out.begin(), out.begin() + merged, out.end());
    }
  } else {
    for (PostingIt it = cheapest.range.lo; it != cheapest.range.hi; ++it)
      gather(it->second);
    std::sort(out.begin(), out.end());
  }

  // Each wider source keeps the candidates it holds: an eq/in source by
  // a search of its runs, each trimmed as the ascending candidates pass
  // it, and a range by its bounds, read from each candidate's row
  // (cheaper than gathering the wider range).
  RowReader row(*this);
  for (std::size_t i = 1; i < sources.size() && !out.empty(); ++i) {
    const Source& source = sources[i];
    if (!source.bounds.empty()) {
      std::erase_if(out, [&](Slot s) {
        row.seek(s);
        return !std::all_of(source.bounds.begin(), source.bounds.end(),
                            [&](const Query* b) { return row.matches(*b); });
      });
      continue;
    }
    std::vector<std::span<const Slot>> rest;
    for (const Posting* run : source.runs) rest.push_back(run->slots());
    std::erase_if(out, [&](Slot s) {
      for (std::span<const Slot>& run : rest) {
        run = run.subspan(static_cast<std::size_t>(
            std::lower_bound(run.begin(), run.end(), s) - run.begin()));
        if (!run.empty() && run.front() == s) return false;
      }
      return true;
    });
  }
  plan.use_index = true;
  plan.intersected = sources.size() > 1;
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
  const Postings& postings = index.postings;
  // Documents missing the sort field sort as null; merge their slots with
  // the null key's posting into one group. Every row with the field is
  // one live slot of a posting, so when the live count equals the
  // document count the missing-field scan can be skipped.
  std::vector<Slot> null_group;
  RowReader row(*this);
  if (index.live != id_to_slot_.size()) {
    for (Slot s = 0; s < slots_.size(); ++s)
      if (slot_alive(s) && row.seek(s).slot_value(options.sort_by) == nullptr)
        null_group.push_back(s);
  }
  PostingIt keyed = postings.begin();  // the first non-null key
  if (keyed != postings.end() && keyed->first.is_null()) {
    const std::size_t missing = null_group.size();
    for (Slot s : keyed->second.slots()) null_group.push_back(s);
    std::inplace_merge(null_group.begin(),
                       null_group.begin() + static_cast<std::ptrdiff_t>(missing),
                       null_group.end());
    ++keyed;
  }

  std::vector<Slot> out;
  // Once skip+limit matches exist, later groups cannot alter the page —
  // stop before reading their rows (a page query over a large index
  // reads only the page, not the collection).
  const std::size_t want =
      options.limit > 0 ? options.skip + options.limit : 0;
  auto done = [&] { return want > 0 && out.size() >= want; };
  // A posting's slots ascend: within every equal-key group slots are
  // emitted in insertion order — exactly the tie order stable_sort
  // produces over a scan.
  auto emit_group = [&](std::span<const Slot> group) {
    for (Slot s : group) {
      if (done()) return;
      if (slot_alive(s) && row.seek(s).matches(query)) out.push_back(s);
    }
  };
  if (!options.descending) {
    emit_group(null_group);
    for (PostingIt it = keyed; it != postings.end() && !done(); ++it)
      emit_group(it->second.slots());
  } else {
    // Key groups in descending order, nulls last.
    for (PostingIt it = postings.end(); it != keyed && !done();)
      emit_group((--it)->second.slots());
    emit_group(null_group);
  }
  return page(out, options);
}

bool Collection::covered_count(const Query& query, std::size_t& out) const {
  std::vector<const Query*> clauses;
  conjuncts(query, clauses);
  if (clauses.empty()) return false;
  auto index_it = indexes_.find(clauses[0]->path());
  if (index_it == indexes_.end()) return false;
  const Index& index = index_it->second;
  // Bounds on one path, alone or ANDed: range filters use Value::compare
  // — the index order — so the live rows of the one range they admit are
  // the exact answer.
  if (std::all_of(clauses.begin(), clauses.end(), [&](const Query* c) {
        return is_bound(c->op()) && c->path() == clauses[0]->path();
      })) {
    out = key_range(index, clauses).live();
    return true;
  }
  if (clauses.size() > 1) return false;
  const Query& clause = *clauses[0];
  switch (clause.op()) {
    case QueryOp::kEq:
    case QueryOp::kIn: {
      // compare-equality (the index order) admits keys the filter's
      // operator== rejects — int64s that collide as doubles — so a key's
      // posting answers only when its keys are all the map's key: then
      // each row's key passes the filter exactly when the map's does.
      // A mixed posting sends the count to the rows.
      out = 0;
      for (const Value* key : distinct_keys(clause.values())) {
        auto it = index.postings.find(*key);
        if (it == index.postings.end()) continue;
        if (it->second.mixed()) return false;
        if (std::any_of(clause.values().begin(), clause.values().end(),
                        [&](const Value& v) { return it->first == v; }))
          out += it->second.live();
      }
      return true;
    }
    case QueryOp::kExists:
      // Every row with the path present is one live slot.
      out = index.live;
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
  unindex_slot(slot, /*erase=*/true);
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
  unindex_slot(slot, /*erase=*/false);
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

std::vector<Value> Collection::distinct(const std::string& path,
                                        const Query& query) const {
  if (query.op() == QueryOp::kAll) {
    auto index_it = indexes_.find(path);
    if (index_it != indexes_.end()) {
      // Covered: one key per posting, already in compare order — no
      // documents touched, no quadratic dedup. Restricted to scalar keys
      // (the scan below dedups by operator==, which for objects is
      // field-order-insensitive while the index order is not) and to
      // postings that are not mixed.
      const auto& postings = index_it->second.postings;
      if (std::none_of(postings.begin(), postings.end(), [](const auto& p) {
            return p.second.mixed() || p.first.is_array() ||
                   p.first.is_object();
          })) {
        note_plan(PlanKind::kCovered);
        std::vector<Value> out;
        out.reserve(postings.size());
        for (const auto& [key, _] : postings) out.push_back(key);
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
  std::sort(out.begin(), out.end(), KeyOrder{});
  return out;
}

std::vector<std::pair<Value, std::size_t>> Collection::group_count(
    const std::string& path, const Query& query) const {
  if (query.op() == QueryOp::kAll) {
    auto index_it = indexes_.find(path);
    if (index_it != indexes_.end()) {
      // Covered: a group is a posting, its size the posting's live count
      // — the scan below groups by the same compare order, and a posting
      // that is not mixed holds one key, so results are identical.
      const auto& postings = index_it->second.postings;
      if (std::none_of(postings.begin(), postings.end(),
                       [](const auto& p) { return p.second.mixed(); })) {
        note_plan(PlanKind::kCovered);
        std::vector<std::pair<Value, std::size_t>> out;
        out.reserve(postings.size());
        for (const auto& [key, posting] : postings)
          out.emplace_back(key, posting.live());
        return out;
      }
    }
  }
  std::map<Value, std::size_t, KeyOrder> groups;
  for_each_match(query, [&](Slot, RowReader& row) {
    if (const Value* v = row.slot_value(path)) ++groups[*v];
  });
  return {groups.begin(), groups.end()};
}

std::vector<Collection::GroupAggregate> Collection::group_aggregate(
    const std::string& group_path, const std::string& value_path,
    const Query& query) const {
  std::map<Value, GroupAggregate, KeyOrder> groups;
  for_each_match(query, [&](Slot, RowReader& row) {
    // The number is read before the key's lookup reuses the scratch.
    const Value* value = row.slot_value(value_path);
    if (value == nullptr || !value->is_number()) return;
    const double x = value->as_double();
    const Value* key = row.slot_value(group_path);
    if (key == nullptr) return;
    auto [it, inserted] = groups.try_emplace(*key);
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
