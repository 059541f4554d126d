// A collection of documents with secondary indexes — the unit of storage
// GoFlow puts observations, accounts, jobs and analytics into.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/sealed.h"
#include "common/types.h"
#include "docstore/query.h"
#include "fault/fault.h"
#include "obs/metrics.h"

namespace mps::durable {
class Journal;
class SnapshotWriter;
struct Segments;
}

namespace mps::ingest {
class ObsBatch;
}

namespace mps::docstore {

/// Orders index keys and groups by Value::compare.
struct KeyOrder {
  bool operator()(const Value& a, const Value& b) const {
    return Value::compare(a, b) < 0;
  }
};

/// Collection statistics for the analytics component.
struct CollectionStats {
  std::uint64_t total_inserts = 0;  ///< insert, insert_batch; no applier
  std::uint64_t total_removes = 0;  ///< remove, remove_many; no applier
  // Planner decisions (one bump per planned find/count/distinct/group).
  std::uint64_t plans_scan = 0;        ///< no usable index: full scan
  std::uint64_t plans_indexed = 0;     ///< one index supplied candidates
  std::uint64_t plans_intersect = 0;   ///< several AND indexes intersected
  std::uint64_t plans_covered = 0;     ///< answered from index entries only
  std::uint64_t plans_sort_index = 0;  ///< index order replaced the sort
};

/// Document collection. Every document gets a unique string "_id"
/// (generated when absent). Single-threaded by design: the middleware runs
/// inside the discrete-event simulation, which is single-threaded; callers
/// needing concurrency wrap the Database in their own lock.
class Collection {
 public:
  explicit Collection(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Inserts a document (must be a JSON object) and returns its _id: its
  /// own "_id" string (a "<name>-<n>" one advances the generator past n;
  /// a duplicate throws std::invalid_argument) or a generated one.
  std::string insert(Document doc);

  /// Bulk column-wise insert of rows [first, first+count) of a flat
  /// observation batch (DESIGN.md §13). The insert fault is consulted
  /// row by row, as a loop of insert() calls would, up to the first
  /// failure; the n rows before it are logged as one db.rows record of
  /// their columns, then stored without a document: each slot keeps a
  /// reference into the batch, and index entries and query filters read
  /// its columns. A read that returns the row builds its document (the
  /// oracle path's bytes, generated _id included) and keeps none.
  /// Returns n; fewer than `count` means a transient failure, which the
  /// caller resumes after backoff.
  std::size_t insert_batch(const std::shared_ptr<const ingest::ObsBatch>& batch,
                           std::size_t first, std::size_t count,
                           TimeMs received_at);

  /// Fetches by _id.
  std::optional<Document> get(const std::string& id) const;

  /// All documents matching `query`, honoring sort/skip/limit/projection.
  std::vector<Document> find(const Query& query,
                             const FindOptions& options = {}) const;

  /// Number of documents matching `query`.
  std::size_t count(const Query& query) const;

  /// Replaces the document with the given _id (the replacement's _id field
  /// is overwritten to match). Returns false when absent.
  bool replace(const std::string& id, Document doc);

  /// Applies `mutate` to every matching document; returns how many were
  /// updated. The _id field cannot be changed (it is restored after the
  /// callback).
  std::size_t update_many(const Query& query,
                          const std::function<void(Document&)>& mutate);

  /// Removes by _id; returns false when absent.
  bool remove(const std::string& id);

  /// Removes every match; returns how many were removed.
  std::size_t remove_many(const Query& query);

  /// Creates (or no-ops on an existing) index over a dotted path. Existing
  /// documents are indexed immediately. eq/in/range queries rooted at this
  /// path — including inside a top-level AND — use the index.
  void create_index(const std::string& path);

  /// True when an index exists on `path`.
  bool has_index(const std::string& path) const;

  /// Distinct values of a field across matching documents (unsorted ->
  /// sorted by Value::compare).
  std::vector<Value> distinct(const std::string& path,
                              const Query& query = Query::all()) const;

  /// Group-by-field counting: value -> number of matching docs having it.
  std::vector<std::pair<Value, std::size_t>> group_count(
      const std::string& path, const Query& query = Query::all()) const;

  /// Numeric aggregate over one group of a group-by (see group_aggregate).
  struct GroupAggregate {
    Value key;
    std::size_t count = 0;
    double sum = 0.0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  /// Groups matching documents by `group_path` and aggregates the numeric
  /// field at `value_path` within each group (documents lacking either
  /// field are skipped). Groups are ordered by key.
  std::vector<GroupAggregate> group_aggregate(
      const std::string& group_path, const std::string& value_path,
      const Query& query = Query::all()) const;

  std::size_t size() const { return id_to_slot_.size(); }
  bool empty() const { return id_to_slot_.empty(); }
  const CollectionStats& stats() const { return stats_; }

  /// Registers the collection's counters with `registry` under the
  /// database-wide "docstore.*" names (inserts, removes, plans_*), its
  /// size as the docstore.documents gauge
  /// and its live rows held as batch columns as the docstore.lazy_rows
  /// gauge, counted when read; the registry sums them over every
  /// attached collection. Pass nullptr to detach.
  void set_metrics(obs::Registry* registry);

  /// Arms fault injection on the write paths: insert/update_many may
  /// throw fault::TransientError *before touching any state* (the write
  /// never happened, as with a timed-out Mongo round trip). Pass nullptr
  /// to disarm.
  void arm_faults(fault::FaultPlan* plan);

  /// Visits every document in insertion order (fast path for analytics
  /// that would otherwise copy the whole collection). A lazy row's
  /// document is built for the call and gone after it.
  void for_each(const std::function<void(const Document&)>& fn) const;

  // --- Durability (DESIGN.md §11) -----------------------------------
  //
  // With a journal attached every mutation is logged *before* it is
  // applied ("db.insert"/"db.rows"/"db.replace"/"db.remove"/"db.index"
  // records; update_many logs the post-mutation document as a replace),
  // after validation — so every logged record re-applies cleanly. Pass
  // nullptr to detach (recovery does, while replaying).

  void attach_journal(durable::Journal* journal) { journal_ = journal; }
  durable::Journal* journal() const { return journal_; }

  /// Recovery and migration appliers: identical state transitions to
  /// insert/replace/remove/create_index but with no journaling, no fault
  /// injection (re-applying an already-acknowledged write must never
  /// fail, even under an armed chaos plan) and no insert/remove counts.
  /// apply_entry stores a segment entry (see encode_snapshot), an
  /// extract_if() entry or a db.insert record's document: an object
  /// through the insert path, a run [received_at, id, columns] through
  /// apply_run. With `fresh_ids` (a migration) a document's _id is
  /// dropped and a run's ids start at the generator's next. Throws
  /// std::invalid_argument, before touching state, for any other shape.
  /// Returns the slots filled.
  std::size_t apply_entry(Value entry, bool fresh_ids = false);
  /// Stores a column run — the encode_batch() bytes of a db.rows record
  /// or of a snapshot's run entry — as lazy rows whose ids count up from
  /// first_id, and catches the generator up past them. Throws
  /// std::invalid_argument, before touching state, when the columns do
  /// not decode. Returns the rows stored.
  std::size_t apply_run(TimeMs received_at, std::uint64_t first_id,
                        std::string_view columns);
  bool apply_replace(const std::string& id, Document doc);
  bool apply_remove(const std::string& id);
  /// Builds the index from every live slot through the row accessor, so
  /// the build leaves lazy rows lazy.
  void apply_create_index(const std::string& path);
  /// Removes, unjournaled, every live row whose value at `path` satisfies
  /// `pred` and returns the entries encode_snapshot would seal for them
  /// (lazy rows as column runs), in slot order, for apply_entry(). A
  /// removed sealed slot forgets the sealed prefix, as apply_remove does.
  Array extract_if(const std::string& path,
                   const std::function<bool(const Value&)>& pred);

  /// Appends the collection's snapshot record to the writer's manifest
  /// in the common/codec.h encoding: {name, id_counter, indexes:
  /// [path...], docs: [segment name...]}. The slots are a sealed
  /// sequence (SnapshotWriter::sequence): only those inserted since the
  /// previous snapshot are encoded, in place, into a new segment —
  /// unless a remove, replace or update touched a sealed slot since,
  /// which writes them all again. A slot holding a document is one
  /// document entry (an object). Each run of lazy rows — consecutive
  /// slots of one batch, received together, with consecutive rows and
  /// ids — is one run entry, the array [received_at, first id counter,
  /// encode_batch() of the rows], and stays lazy.
  void encode_snapshot(durable::SnapshotWriter& writer);
  /// Rebuilds state from the decoded encode_snapshot() record, moving
  /// the entries out of the loaded `segments` through apply_entry (run
  /// entries come back lazy), then each index, one at a time. The
  /// collection must be empty (crash() first).
  void restore_snapshot(const Value& state, durable::Segments& segments);

  /// Models the process dying: drops every document and index entry in
  /// place (the object survives — callers hold references), forgets what
  /// the snapshots sealed and fixes the documents gauge. Journal and
  /// metrics attachments survive.
  void crash();

 private:
  using Slot = std::size_t;

  /// One index key's rows (DESIGN.md §8): the slots whose value at the
  /// path compares equal to the key, ascending. A single slot is held
  /// inline, more in one heap array of capacity bit_ceil(size), so a
  /// near-unique key costs no more than its map node. A removed slot only
  /// counts as dead, and readers skip it, until the dead outnumber the
  /// live and the posting compacts; removal stays amortized O(1) per row
  /// (a retention purge removes oldest first). A replace erases at once.
  class Posting {
   public:
    Posting() = default;
    Posting(const Posting&) = delete;
    Posting& operator=(const Posting&) = delete;
    ~Posting() {
      if (size_ > 1) delete[] many_;
    }

    /// Every slot held, dead ones included, ascending.
    std::span<const Slot> slots() const {
      return size_ <= 1 ? std::span<const Slot>(&one_, size_)
                        : std::span<const Slot>(many_, size_);
    }
    std::size_t live() const { return live_; }
    std::size_t dead() const { return size_ - live_; }
    /// Set once a key joined that is not identical (same type, ==, same
    /// bytes) to the map's: answering from the posting alone could then
    /// differ from a scan, so the covered paths read rows instead.
    bool mixed() const { return mixed_ != 0; }
    void set_mixed() { mixed_ = 1; }

    /// Adds a live slot in order: an append for a new slot, an insertion
    /// for a replaced one.
    void add(Slot s);
    /// Takes a live slot out now (a replace).
    void erase(Slot s);
    /// Counts a live slot dead (a remove).
    void drop() { --live_; }
    /// Keeps the slots `alive` accepts, one per live row.
    template <typename Alive>
    void compact(Alive&& alive);

   private:
    /// Moves the slots into an array of exactly `capacity` (> 1).
    void reallocate(std::uint32_t capacity);
    /// Restores the capacity rule after size_ fell below the count the
    /// array of `capacity` was sized for.
    void fit(std::uint32_t capacity);

    union {
      Slot one_ = 0;  ///< size_ == 1
      Slot* many_;    ///< size_ > 1
    };
    std::uint32_t size_ = 0;
    std::uint32_t live_ : 31 = 0;
    std::uint32_t mixed_ : 1 = 0;
  };
  // Keeps a single-row key's map node (rb-tree links, key, posting) in
  // one 96-byte heap chunk.
  static_assert(sizeof(Posting) == 16);
  using Postings = std::map<Value, Posting, KeyOrder>;
  using PostingIt = Postings::const_iterator;
  /// A path's postings by key. `live` counts the rows holding the path.
  struct Index {
    Postings postings;
    std::size_t live = 0;
  };

  /// How the planner decided to execute a query (counted in stats() and
  /// read as the `docstore.plans_*` registry counters).
  enum class PlanKind { kScan, kIndexed, kIntersect, kCovered, kSortIndex };

  /// An access-path decision: either a full scan (use_index false) or the
  /// ascending live slots of the cheapest applicable index source —
  /// intersected with the others when an AND has several. The full query
  /// is still re-applied to every candidate, so the plan only has to be a
  /// superset of the matches.
  struct Plan {
    bool use_index = false;
    bool intersected = false;
    std::vector<Slot> candidates;
  };
  /// The index keys [lo, hi) that every bound clause (lt/lte/gt/gte) on
  /// one path admits: the clauses' one range walk.
  struct KeyRange {
    PostingIt lo;
    PostingIt hi;
    /// Live rows in the range.
    std::size_t live() const;
  };

  /// A row held as its flat batch's columns (insert_batch, apply_run).
  /// The shared_ptr keeps the batch's block alive while a slot holds
  /// the row. The _id is generate_id's form, name_ + "-" + id_counter,
  /// so the row carries no per-row heap string.
  struct LazyRow {
    std::shared_ptr<const ingest::ObsBatch> batch;
    std::uint32_t row = 0;
    TimeMs received_at = 0;
    std::uint64_t id_counter = 0;
  };
  /// A slot holds one form for its whole life: removed, a document, or
  /// a lazy row. Only a write (replace, update_many, remove, crash)
  /// changes it; a read never does.
  using Row = std::variant<std::monostate, Document, LazyRow>;

  bool slot_alive(Slot s) const {
    return !std::holds_alternative<std::monostate>(slots_[s]);
  }

  /// The one row accessor (DESIGN.md §13) for filters, index keys, sort
  /// keys and grouped values: reads a live slot, one at a time, and
  /// writes none. A stored document answers in place. A lazy row answers
  /// a column path from its batch over one scratch value, reusing its
  /// string buffer, and any other path from its document, built at most
  /// once per seek.
  class RowReader {
   public:
    explicit RowReader(const Collection& c) : c_(c) {}
    RowReader& seek(Slot s) {
      slot_ = s;
      built_.reset();
      return *this;
    }
    /// The row's value at `path`, or nullptr when the row lacks it;
    /// valid until the next lookup or seek.
    const Value* slot_value(const std::string& path);
    bool matches(const Query& query);
    /// The row as a document: the stored one, or the lazy row's, built.
    const Document& document();

   private:
    const Collection& c_;
    Slot slot_ = 0;
    Value scratch_;
    std::optional<Document> built_;
  };
  /// Adds one index's entries, in ascending slot order for appends.
  /// Keys in a column are highly repetitive (constant app id, a handful
  /// of device models, increasing timestamps), so a cursor on the last
  /// key's posting turns most adds into an O(1) append: the same key
  /// appends to it, a new largest key is placed after it, and only any
  /// other key looks its posting up.
  struct IndexAppender {
    const std::string* path;
    Index* index;
    Postings::iterator last{};
    bool has_last = false;
    void add(const Value& key, Slot slot);
  };

  /// A copy of the document at a live slot. A lazy row's is built: the
  /// document the store would keep, _id included.
  Document document_at(Slot s) const;
  /// Calls fn(slot, reader) on each live slot matching `query`, in the
  /// plan's candidate order or, for a scan, slot order.
  template <typename Fn>
  void for_each_match(const Query& query, Fn&& fn, const Plan& plan = {}) const;
  /// The documents at `slots` that options' skip and limit keep, each
  /// projected: a find's result page.
  std::vector<Document> page(const std::vector<Slot>& slots,
                             const FindOptions& options) const;
  /// Stores rows [first, first+count) of `batch` as lazy rows whose ids
  /// count up from first_id, indexes them and catches the generator up
  /// past them: insert_batch's body, and apply_run's.
  void apply_rows(const std::shared_ptr<const ingest::ObsBatch>& batch,
                  std::size_t first, std::size_t count, TimeMs received_at,
                  std::uint64_t first_id);
  /// Encodes the live slots of [first, slots_.size()) that `keep` (when
  /// set) accepts into a snapshot segment as document and run entries
  /// (see encode_snapshot); returns how many entries it appended.
  std::uint32_t encode_entries(
      Slot first, std::string& segment,
      const std::function<bool(Slot)>& keep = {}) const;

  std::string generate_id();
  /// A live slot's _id, read without building a lazy row's document.
  std::string slot_id(Slot s) const;
  /// Shared bodies of the public mutators and the apply_* recovery
  /// path; `journaled` false suppresses the WAL record and the count.
  std::string insert_checked(Document doc, bool journaled);
  bool replace_checked(const std::string& id, Document doc, bool journaled);
  bool remove_checked(const std::string& id, bool journaled);
  void log_record(Value record);
  void index_document(Slot slot, const Document& doc);
  /// Takes a live slot out of its postings, reading its keys through the
  /// row accessor: at once for a replace (`erase`), else as a dead slot.
  void unindex_slot(Slot slot, bool erase);
  Plan plan(const Query& query) const;
  /// The key range of `index` that every one of `bounds` (lt/lte/gt/gte
  /// clauses on its path) admits.
  static KeyRange key_range(const Index& index,
                            const std::vector<const Query*>& bounds);
  /// Exact match count from index entries alone (no document access);
  /// false when the query shape is not covered by an index.
  bool covered_count(const Query& query, std::size_t& out) const;
  /// Executes a sorted find by walking the sort_by index's postings in
  /// key order instead of materializing and stable_sort-ing every match.
  std::vector<Document> find_via_sort_index(const Query& query,
                                            const FindOptions& options,
                                            const Index& index) const;
  void note_plan(PlanKind kind) const;
  static Document project(const Document& doc,
                          const std::vector<std::string>& fields);

  std::string name_;
  std::vector<Row> slots_;
  std::unordered_map<std::string, Slot> id_to_slot_;
  std::map<std::string, Index> indexes_;
  std::uint64_t id_counter_ = 0;
  /// Slots the snapshots have sealed (see encode_snapshot).
  SealedPrefix sealed_;
  mutable CollectionStats stats_;
  fault::FaultPoint insert_fault_;
  fault::FaultPoint update_fault_;
  durable::Journal* journal_ = nullptr;
  obs::Sources sources_;
};

}  // namespace mps::docstore
