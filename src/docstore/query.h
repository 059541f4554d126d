// Filter queries over documents (MongoDB-style predicate tree).
//
// GoFlow's "crowd-sensed data management" component retrieves observations
// "based on various filtering parameters" (paper §3.1): app, user, data
// type, time window, location, accuracy threshold. Queries are immutable
// value objects; Collection evaluates them, optionally through an index.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/value.h"

namespace mps::docstore {

/// A document is a JSON object Value. Non-object Values are rejected at
/// insert time.
using Document = Value;

/// Comparison/structure operators supported by the query tree.
enum class QueryOp {
  kAll,     ///< matches every document
  kEq,      ///< field == value (missing field never matches)
  kNe,      ///< field exists and != value
  kLt,      ///< field < value (numeric/string per Value::compare)
  kLte,
  kGt,
  kGte,
  kIn,      ///< field equals any of the listed values
  kExists,  ///< field is present (any value, including null)
  kAnd,     ///< all children match
  kOr,      ///< at least one child matches
  kNot,     ///< single child does not match
};

/// Immutable filter expression. Build with the static factories; compose
/// with and_/or_/not_. Field paths are dotted ("location.accuracy").
class Query {
 public:
  /// Matches all documents.
  static Query all();
  static Query eq(std::string path, Value v);
  static Query ne(std::string path, Value v);
  static Query lt(std::string path, Value v);
  static Query lte(std::string path, Value v);
  static Query gt(std::string path, Value v);
  static Query gte(std::string path, Value v);
  static Query in(std::string path, std::vector<Value> values);
  static Query exists(std::string path);
  /// Closed-open range [lo, hi) on a field — the common time-window query.
  static Query range(std::string path, Value lo_inclusive,
                     Value hi_exclusive);
  static Query and_(std::vector<Query> children);
  static Query or_(std::vector<Query> children);
  static Query not_(Query child);

  /// The value at a dotted path of the row a filter reads, or nullptr.
  using PathLookup = std::function<const Value*(const std::string& path)>;
  /// True when the row `lookup` reads satisfies this filter.
  bool matches_row(const PathLookup& lookup) const;

  /// True when `doc` satisfies this filter: matches_row over find_path.
  bool matches(const Document& doc) const;

  QueryOp op() const { return op_; }
  const std::string& path() const { return path_; }
  const std::vector<Value>& values() const { return values_; }
  const std::vector<Query>& children() const { return children_; }

  /// Debug rendering, e.g. `and(eq(app,"soundcity"),gte(time,0))`.
  std::string to_string() const;

 private:
  Query() = default;

  QueryOp op_ = QueryOp::kAll;
  std::string path_;
  std::vector<Value> values_;
  std::vector<Query> children_;
};

/// Sort / pagination / projection options for Collection::find.
struct FindOptions {
  /// Dotted path to sort by; empty = insertion order.
  std::string sort_by;
  bool descending = false;
  std::size_t skip = 0;
  /// 0 = no limit.
  std::size_t limit = 0;
  /// When non-empty, result documents contain only these top-level fields
  /// (plus _id).
  std::vector<std::string> projection;
};

}  // namespace mps::docstore
