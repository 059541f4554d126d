// A JSON-like dynamic value.
//
// This is the document model of the whole stack: observations published by
// phones, messages routed through the broker, documents stored in the
// document store, and results returned by the GoFlow data API are all
// Values. It mirrors the subset of BSON/JSON the real system (MongoDB +
// AMQP payloads) relies on: null, bool, int64, double, string, array,
// object. Objects preserve key order (insertion order), which keeps test
// output and serialized documents deterministic.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace mps {

class Value;

/// Ordered key/value object. Lookup is O(n) in the number of keys, which is
/// fine for documents with tens of fields; the docstore builds indexes for
/// anything queried at scale.
class Object {
 public:
  using Entry = std::pair<std::string, Value>;

  Object() = default;
  Object(std::initializer_list<Entry> entries);

  /// Sets (or replaces) a field; returns *this for chaining.
  Object& set(std::string key, Value v);

  /// Pointer to the field's value or nullptr if absent.
  const Value* find(std::string_view key) const;
  Value* find(std::string_view key);

  /// Reference to the field's value; throws std::out_of_range if absent.
  const Value& at(std::string_view key) const;

  bool contains(std::string_view key) const { return find(key) != nullptr; }
  bool erase(std::string_view key);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  /// Makes room for `fields` fields, so an object built at its final
  /// size carries no spare capacity.
  void reserve(std::size_t fields) { entries_.reserve(fields); }

  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }
  auto begin() { return entries_.begin(); }
  auto end() { return entries_.end(); }

  bool operator==(const Object& other) const;

 private:
  std::vector<Entry> entries_;
};

using Array = std::vector<Value>;

/// Dynamic JSON-like value (see file comment).
class Value {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(int i) : data_(static_cast<std::int64_t>(i)) {}
  Value(std::int64_t i) : data_(i) {}
  Value(double d) : data_(d) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  Type type() const { return static_cast<Type>(data_.index()); }

  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_int() const { return type() == Type::kInt; }
  bool is_double() const { return type() == Type::kDouble; }
  /// True for either int or double.
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  /// Checked accessors; throw std::runtime_error on type mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;
  /// Numeric value as double; accepts both int and double payloads.
  double as_double() const;
  const std::string& as_string() const;
  std::string& as_string();
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  /// Object field access; throws if not an object / key missing.
  const Value& at(std::string_view key) const { return as_object().at(key); }

  /// Object field lookup returning nullptr when this is not an object or
  /// the key is absent. The workhorse for reading optional message fields.
  const Value* find(std::string_view key) const;

  /// Dotted-path lookup ("location.accuracy"); nullptr when any hop fails.
  const Value* find_path(std::string_view dotted_path) const;

  /// Convenience typed getters with defaults, tolerant of missing fields.
  std::int64_t get_int(std::string_view key, std::int64_t dflt = 0) const;
  double get_double(std::string_view key, double dflt = 0.0) const;
  std::string get_string(std::string_view key, std::string dflt = "") const;
  bool get_bool(std::string_view key, bool dflt = false) const;

  /// Two ints compare exactly; any other pair of numbers is equal when
  /// compare() returns 0, so NaN equals only NaN. Everything else
  /// compares structurally.
  bool operator==(const Value& other) const;

  /// Total order over values (type-major, then value), used by docstore
  /// indexes and sort. Numeric int/double compare by numeric value; NaN
  /// sorts before every other number and equals only NaN (as in BSON).
  static int compare(const Value& a, const Value& b);

  /// Serializes to compact JSON.
  std::string to_json() const;

  /// Parses JSON text; throws std::runtime_error with position info on
  /// malformed input.
  static Value parse_json(std::string_view text);

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      data_;
};

}  // namespace mps
