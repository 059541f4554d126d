#include "docstore/query.h"

namespace mps::docstore {

Query Query::all() { return Query(); }

Query Query::eq(std::string path, Value v) {
  Query q;
  q.op_ = QueryOp::kEq;
  q.path_ = std::move(path);
  q.values_.push_back(std::move(v));
  return q;
}

Query Query::ne(std::string path, Value v) {
  Query q;
  q.op_ = QueryOp::kNe;
  q.path_ = std::move(path);
  q.values_.push_back(std::move(v));
  return q;
}

Query Query::lt(std::string path, Value v) {
  Query q;
  q.op_ = QueryOp::kLt;
  q.path_ = std::move(path);
  q.values_.push_back(std::move(v));
  return q;
}

Query Query::lte(std::string path, Value v) {
  Query q;
  q.op_ = QueryOp::kLte;
  q.path_ = std::move(path);
  q.values_.push_back(std::move(v));
  return q;
}

Query Query::gt(std::string path, Value v) {
  Query q;
  q.op_ = QueryOp::kGt;
  q.path_ = std::move(path);
  q.values_.push_back(std::move(v));
  return q;
}

Query Query::gte(std::string path, Value v) {
  Query q;
  q.op_ = QueryOp::kGte;
  q.path_ = std::move(path);
  q.values_.push_back(std::move(v));
  return q;
}

Query Query::in(std::string path, std::vector<Value> values) {
  Query q;
  q.op_ = QueryOp::kIn;
  q.path_ = std::move(path);
  q.values_ = std::move(values);
  return q;
}

Query Query::exists(std::string path) {
  Query q;
  q.op_ = QueryOp::kExists;
  q.path_ = std::move(path);
  return q;
}

Query Query::range(std::string path, Value lo_inclusive, Value hi_exclusive) {
  return and_({gte(path, std::move(lo_inclusive)),
               lt(path, std::move(hi_exclusive))});
}

Query Query::and_(std::vector<Query> children) {
  Query q;
  q.op_ = QueryOp::kAnd;
  q.children_ = std::move(children);
  return q;
}

Query Query::or_(std::vector<Query> children) {
  Query q;
  q.op_ = QueryOp::kOr;
  q.children_ = std::move(children);
  return q;
}

Query Query::not_(Query child) {
  Query q;
  q.op_ = QueryOp::kNot;
  q.children_.push_back(std::move(child));
  return q;
}

bool Query::matches(const Document& doc) const {
  return matches_row(
      [&doc](const std::string& path) { return doc.find_path(path); });
}

bool Query::matches_row(const PathLookup& lookup) const {
  // Each clause is done with one lookup's result before it makes the
  // next, so a lookup may answer every path from one scratch value.
  switch (op_) {
    case QueryOp::kAll:
      return true;
    case QueryOp::kEq: {
      const Value* v = lookup(path_);
      return v != nullptr && *v == values_[0];
    }
    case QueryOp::kNe: {
      const Value* v = lookup(path_);
      return v != nullptr && !(*v == values_[0]);
    }
    case QueryOp::kLt: {
      const Value* v = lookup(path_);
      return v != nullptr && Value::compare(*v, values_[0]) < 0;
    }
    case QueryOp::kLte: {
      const Value* v = lookup(path_);
      return v != nullptr && Value::compare(*v, values_[0]) <= 0;
    }
    case QueryOp::kGt: {
      const Value* v = lookup(path_);
      return v != nullptr && Value::compare(*v, values_[0]) > 0;
    }
    case QueryOp::kGte: {
      const Value* v = lookup(path_);
      return v != nullptr && Value::compare(*v, values_[0]) >= 0;
    }
    case QueryOp::kIn: {
      const Value* v = lookup(path_);
      if (v == nullptr) return false;
      for (const Value& candidate : values_)
        if (*v == candidate) return true;
      return false;
    }
    case QueryOp::kExists:
      return lookup(path_) != nullptr;
    case QueryOp::kAnd:
      for (const Query& c : children_)
        if (!c.matches_row(lookup)) return false;
      return true;
    case QueryOp::kOr:
      for (const Query& c : children_)
        if (c.matches_row(lookup)) return true;
      return false;
    case QueryOp::kNot:
      return !children_[0].matches_row(lookup);
  }
  return false;
}

std::string Query::to_string() const {
  auto op_name = [](QueryOp op) {
    switch (op) {
      case QueryOp::kAll: return "all";
      case QueryOp::kEq: return "eq";
      case QueryOp::kNe: return "ne";
      case QueryOp::kLt: return "lt";
      case QueryOp::kLte: return "lte";
      case QueryOp::kGt: return "gt";
      case QueryOp::kGte: return "gte";
      case QueryOp::kIn: return "in";
      case QueryOp::kExists: return "exists";
      case QueryOp::kAnd: return "and";
      case QueryOp::kOr: return "or";
      case QueryOp::kNot: return "not";
    }
    return "?";
  };
  std::string out = op_name(op_);
  out.push_back('(');
  bool first = true;
  if (!path_.empty()) {
    out += path_;
    first = false;
  }
  for (const Value& v : values_) {
    if (!first) out.push_back(',');
    first = false;
    out += v.to_json();
  }
  for (const Query& c : children_) {
    if (!first) out.push_back(',');
    first = false;
    out += c.to_string();
  }
  out.push_back(')');
  return out;
}

}  // namespace mps::docstore
