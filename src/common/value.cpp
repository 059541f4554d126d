#include "common/value.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace mps {

Object::Object(std::initializer_list<Entry> entries) {
  for (const auto& e : entries) set(e.first, e.second);
}

Object& Object::set(std::string key, Value v) {
  for (auto& e : entries_) {
    if (e.first == key) {
      e.second = std::move(v);
      return *this;
    }
  }
  entries_.emplace_back(std::move(key), std::move(v));
  return *this;
}

const Value* Object::find(std::string_view key) const {
  for (const auto& e : entries_)
    if (e.first == key) return &e.second;
  return nullptr;
}

Value* Object::find(std::string_view key) {
  for (auto& e : entries_)
    if (e.first == key) return &e.second;
  return nullptr;
}

const Value& Object::at(std::string_view key) const {
  if (const Value* v = find(key)) return *v;
  throw std::out_of_range("Object::at: missing key '" + std::string(key) + "'");
}

bool Object::erase(std::string_view key) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->first == key) {
      entries_.erase(it);
      return true;
    }
  }
  return false;
}

bool Object::operator==(const Object& other) const {
  if (entries_.size() != other.entries_.size()) return false;
  // Order-insensitive comparison: two documents with the same fields are
  // equal regardless of insertion order.
  for (const auto& e : entries_) {
    const Value* v = other.find(e.first);
    if (v == nullptr || !(*v == e.second)) return false;
  }
  return true;
}

namespace {
[[noreturn]] void type_error(const char* want, Value::Type got) {
  static const char* names[] = {"null",   "bool",  "int",   "double",
                                "string", "array", "object"};
  throw std::runtime_error(std::string("Value: expected ") + want + ", got " +
                           names[static_cast<int>(got)]);
}
}  // namespace

bool Value::as_bool() const {
  if (const bool* b = std::get_if<bool>(&data_)) return *b;
  type_error("bool", type());
}

std::int64_t Value::as_int() const {
  if (const std::int64_t* i = std::get_if<std::int64_t>(&data_)) return *i;
  type_error("int", type());
}

double Value::as_double() const {
  if (const double* d = std::get_if<double>(&data_)) return *d;
  if (const std::int64_t* i = std::get_if<std::int64_t>(&data_))
    return static_cast<double>(*i);
  type_error("number", type());
}

const std::string& Value::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&data_)) return *s;
  type_error("string", type());
}

std::string& Value::as_string() {
  if (std::string* s = std::get_if<std::string>(&data_)) return *s;
  type_error("string", type());
}

const Array& Value::as_array() const {
  if (const Array* a = std::get_if<Array>(&data_)) return *a;
  type_error("array", type());
}

Array& Value::as_array() {
  if (Array* a = std::get_if<Array>(&data_)) return *a;
  type_error("array", type());
}

const Object& Value::as_object() const {
  if (const Object* o = std::get_if<Object>(&data_)) return *o;
  type_error("object", type());
}

Object& Value::as_object() {
  if (Object* o = std::get_if<Object>(&data_)) return *o;
  type_error("object", type());
}

const Value* Value::find(std::string_view key) const {
  if (const Object* o = std::get_if<Object>(&data_)) return o->find(key);
  return nullptr;
}

const Value* Value::find_path(std::string_view path) const {
  const Value* cur = this;
  while (!path.empty()) {
    std::size_t dot = path.find('.');
    std::string_view head =
        dot == std::string_view::npos ? path : path.substr(0, dot);
    cur = cur->find(head);
    if (cur == nullptr) return nullptr;
    if (dot == std::string_view::npos) break;
    path.remove_prefix(dot + 1);
  }
  return cur;
}

std::int64_t Value::get_int(std::string_view key, std::int64_t dflt) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_int()) ? v->as_int() : dflt;
}

double Value::get_double(std::string_view key, double dflt) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_number()) ? v->as_double() : dflt;
}

std::string Value::get_string(std::string_view key, std::string dflt) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : std::move(dflt);
}

bool Value::get_bool(std::string_view key, bool dflt) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_bool()) ? v->as_bool() : dflt;
}

namespace {

// Numbers order like BSON: NaN first and equal only to NaN, so the order
// stays a strict weak ordering (index maps and sorts rely on it).
int compare_numbers(double x, double y) {
  if (std::isnan(x) || std::isnan(y))
    return std::isnan(y) - std::isnan(x);
  if (x < y) return -1;
  if (x > y) return 1;
  return 0;
}

}  // namespace

bool Value::operator==(const Value& other) const {
  if (is_number() && other.is_number()) {
    if (is_int() && other.is_int()) return as_int() == other.as_int();
    return compare_numbers(as_double(), other.as_double()) == 0;
  }
  return data_ == other.data_;
}

int Value::compare(const Value& a, const Value& b) {
  auto rank = [](const Value& v) {
    // Numbers share a rank so 1 and 1.0 compare equal.
    switch (v.type()) {
      case Type::kNull: return 0;
      case Type::kBool: return 1;
      case Type::kInt:
      case Type::kDouble: return 2;
      case Type::kString: return 3;
      case Type::kArray: return 4;
      case Type::kObject: return 5;
    }
    return 6;
  };
  int ra = rank(a), rb = rank(b);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (a.type()) {
    case Type::kNull:
      return 0;
    case Type::kBool:
      return (a.as_bool() ? 1 : 0) - (b.as_bool() ? 1 : 0);
    case Type::kInt:
    case Type::kDouble:
      return compare_numbers(a.as_double(), b.as_double());
    case Type::kString:
      return a.as_string().compare(b.as_string());
    case Type::kArray: {
      const Array& x = a.as_array();
      const Array& y = b.as_array();
      std::size_t n = std::min(x.size(), y.size());
      for (std::size_t i = 0; i < n; ++i) {
        int c = compare(x[i], y[i]);
        if (c != 0) return c;
      }
      if (x.size() < y.size()) return -1;
      if (x.size() > y.size()) return 1;
      return 0;
    }
    case Type::kObject: {
      // Compare serialized forms; objects rarely serve as sort keys.
      return a.to_json().compare(b.to_json());
    }
  }
  return 0;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void to_json_impl(const Value& v, std::string& out) {
  switch (v.type()) {
    case Value::Type::kNull:
      out += "null";
      break;
    case Value::Type::kBool:
      out += v.as_bool() ? "true" : "false";
      break;
    case Value::Type::kInt:
      out += std::to_string(v.as_int());
      break;
    case Value::Type::kDouble: {
      double d = v.as_double();
      if (std::isfinite(d)) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", d);
        out += buf;
      } else {
        out += "null";  // JSON has no Inf/NaN
      }
      break;
    }
    case Value::Type::kString:
      append_escaped(out, v.as_string());
      break;
    case Value::Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const Value& e : v.as_array()) {
        if (!first) out.push_back(',');
        first = false;
        to_json_impl(e, out);
      }
      out.push_back(']');
      break;
    }
    case Value::Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, val] : v.as_object()) {
        if (!first) out.push_back(',');
        first = false;
        append_escaped(out, k);
        out.push_back(':');
        to_json_impl(val, out);
      }
      out.push_back('}');
      break;
    }
  }
}

/// Minimal recursive-descent JSON parser.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Value parse() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("JSON parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  bool consume_word(std::string_view w) {
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_ws();
    char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (consume_word("true")) return Value(true);
        fail("bad literal");
      case 'f':
        if (consume_word("false")) return Value(false);
        fail("bad literal");
      case 'n':
        if (consume_word("null")) return Value(nullptr);
        fail("bad literal");
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object obj;
    skip_ws();
    if (consume('}')) return Value(std::move(obj));
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      break;
    }
    return Value(std::move(obj));
  }

  Value parse_array() {
    expect('[');
    Array arr;
    skip_ws();
    if (consume(']')) return Value(std::move(arr));
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      break;
    }
    return Value(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code += h - '0';
              else if (h >= 'a' && h <= 'f') code += h - 'a' + 10;
              else if (h >= 'A' && h <= 'F') code += h - 'A' + 10;
              else fail("bad \\u escape digit");
            }
            // Encode as UTF-8 (BMP only; surrogate pairs unsupported since
            // the system never emits them).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  Value parse_number() {
    std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    bool is_double = false;
    if (consume('.')) {
      is_double = true;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ == start) fail("expected value");
    std::string_view tok = text_.substr(start, pos_ - start);
    if (is_double) {
      double d = 0;
      auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), d);
      if (ec != std::errc() || p != tok.data() + tok.size()) fail("bad number");
      return Value(d);
    }
    std::int64_t i = 0;
    auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), i);
    if (ec != std::errc() || p != tok.data() + tok.size()) fail("bad number");
    return Value(i);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string Value::to_json() const {
  std::string out;
  to_json_impl(*this, out);
  return out;
}

Value Value::parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

}  // namespace mps
