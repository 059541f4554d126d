#include "common/codec.h"

#include <bit>

namespace mps::codec {

// --- Primitives ---------------------------------------------------------

namespace {

/// Writes the `bytes` low bytes of `v` to `p`, little-endian.
void store_le(char* p, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i)
    p[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
}

std::uint64_t load_le(const char* p, int bytes) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i)
    v |= static_cast<std::uint64_t>(u[i]) << (8 * i);
  return v;
}

}  // namespace

void Writer::u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }

void Writer::u32(std::uint32_t v) {
  char b[4];
  store_le(b, v, 4);
  out_.append(b, 4);
}

void Writer::u64(std::uint64_t v) {
  char b[8];
  store_le(b, v, 8);
  out_.append(b, 8);
}

void Writer::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_.append(s);
}

void Writer::u32_at(std::size_t offset, std::uint32_t v) {
  store_le(out_.data() + offset, v, 4);
}

bool Reader::u8(std::uint8_t& v) {
  if (remaining() < 1) return false;
  v = static_cast<std::uint8_t>(data_[pos_]);
  pos_ += 1;
  return true;
}

bool Reader::u32(std::uint32_t& v) {
  if (remaining() < 4) return false;
  v = static_cast<std::uint32_t>(load_le(data_.data() + pos_, 4));
  pos_ += 4;
  return true;
}

bool Reader::u64(std::uint64_t& v) {
  if (remaining() < 8) return false;
  v = load_le(data_.data() + pos_, 8);
  pos_ += 8;
  return true;
}

bool Reader::i64(std::int64_t& v) {
  std::uint64_t u = 0;
  if (!u64(u)) return false;
  v = static_cast<std::int64_t>(u);
  return true;
}

bool Reader::f64(double& v) {
  std::uint64_t u = 0;
  if (!u64(u)) return false;
  v = std::bit_cast<double>(u);
  return true;
}

bool Reader::str(std::string_view& s) {
  std::uint32_t len = 0;
  if (!u32(len)) return false;
  if (remaining() < len) return false;
  s = data_.substr(pos_, len);
  pos_ += len;
  return true;
}

// --- Values -------------------------------------------------------------

void encode_object_header(std::uint32_t fields, std::string& out) {
  Writer w(out);
  w.u8(static_cast<std::uint8_t>(Value::Type::kObject));
  w.u32(fields);
}

void encode_array_header(std::uint32_t elements, std::string& out) {
  Writer w(out);
  w.u8(static_cast<std::uint8_t>(Value::Type::kArray));
  w.u32(elements);
}

void encode_string(std::string_view s, std::string& out) {
  Writer w(out);
  w.u8(static_cast<std::uint8_t>(Value::Type::kString));
  w.str(s);
}

void patch_array_header(std::size_t offset, std::uint32_t elements,
                        std::string& out) {
  Writer(out).u32_at(offset + 1, elements);  // past the tag byte
}

void encode_key(std::string_view key, std::string& out) {
  Writer(out).str(key);
}

void encode_value(const Value& v, std::string& out) {
  Writer w(out);
  switch (v.type()) {
    case Value::Type::kNull:
      w.u8(static_cast<std::uint8_t>(Value::Type::kNull));
      break;
    case Value::Type::kBool:
      w.u8(static_cast<std::uint8_t>(Value::Type::kBool));
      w.u8(v.as_bool() ? 1 : 0);
      break;
    case Value::Type::kInt:
      w.u8(static_cast<std::uint8_t>(Value::Type::kInt));
      w.i64(v.as_int());
      break;
    case Value::Type::kDouble:
      w.u8(static_cast<std::uint8_t>(Value::Type::kDouble));
      w.f64(v.as_double());
      break;
    case Value::Type::kString:
      encode_string(v.as_string(), out);
      break;
    case Value::Type::kArray: {
      const Array& a = v.as_array();
      encode_array_header(static_cast<std::uint32_t>(a.size()), out);
      for (const Value& e : a) encode_value(e, out);
      break;
    }
    case Value::Type::kObject: {
      const Object& o = v.as_object();
      encode_object_header(static_cast<std::uint32_t>(o.size()), out);
      for (const auto& [key, val] : o) {
        encode_key(key, out);
        encode_value(val, out);
      }
      break;
    }
  }
}

namespace {

/// The smallest encoded object field: an empty key (its u32 length) and
/// a null value's tag.
constexpr std::size_t kMinFieldBytes = 4 + 1;

bool decode_rec(Reader& r, Value& out, std::size_t depth) {
  if (depth > kMaxValueDepth) return false;
  std::uint8_t tag = 0;
  if (!r.u8(tag)) return false;
  switch (static_cast<Value::Type>(tag)) {
    case Value::Type::kNull:
      out = Value();
      return true;
    case Value::Type::kBool: {
      std::uint8_t b = 0;
      if (!r.u8(b) || b > 1) return false;
      out = Value(b == 1);
      return true;
    }
    case Value::Type::kInt: {
      std::int64_t i = 0;
      if (!r.i64(i)) return false;
      out = Value(i);
      return true;
    }
    case Value::Type::kDouble: {
      double d = 0;
      if (!r.f64(d)) return false;
      out = Value(d);
      return true;
    }
    case Value::Type::kString: {
      std::string_view s;
      if (!r.str(s)) return false;
      out = Value(std::string(s));
      return true;
    }
    case Value::Type::kArray: {
      std::uint32_t n = 0;
      if (!r.u32(n)) return false;
      // Every element costs at least its tag byte: a count beyond the
      // remaining bytes is a lie, rejected before the reserve.
      if (n > r.remaining()) return false;
      Array a;
      a.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        Value e;
        if (!decode_rec(r, e, depth + 1)) return false;
        a.push_back(std::move(e));
      }
      out = Value(std::move(a));
      return true;
    }
    case Value::Type::kObject: {
      std::uint32_t n = 0;
      if (!r.u32(n)) return false;
      // Every field costs at least an empty key and a tag byte: a count
      // beyond that is a lie, rejected before the reserve.
      if (n > r.remaining() / kMinFieldBytes) return false;
      Object o;
      o.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        std::string_view key;
        Value val;
        if (!r.str(key)) return false;
        if (!decode_rec(r, val, depth + 1)) return false;
        o.set(std::string(key), std::move(val));
      }
      out = Value(std::move(o));
      return true;
    }
  }
  return false;  // unknown tag
}

}  // namespace

bool decode_value(Reader& r, Value& out) { return decode_rec(r, out, 0); }

bool decode_value(std::string_view bytes, Value& out) {
  Reader r(bytes);
  return decode_value(r, out) && r.done();
}

}  // namespace mps::codec
