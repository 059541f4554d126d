// The project's one binary encoding: fixed-width little-endian
// primitives (Writer/Reader) and, on top of them, a tagged encoding of
// Value trees. Wire message bodies (net/wire), WAL records and snapshot
// payloads (durable) are all written with it.
//
// Value encoding: one tag byte (the Value::Type index) followed by
//   null    nothing
//   bool    u8 0|1
//   int     i64
//   double  f64, bit-exact (NaN payloads, infinities and -0.0 survive)
//   string  u32 length + bytes
//   array   u32 count + that many values
//   object  u32 count + that many (u32-length key, value) pairs, in key
//           order as stored (insertion order)
// Exact: decode(encode(v)) == v with the same types and the same bits.
//
// A streaming writer can emit the same bytes without building a tree:
// encode_object_header / encode_array_header announce a container's
// size, encode_key names an object field, and encode_value writes each
// member. The docstore snapshots a whole store this way, one document
// at a time, with no copy of the store in between.
//
// Every decoder is hostile-input safe: lengths and counts are bounded
// against the remaining bytes before any allocation, nesting is capped
// at kMaxValueDepth, and no read passes the end of the input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/value.h"

namespace mps::codec {

/// Deepest Value nesting the decoder accepts (the root is depth 0). The
/// middleware's documents are a handful of levels deep; anything deeper
/// is corruption or abuse.
inline constexpr std::size_t kMaxValueDepth = 64;

/// Appends fixed-width little-endian primitives to a byte string.
class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);  ///< bit-exact (bit_cast to u64)
  void str(std::string_view s);  ///< u32 length + bytes
  /// Overwrites the four bytes at `offset` (written earlier, e.g. as a
  /// placeholder) with `v` — for a length or checksum that is only known
  /// once the bytes after it exist.
  void u32_at(std::size_t offset, std::uint32_t v);

 private:
  std::string& out_;
};

/// Bounds-checked reader over a byte string. Every getter returns false
/// (leaving the cursor unspecified) instead of reading past the end.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}
  bool u8(std::uint8_t& v);
  bool u32(std::uint32_t& v);
  bool u64(std::uint64_t& v);
  bool i64(std::int64_t& v);
  bool f64(double& v);
  bool str(std::string_view& s);  ///< views into the input
  bool done() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Appends the encoding of `v`.
void encode_value(const Value& v, std::string& out);

/// Streaming writer calls: the header of an object with `fields` fields
/// (each then written as encode_key + one value), the header of an array
/// with `elements` elements (each then written as one value), and one
/// object field's key.
void encode_object_header(std::uint32_t fields, std::string& out);
void encode_array_header(std::uint32_t elements, std::string& out);
void encode_key(std::string_view key, std::string& out);
/// Appends exactly the bytes encode_value(Value(s)) would, without the
/// Value.
void encode_string(std::string_view s, std::string& out);
/// Sets the element count of the array header encode_array_header wrote
/// at `offset` of `out` — for a writer that learns the count only once
/// the elements are written.
void patch_array_header(std::size_t offset, std::uint32_t elements,
                        std::string& out);

/// Decodes one Value at the reader's position; false on malformed,
/// truncated or over-deep input.
bool decode_value(Reader& r, Value& out);

/// Decodes `bytes` as exactly one Value; false when decode_value fails
/// or bytes are left over after it.
bool decode_value(std::string_view bytes, Value& out);

}  // namespace mps::codec
