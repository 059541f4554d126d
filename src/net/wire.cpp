#include "net/wire.h"

#include "common/codec.h"
#include "common/crc32.h"
#include "ingest/obs_batch.h"

namespace mps::net::wire {

using codec::Reader;
using codec::Writer;

bool msg_type_valid(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(MsgType::kHello) &&
         raw <= static_cast<std::uint8_t>(MsgType::kRedirect);
}

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kHello: return "hello";
    case MsgType::kHelloOk: return "hello_ok";
    case MsgType::kPublish: return "publish";
    case MsgType::kPublishFlat: return "publish_flat";
    case MsgType::kPublishOk: return "publish_ok";
    case MsgType::kPublishErr: return "publish_err";
    case MsgType::kMetricsQuery: return "metrics_query";
    case MsgType::kMetricsReply: return "metrics_reply";
    case MsgType::kPing: return "ping";
    case MsgType::kPong: return "pong";
    case MsgType::kSeriesQuery: return "series_query";
    case MsgType::kSeriesReply: return "series_reply";
    case MsgType::kRedirect: return "redirect";
  }
  return "unknown";
}

// --- Frame codec -------------------------------------------------------

void encode_frame(MsgType type, std::uint64_t request_id,
                  std::string_view body, std::string& out) {
  std::uint32_t payload_len =
      static_cast<std::uint32_t>(kFramePreludeBytes + body.size());
  Writer w(out);
  w.u32(payload_len);
  std::size_t crc_at = out.size();
  w.u32(0);  // CRC patched below, once the payload bytes exist
  std::size_t payload_at = out.size();
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(request_id);
  out.append(body);
  w.u32_at(crc_at,
           crc32(std::string_view(out.data() + payload_at, payload_len)));
}

DecodeResult decode_frame(std::string_view buffer, std::size_t offset,
                          Frame& out) {
  if (offset > buffer.size()) return DecodeResult::kCorrupt;
  Reader header(buffer.substr(offset));
  std::uint32_t payload_len = 0;
  std::uint32_t want_crc = 0;
  if (!header.u32(payload_len) || !header.u32(want_crc))
    return DecodeResult::kNeedMore;
  // A length that cannot hold the prelude, or exceeds the hard bound, is
  // garbage — reject before it can pin a huge reassembly buffer.
  if (payload_len < kFramePreludeBytes || payload_len > kMaxFramePayload)
    return DecodeResult::kCorrupt;
  if (header.remaining() < payload_len) return DecodeResult::kNeedMore;
  std::string_view payload =
      buffer.substr(offset + kFrameHeaderBytes, payload_len);
  if (crc32(payload) != want_crc) return DecodeResult::kCorrupt;
  Reader prelude(payload);
  std::uint8_t raw_type = 0;
  prelude.u8(raw_type);
  if (!msg_type_valid(raw_type)) return DecodeResult::kCorrupt;
  out.type = static_cast<MsgType>(raw_type);
  prelude.u64(out.request_id);
  out.body = payload.substr(kFramePreludeBytes);
  out.end_offset = offset + kFrameHeaderBytes + payload_len;
  return DecodeResult::kOk;
}

// --- Messages -----------------------------------------------------------

void encode_hello(const HelloMsg& m, std::string& out) {
  Writer w(out);
  w.u32(m.version);
  w.str(m.client_id);
}

bool decode_hello(std::string_view body, HelloMsg& out) {
  Reader r(body);
  std::string_view id;
  if (!r.u32(out.version) || !r.str(id) || !r.done()) return false;
  out.client_id.assign(id);
  return true;
}

void encode_publish(const PublishMsg& m, std::string& out) {
  Writer w(out);
  w.str(m.exchange);
  w.str(m.routing_key);
  w.i64(m.published_at);
  codec::encode_value(m.payload, out);
}

bool decode_publish(std::string_view body, PublishMsg& out) {
  Reader r(body);
  std::string_view exchange, key;
  if (!r.str(exchange) || !r.str(key) || !r.i64(out.published_at))
    return false;
  if (!codec::decode_value(r, out.payload) || !r.done()) return false;
  out.exchange.assign(exchange);
  out.routing_key.assign(key);
  return true;
}

void encode_publish_flat(const std::string& exchange,
                         const std::string& routing_key, TimeMs published_at,
                         const ingest::ObsBatch& batch, std::string& out) {
  Writer w(out);
  w.str(exchange);
  w.str(routing_key);
  w.i64(published_at);
  ingest::encode_batch(batch, 0, batch.size(), out);
}

bool decode_publish_flat(std::string_view body, PublishFlatMsg& out) {
  Reader r(body);
  std::string_view exchange, key;
  if (!r.str(exchange) || !r.str(key) || !r.i64(out.published_at))
    return false;
  out.batch = ingest::decode_batch(body.substr(body.size() - r.remaining()));
  if (out.batch == nullptr) return false;
  out.exchange.assign(exchange);
  out.routing_key.assign(key);
  return true;
}

void encode_publish_ok(const PublishOkMsg& m, std::string& out) {
  Writer w(out);
  w.u64(m.sequence);
  w.u32(m.queues_delivered);
}

bool decode_publish_ok(std::string_view body, PublishOkMsg& out) {
  Reader r(body);
  return r.u64(out.sequence) && r.u32(out.queues_delivered) && r.done();
}

void encode_publish_err(const PublishErrMsg& m, std::string& out) {
  Writer w(out);
  w.u8(static_cast<std::uint8_t>(m.code));
  w.str(m.message);
}

bool decode_publish_err(std::string_view body, PublishErrMsg& out) {
  Reader r(body);
  std::uint8_t code = 0;
  std::string_view message;
  if (!r.u8(code) || !r.str(message) || !r.done()) return false;
  if (code > static_cast<std::uint8_t>(ErrorCode::kInternal)) return false;
  out.code = static_cast<ErrorCode>(code);
  out.message.assign(message);
  return true;
}

void encode_metrics_query(const MetricsQueryMsg& m, std::string& out) {
  Writer w(out);
  w.str(m.prefix);
}

bool decode_metrics_query(std::string_view body, MetricsQueryMsg& out) {
  Reader r(body);
  std::string_view prefix;
  if (!r.str(prefix) || !r.done()) return false;
  out.prefix.assign(prefix);
  return true;
}

void encode_metrics_reply(const MetricsReplyMsg& m, std::string& out) {
  Writer w(out);
  w.str(m.text);
}

bool decode_metrics_reply(std::string_view body, MetricsReplyMsg& out) {
  Reader r(body);
  std::string_view text;
  if (!r.str(text) || !r.done()) return false;
  out.text.assign(text);
  return true;
}

void encode_series_query(const SeriesQueryMsg& m, std::string& out) {
  Writer w(out);
  w.u32(m.last_windows);
}

bool decode_series_query(std::string_view body, SeriesQueryMsg& out) {
  Reader r(body);
  if (!r.u32(out.last_windows) || !r.done()) return false;
  return true;
}

void encode_series_reply(const SeriesReplyMsg& m, std::string& out) {
  Writer w(out);
  w.str(m.jsonl);
}

bool decode_series_reply(std::string_view body, SeriesReplyMsg& out) {
  Reader r(body);
  std::string_view jsonl;
  if (!r.str(jsonl) || !r.done()) return false;
  out.jsonl.assign(jsonl);
  return true;
}

// --- Shard redirects ----------------------------------------------------

void encode_redirect(const RedirectMsg& m, std::string& out) {
  Writer w(out);
  w.u32(m.shard);
  w.u32(m.port);
  w.str(m.reason);
}

bool decode_redirect(std::string_view body, RedirectMsg& out) {
  Reader r(body);
  std::string_view reason;
  if (!r.u32(out.shard) || !r.u32(out.port) || !r.str(reason) || !r.done())
    return false;
  if (out.port == 0 || out.port > 65535) return false;
  out.reason.assign(reason);
  return true;
}

}  // namespace mps::net::wire
