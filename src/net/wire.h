// The GoFlow wire protocol: a length-prefixed, CRC32-framed binary
// protocol carrying observation-batch publishes, acks/sheds and metrics
// queries between real socket endpoints (DESIGN.md §14).
//
// Frame layout (all integers little-endian, fixed width — the WAL frame
// discipline of src/durable applied to a socket stream, with the same
// CRC-32 from common/crc32.h):
//
//   [u32 payload_len][u32 crc32][u8 type][u64 request_id][body bytes]
//
// payload_len counts everything after the crc field (type + request_id +
// body); the CRC covers that same region, so a frame whose length field
// survived a partial write but whose body didn't is still rejected —
// exactly the WAL's torn-record rule. A stream position either yields a
// whole valid frame, "need more bytes" (reassembly continues), or
// "corrupt" (the connection is poisoned and must be closed — unlike the
// WAL there is no later valid prefix to resync to on a byte stream).
//
// Body encodings are the fixed-width/length-prefixed primitives of
// common/codec.h (the encoding WAL records and snapshots use too). Two
// payload families matter:
//   - document publishes carry a full Value tree in the codec's Value
//     encoding, whose doubles round-trip bit-exactly (bit_cast, not text);
//   - flat publishes carry the batch's one serialized form,
//     ingest::encode_batch, which decode_batch turns back into the same
//     columns, so server-side state equals the in-process hand-off.
//
// Every decoder is hostile-input safe: lengths are bounded against the
// remaining byte count before any allocation, enum bytes are range-
// checked, Value nesting is depth-capped, and no read ever passes the
// buffer end — the frame-fuzz suite (tests/netserve) flips, truncates
// and splices encoded streams to pin this.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/types.h"
#include "common/value.h"

namespace mps::ingest {
class ObsBatch;
}

namespace mps::net::wire {

/// Protocol version carried in the Hello exchange.
inline constexpr std::uint32_t kProtocolVersion = 1;

/// Hard bound on a frame's payload (type + request id + body). Anything
/// larger is corrupt by definition — a garbage length field must never
/// make the reassembly buffer balloon.
inline constexpr std::uint32_t kMaxFramePayload = 8u << 20;

/// Bytes before the body: [len][crc] header plus [type][request_id].
inline constexpr std::size_t kFrameHeaderBytes = 4 + 4;
inline constexpr std::size_t kFramePreludeBytes = 1 + 8;

/// Message types. Requests carry a client-chosen request id; the matching
/// response echoes it.
enum class MsgType : std::uint8_t {
  kHello = 1,        ///< client -> server: protocol version + client id
  kHelloOk = 2,      ///< server -> client: accepted version
  kPublish = 3,      ///< document-path batch publish (Value payload)
  kPublishFlat = 4,  ///< flat-path batch publish (ObsBatch columns)
  kPublishOk = 5,    ///< ack: broker sequence + queues delivered
  kPublishErr = 6,   ///< shed/reject: ErrorCode + message
  kMetricsQuery = 7, ///< registry text export, filtered by prefix
  kMetricsReply = 8,
  kPing = 9,
  kPong = 10,
  kSeriesQuery = 11, ///< windowed time-series export (obs::TimeSeries JSONL)
  kSeriesReply = 12,
  kRedirect = 13,    ///< server -> client: this client's shard moved
};

/// True for byte values that name a MsgType.
bool msg_type_valid(std::uint8_t raw);
const char* msg_type_name(MsgType t);

// --- Frame codec -------------------------------------------------------

/// Appends one framed message to `out`.
void encode_frame(MsgType type, std::uint64_t request_id,
                  std::string_view body, std::string& out);

/// One decoded frame. `body` views into the scanned buffer and is only
/// valid until the buffer mutates.
struct Frame {
  MsgType type = MsgType::kPing;
  std::uint64_t request_id = 0;
  std::string_view body;
  std::size_t end_offset = 0;  ///< offset just past this frame
};

enum class DecodeResult {
  kOk,        ///< `out` holds a valid frame
  kNeedMore,  ///< partial frame: keep the bytes, read more
  kCorrupt,   ///< bad length/CRC/type: poison the connection
};

/// Decodes the frame at `offset`. Never reads past buffer.size() and
/// never allocates.
DecodeResult decode_frame(std::string_view buffer, std::size_t offset,
                          Frame& out);

// --- Messages -----------------------------------------------------------

struct HelloMsg {
  std::uint32_t version = kProtocolVersion;
  std::string client_id;
};
void encode_hello(const HelloMsg& m, std::string& out);
bool decode_hello(std::string_view body, HelloMsg& out);

/// Document-path publish: the batch document exactly as the in-process
/// client would hand it to Broker::publish.
struct PublishMsg {
  std::string exchange;
  std::string routing_key;
  TimeMs published_at = 0;
  Value payload;
};
void encode_publish(const PublishMsg& m, std::string& out);
bool decode_publish(std::string_view body, PublishMsg& out);

/// Flat-path publish: routing, then the batch as ingest::encode_batch
/// writes it, decoded into the columns the client sent (so identical
/// to the in-process shared_ptr).
struct PublishFlatMsg {
  std::string exchange;
  std::string routing_key;
  TimeMs published_at = 0;
  std::shared_ptr<const ingest::ObsBatch> batch;
};
void encode_publish_flat(const std::string& exchange,
                         const std::string& routing_key, TimeMs published_at,
                         const ingest::ObsBatch& batch, std::string& out);
bool decode_publish_flat(std::string_view body, PublishFlatMsg& out);

/// Publish response: either an ack (kPublishOk) or an error (kPublishErr)
/// carrying the exact ErrorCode + message the broker produced, so the
/// client-side Result is indistinguishable from an in-process publish.
struct PublishOkMsg {
  std::uint64_t sequence = 0;
  std::uint32_t queues_delivered = 0;
};
void encode_publish_ok(const PublishOkMsg& m, std::string& out);
bool decode_publish_ok(std::string_view body, PublishOkMsg& out);

struct PublishErrMsg {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};
void encode_publish_err(const PublishErrMsg& m, std::string& out);
bool decode_publish_err(std::string_view body, PublishErrMsg& out);

struct MetricsQueryMsg {
  std::string prefix;  ///< empty = full export
};
void encode_metrics_query(const MetricsQueryMsg& m, std::string& out);
bool decode_metrics_query(std::string_view body, MetricsQueryMsg& out);

struct MetricsReplyMsg {
  std::string text;
};
void encode_metrics_reply(const MetricsReplyMsg& m, std::string& out);
bool decode_metrics_reply(std::string_view body, MetricsReplyMsg& out);

/// Windowed time-series query: the last `last_windows` closed rollup
/// windows (0 = everything retained), as the same JSONL the REST
/// endpoint GET /metrics/series serves.
struct SeriesQueryMsg {
  std::uint32_t last_windows = 0;
};
void encode_series_query(const SeriesQueryMsg& m, std::string& out);
bool decode_series_query(std::string_view body, SeriesQueryMsg& out);

struct SeriesReplyMsg {
  std::string jsonl;  ///< one JSON object per closed window, "\n"-joined
};
void encode_series_reply(const SeriesReplyMsg& m, std::string& out);
bool decode_series_reply(std::string_view body, SeriesReplyMsg& out);

/// Shard redirect: the client's hash slot now lives on another server.
/// Sent instead of processing a publish; the client reconnects to `port`
/// and re-sends the retained frame (dedup keys moved with the slot, so
/// the resend stays exactly-once).
struct RedirectMsg {
  std::uint32_t shard = 0;   ///< shard now owning the client's slot
  std::uint32_t port = 0;    ///< where that shard's front door listens
  std::string reason;        ///< human-readable ("rebalanced", "failover")
};
void encode_redirect(const RedirectMsg& m, std::string& out);
bool decode_redirect(std::string_view body, RedirectMsg& out);

}  // namespace mps::net::wire
