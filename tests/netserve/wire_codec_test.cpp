// Frame/body codec fuzz and property tests (ISSUE satellite 1).
//
// The wire decoder sits on the hostile side of the trust boundary: every
// byte a server reads off a socket went through a peer it must not trust
// and a transport that can truncate or corrupt. These tests pin the
// contract from wire.h: a stream position either yields a whole valid
// frame, kNeedMore, or kCorrupt — never a crash, never an overread
// (ASan/UBSan enforce that part in CI), and never a bogus kOk.
//
// Three fuzz families: byte-flip (every single-byte corruption of a
// valid frame is rejected), truncate (every proper prefix is kNeedMore),
// splice (cut streams mid-frame and graft other frames on). Plus exact
// round-trips for every message type with randomized content, bit-exact
// double handling, depth caps and enum range checks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"
#include "common/value.h"
#include "ingest/obs_batch.h"
#include "net/wire.h"
#include "phone/observation.h"

namespace mps::net::wire {
namespace {

using codec::decode_value;
using codec::encode_value;
using codec::Reader;
using codec::Writer;

// --- Random content generators -----------------------------------------

std::string random_string(Rng& rng, std::size_t max_len) {
  std::size_t n = static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(max_len)));
  std::string s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    s.push_back(static_cast<char>(rng.uniform_int(0, 255)));
  return s;
}

double random_double(Rng& rng) {
  switch (rng.uniform_int(0, 5)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return std::numeric_limits<double>::quiet_NaN();
    case 3: return std::numeric_limits<double>::infinity();
    case 4: return -std::numeric_limits<double>::max();
    default: return rng.normal(0.0, 1e9);
  }
}

Value random_value(Rng& rng, int depth) {
  int max_kind = depth > 0 ? 6 : 4;  // leaves only at the depth budget
  switch (rng.uniform_int(0, max_kind)) {
    case 0: return Value();
    case 1: return Value(rng.bernoulli(0.5));
    case 2: return Value(static_cast<std::int64_t>(rng.uniform_int(
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max())));
    case 3: return Value(random_double(rng));
    case 4: return Value(random_string(rng, 24));
    case 5: {
      Array a;
      int n = static_cast<int>(rng.uniform_int(0, 4));
      for (int i = 0; i < n; ++i) a.push_back(random_value(rng, depth - 1));
      return Value(std::move(a));
    }
    default: {
      Object o;
      int n = static_cast<int>(rng.uniform_int(0, 4));
      for (int i = 0; i < n; ++i)
        o.set("k" + std::to_string(i), random_value(rng, depth - 1));
      return Value(std::move(o));
    }
  }
}

phone::Observation random_observation(Rng& rng) {
  phone::Observation obs;
  obs.user = "user-" + std::to_string(rng.uniform_int(0, 9));
  obs.model = "model-" + std::to_string(rng.uniform_int(0, 3));
  obs.captured_at = rng.uniform_int(0, days(300));
  obs.spl_db = random_double(rng);
  obs.mode = static_cast<phone::SensingMode>(rng.uniform_int(0, 2));
  obs.activity = static_cast<phone::Activity>(rng.uniform_int(0, 6));
  obs.span_id = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
  if (rng.bernoulli(0.7)) {
    phone::LocationFix fix;
    fix.provider = static_cast<phone::LocationProvider>(rng.uniform_int(0, 2));
    fix.x_m = rng.normal(0.0, 5000.0);
    fix.y_m = rng.normal(0.0, 5000.0);
    fix.accuracy_m = rng.uniform(1.0, 500.0);
    obs.location = fix;
  }
  return obs;
}

/// Encodes one random message of each type as a framed byte string.
std::vector<std::string> random_frames(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> frames;
  std::string body;
  auto frame = [&](MsgType t) {
    std::string f;
    encode_frame(t, static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20)),
                 body, f);
    frames.push_back(std::move(f));
    body.clear();
  };

  HelloMsg hello;
  hello.client_id = random_string(rng, 16);
  encode_hello(hello, body);
  frame(MsgType::kHello);
  encode_hello(hello, body);
  frame(MsgType::kHelloOk);

  PublishMsg pub;
  pub.exchange = "goflow";
  pub.routing_key = "app.obs.c" + std::to_string(rng.uniform_int(0, 99));
  pub.published_at = rng.uniform_int(0, days(300));
  pub.payload = random_value(rng, 4);
  encode_publish(pub, body);
  frame(MsgType::kPublish);

  ingest::BatchPool pool;
  std::vector<phone::Observation> observations;
  int rows = static_cast<int>(rng.uniform_int(1, 12));
  for (int i = 0; i < rows; ++i) observations.push_back(random_observation(rng));
  auto batch = pool.make_batch("soundcity", "c1", "c1#7", minutes(5),
                               observations);
  encode_publish_flat("goflow", "soundcity.obs.c1", minutes(6), *batch, body);
  frame(MsgType::kPublishFlat);

  PublishOkMsg ok;
  ok.sequence = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
  ok.queues_delivered = static_cast<std::uint32_t>(rng.uniform_int(0, 8));
  encode_publish_ok(ok, body);
  frame(MsgType::kPublishOk);

  PublishErrMsg e;
  e.code = ErrorCode::kUnavailable;
  e.message = random_string(rng, 40);
  encode_publish_err(e, body);
  frame(MsgType::kPublishErr);

  MetricsQueryMsg q;
  q.prefix = "net.";
  encode_metrics_query(q, body);
  frame(MsgType::kMetricsQuery);

  MetricsReplyMsg reply;
  reply.text = random_string(rng, 200);
  encode_metrics_reply(reply, body);
  frame(MsgType::kMetricsReply);

  SeriesQueryMsg sq;
  sq.last_windows = static_cast<std::uint32_t>(rng.uniform_int(0, 64));
  encode_series_query(sq, body);
  frame(MsgType::kSeriesQuery);

  SeriesReplyMsg sr;
  sr.jsonl = random_string(rng, 300);
  encode_series_reply(sr, body);
  frame(MsgType::kSeriesReply);

  RedirectMsg redirect;
  redirect.shard = static_cast<std::uint32_t>(rng.uniform_int(0, 15));
  redirect.port = static_cast<std::uint32_t>(rng.uniform_int(1, 65535));
  redirect.reason = "rebalanced";
  encode_redirect(redirect, body);
  frame(MsgType::kRedirect);

  frame(MsgType::kPing);
  frame(MsgType::kPong);
  return frames;
}

// --- Round trips --------------------------------------------------------

TEST(WireCodec, FrameRoundTripsEveryMessageType) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    for (const std::string& bytes : random_frames(seed)) {
      Frame f;
      ASSERT_EQ(decode_frame(bytes, 0, f), DecodeResult::kOk) << "seed " << seed;
      EXPECT_EQ(f.end_offset, bytes.size());
      EXPECT_TRUE(msg_type_valid(static_cast<std::uint8_t>(f.type)));
      // Re-encoding the decoded frame reproduces the input byte-for-byte.
      std::string re;
      encode_frame(f.type, f.request_id, f.body, re);
      EXPECT_EQ(re, bytes);
    }
  }
}

TEST(WireCodec, HelloRoundTrip) {
  HelloMsg in;
  in.version = kProtocolVersion;
  in.client_id = "paris-phone-042";
  std::string body;
  encode_hello(in, body);
  HelloMsg out;
  ASSERT_TRUE(decode_hello(body, out));
  EXPECT_EQ(out.version, in.version);
  EXPECT_EQ(out.client_id, in.client_id);
}

TEST(WireCodec, PublishRoundTripPreservesValueBitExactly) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    PublishMsg in;
    in.exchange = "goflow";
    in.routing_key = "soundcity.obs.c1";
    in.published_at = rng.uniform_int(0, days(300));
    in.payload = random_value(rng, 5);
    std::string body;
    encode_publish(in, body);

    PublishMsg out;
    ASSERT_TRUE(decode_publish(body, out)) << "seed " << seed;
    EXPECT_EQ(out.exchange, in.exchange);
    EXPECT_EQ(out.routing_key, in.routing_key);
    EXPECT_EQ(out.published_at, in.published_at);
    // Bit-exactness (NaN payloads defeat ==): compare re-encodings.
    std::string a, b;
    encode_value(in.payload, a);
    encode_value(out.payload, b);
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

TEST(WireCodec, ShardPlaneMessagesRoundTripAndRejectTruncation) {
  RedirectMsg redir;
  redir.shard = 1;
  redir.port = 19002;
  redir.reason = "rebalanced";
  std::string body;
  encode_redirect(redir, body);
  RedirectMsg redir2;
  ASSERT_TRUE(decode_redirect(body, redir2));
  EXPECT_EQ(redir2.shard, 1u);
  EXPECT_EQ(redir2.port, 19002u);
  EXPECT_EQ(redir2.reason, "rebalanced");
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    RedirectMsg out;
    EXPECT_FALSE(decode_redirect(body.substr(0, cut), out)) << cut;
  }

  // A redirect to port 0 or past the u16 range is malformed.
  RedirectMsg bad = redir;
  bad.port = 0;
  body.clear();
  encode_redirect(bad, body);
  EXPECT_FALSE(decode_redirect(body, redir2));
  bad.port = 70000;
  body.clear();
  encode_redirect(bad, body);
  EXPECT_FALSE(decode_redirect(body, redir2));
}

TEST(WireCodec, PublishFlatRoundTripsEveryColumn) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    std::vector<phone::Observation> observations;
    int rows = static_cast<int>(rng.uniform_int(1, 20));
    for (int i = 0; i < rows; ++i)
      observations.push_back(random_observation(rng));
    ingest::BatchPool pool;
    auto batch = pool.make_batch("soundcity", "c9",
                                 "c9#" + std::to_string(seed), minutes(3),
                                 observations);
    std::string body;
    encode_publish_flat("goflow", "soundcity.obs.c9", minutes(4), *batch, body);

    PublishFlatMsg out;
    ASSERT_TRUE(decode_publish_flat(body, out)) << "seed " << seed;
    EXPECT_EQ(out.exchange, "goflow");
    EXPECT_EQ(out.routing_key, "soundcity.obs.c9");
    EXPECT_EQ(out.published_at, minutes(4));
    ASSERT_NE(out.batch, nullptr);
    EXPECT_EQ(out.batch->app(), "soundcity");
    EXPECT_EQ(out.batch->client(), "c9");
    EXPECT_EQ(out.batch->batch_id(), "c9#" + std::to_string(seed));
    EXPECT_EQ(out.batch->sent_at(), minutes(3));
    ASSERT_EQ(out.batch->size(), observations.size());
    for (std::size_t i = 0; i < observations.size(); ++i) {
      const phone::Observation& a = observations[i];
      const phone::Observation b = out.batch->observation_at(i);
      EXPECT_EQ(b.user, a.user);
      EXPECT_EQ(b.model, a.model);
      EXPECT_EQ(b.captured_at, a.captured_at);
      // Bit-exact doubles (the generator emits NaN/Inf too).
      std::uint64_t abits, bbits;
      std::memcpy(&abits, &a.spl_db, 8);
      std::memcpy(&bbits, &b.spl_db, 8);
      EXPECT_EQ(bbits, abits);
      EXPECT_EQ(b.mode, a.mode);
      EXPECT_EQ(b.activity, a.activity);
      EXPECT_EQ(b.span_id, a.span_id);
      ASSERT_EQ(b.location.has_value(), a.location.has_value());
      if (a.location.has_value()) {
        EXPECT_EQ(b.location->provider, a.location->provider);
        EXPECT_EQ(b.location->x_m, a.location->x_m);
        EXPECT_EQ(b.location->y_m, a.location->y_m);
        EXPECT_EQ(b.location->accuracy_m, a.location->accuracy_m);
      }
    }

    // The decoded batch has the sent batch's columns and re-encodes to
    // the same body — the determinism the socket equivalence suite leans
    // on.
    for (std::size_t i = 0; i < batch->size(); ++i) {
      EXPECT_EQ(out.batch->user(i), batch->user(i));
      EXPECT_EQ(out.batch->model(i), batch->model(i));
      EXPECT_EQ(out.batch->model_index(i), batch->model_index(i));
    }
    std::string again;
    encode_publish_flat(out.exchange, out.routing_key, out.published_at,
                        *out.batch, again);
    EXPECT_EQ(again, body);
  }
}

TEST(WireCodec, PublishOkAndErrRoundTrip) {
  PublishOkMsg ok;
  ok.sequence = 0xDEADBEEFCAFEull;
  ok.queues_delivered = 3;
  std::string body;
  encode_publish_ok(ok, body);
  PublishOkMsg ok2;
  ASSERT_TRUE(decode_publish_ok(body, ok2));
  EXPECT_EQ(ok2.sequence, ok.sequence);
  EXPECT_EQ(ok2.queues_delivered, ok.queues_delivered);

  // Every ErrorCode survives the trip — the client-side Result must be
  // indistinguishable from the in-process publish's.
  for (ErrorCode code :
       {ErrorCode::kInvalidArgument, ErrorCode::kUnauthorized,
        ErrorCode::kForbidden, ErrorCode::kNotFound, ErrorCode::kConflict,
        ErrorCode::kUnavailable, ErrorCode::kInternal}) {
    PublishErrMsg e;
    e.code = code;
    e.message = "admission control: publish shed";
    body.clear();
    encode_publish_err(e, body);
    PublishErrMsg e2;
    ASSERT_TRUE(decode_publish_err(body, e2));
    EXPECT_EQ(e2.code, e.code);
    EXPECT_EQ(e2.message, e.message);
  }
}

TEST(WireCodec, SeriesQueryAndReplyRoundTrip) {
  SeriesQueryMsg q;
  q.last_windows = 17;
  std::string body;
  encode_series_query(q, body);
  SeriesQueryMsg q2;
  ASSERT_TRUE(decode_series_query(body, q2));
  EXPECT_EQ(q2.last_windows, 17u);

  SeriesReplyMsg r;
  r.jsonl = "{\"start_ms\":0}\n{\"start_ms\":300000}";
  body.clear();
  encode_series_reply(r, body);
  SeriesReplyMsg r2;
  ASSERT_TRUE(decode_series_reply(body, r2));
  EXPECT_EQ(r2.jsonl, r.jsonl);

  // Decode fuzz: every truncation of each valid body is rejected, and
  // trailing junk after a well-formed body is too (strict r.done()).
  std::string qbody, rbody;
  encode_series_query(q, qbody);
  encode_series_reply(r, rbody);
  for (std::size_t cut = 0; cut < qbody.size(); ++cut) {
    SeriesQueryMsg out;
    EXPECT_FALSE(decode_series_query(qbody.substr(0, cut), out)) << cut;
  }
  for (std::size_t cut = 0; cut < rbody.size(); ++cut) {
    SeriesReplyMsg out;
    EXPECT_FALSE(decode_series_reply(rbody.substr(0, cut), out)) << cut;
  }
  SeriesQueryMsg out_q;
  EXPECT_FALSE(decode_series_query(qbody + "x", out_q));
  SeriesReplyMsg out_r;
  EXPECT_FALSE(decode_series_reply(rbody + "x", out_r));
  // A reply whose length prefix overstates the remaining bytes must be
  // bounded, not believed.
  std::string hostile;
  Writer w(hostile);
  w.u32(0x7fffffffu);
  hostile += "short";
  SeriesReplyMsg out_h;
  EXPECT_FALSE(decode_series_reply(hostile, out_h));
}

TEST(WireCodec, ValueCodecRoundTripsRandomTreesBitExactly) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    Value v = random_value(rng, 6);
    std::string a;
    encode_value(v, a);
    Reader r(a);
    Value decoded;
    ASSERT_TRUE(decode_value(r, decoded)) << "seed " << seed;
    EXPECT_TRUE(r.done());
    std::string b;
    encode_value(decoded, b);
    EXPECT_EQ(b, a) << "seed " << seed;
  }
}

// --- Hostile input ------------------------------------------------------

TEST(WireCodec, ByteFlipNeverDecodesOk) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    for (const std::string& frame : random_frames(seed)) {
      Rng rng(seed * 977);
      // Exhaustive for short frames, sampled for long ones.
      std::vector<std::size_t> positions;
      if (frame.size() <= 256) {
        for (std::size_t i = 0; i < frame.size(); ++i) positions.push_back(i);
      } else {
        for (int i = 0; i < 256; ++i)
          positions.push_back(static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(frame.size() - 1))));
      }
      for (std::size_t pos : positions) {
        std::string mutated = frame;
        int bit = static_cast<int>(rng.uniform_int(0, 7));
        mutated[pos] = static_cast<char>(
            static_cast<unsigned char>(mutated[pos]) ^ (1u << bit));
        Frame f;
        DecodeResult r = decode_frame(mutated, 0, f);
        // A flipped length can ask for more bytes (kNeedMore); everything
        // else fails the CRC or the type check. kOk would mean the CRC
        // let a corruption through.
        EXPECT_NE(r, DecodeResult::kOk)
            << "seed " << seed << " flip at " << pos;
      }
    }
  }
}

TEST(WireCodec, EveryProperPrefixNeedsMore) {
  for (const std::string& frame : random_frames(21)) {
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      Frame f;
      EXPECT_EQ(decode_frame(std::string_view(frame).substr(0, cut), 0, f),
                DecodeResult::kNeedMore)
          << "cut " << cut << "/" << frame.size();
    }
  }
}

TEST(WireCodec, SplicedStreamsDecodeSequentiallyAndRejectTornJoints) {
  std::vector<std::string> frames = random_frames(31);
  // Back-to-back frames decode in order via end_offset, like the server's
  // drain loop.
  std::string stream;
  for (const std::string& f : frames) stream += f;
  std::size_t offset = 0;
  std::size_t decoded = 0;
  for (;;) {
    Frame f;
    DecodeResult r = decode_frame(stream, offset, f);
    if (r != DecodeResult::kOk) break;
    offset = f.end_offset;
    ++decoded;
  }
  EXPECT_EQ(decoded, frames.size());
  EXPECT_EQ(offset, stream.size());

  // A stream cut mid-frame with another frame grafted on never yields a
  // valid frame at the joint: the length prefix of the torn frame pulls
  // the graft's bytes under its own CRC.
  Rng rng(33);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string& a = frames[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(frames.size() - 1)))];
    const std::string& b = frames[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(frames.size() - 1)))];
    std::size_t cut = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(a.size() - 1)));
    std::string spliced = a.substr(0, cut) + b;
    Frame f;
    DecodeResult r = decode_frame(spliced, 0, f);
    EXPECT_NE(r, DecodeResult::kOk) << "trial " << trial << " cut " << cut;
  }
}

TEST(WireCodec, RandomGarbageNeverCrashesAnyDecoder) {
  Rng rng(41);
  for (int trial = 0; trial < 500; ++trial) {
    std::string garbage = random_string(
        rng, static_cast<std::size_t>(rng.uniform_int(0, 4096)));
    Frame f;
    DecodeResult r = decode_frame(garbage, 0, f);
    if (r == DecodeResult::kOk) {
      EXPECT_LE(f.end_offset, garbage.size());
    }

    // Every body decoder must also survive raw garbage (the frame CRC is
    // the integrity layer, but decoders still see adversarial bytes when
    // a peer sends a validly-framed lie).
    HelloMsg hello;
    decode_hello(garbage, hello);
    PublishMsg pub;
    decode_publish(garbage, pub);
    PublishFlatMsg flat;
    decode_publish_flat(garbage, flat);
    PublishOkMsg ok;
    decode_publish_ok(garbage, ok);
    PublishErrMsg e;
    decode_publish_err(garbage, e);
    MetricsQueryMsg q;
    decode_metrics_query(garbage, q);
    MetricsReplyMsg reply;
    decode_metrics_reply(garbage, reply);
    SeriesQueryMsg sq;
    decode_series_query(garbage, sq);
    SeriesReplyMsg sr;
    decode_series_reply(garbage, sr);
    RedirectMsg redirect;
    decode_redirect(garbage, redirect);
    Reader reader(garbage);
    Value v;
    decode_value(reader, v);
  }
}

TEST(WireCodec, OverDeepValueIsRejected) {
  // 100 nested arrays: over the 64-level cap. The encoder will happily
  // write it (trusted side); the decoder must refuse.
  std::string body;
  Writer w(body);
  for (int i = 0; i < 100; ++i) {
    w.u8(static_cast<std::uint8_t>(Value::Type::kArray));
    w.u32(1);
  }
  w.u8(static_cast<std::uint8_t>(Value::Type::kNull));
  Reader r(body);
  Value v;
  EXPECT_FALSE(decode_value(r, v));
}

TEST(WireCodec, HostileCountsAreBoundedBeforeAllocation) {
  // An array claiming 2^31 elements in a 10-byte body must be rejected
  // by the count-vs-remaining bound, not by an allocation attempt.
  std::string body;
  Writer w(body);
  w.u8(static_cast<std::uint8_t>(Value::Type::kArray));
  w.u32(0x7FFFFFFFu);
  w.u8(0);
  Reader r(body);
  Value v;
  EXPECT_FALSE(decode_value(r, v));

  // Same for a string length and for flat batch row counts.
  body.clear();
  w.u8(static_cast<std::uint8_t>(Value::Type::kString));
  w.u32(0x7FFFFFFFu);
  Reader r2(body);
  EXPECT_FALSE(decode_value(r2, v));

  // An object's fields are reserved up front, so its count is bounded by
  // the smallest field (an empty key and a tag: 5 bytes) before the
  // reserve: 1,000 fields cannot fit in 4,000 bytes...
  auto object_body = [](std::uint32_t fields, std::size_t bytes) {
    std::string out;
    Writer ow(out);
    ow.u8(static_cast<std::uint8_t>(Value::Type::kObject));
    ow.u32(fields);
    out.append(bytes, '\0');  // empty keys and null tags
    return out;
  };
  Value obj;
  EXPECT_FALSE(decode_value(object_body(1000, 4000), obj));
  EXPECT_FALSE(decode_value(object_body(0x7FFFFFFFu, 10), obj));
  // ...while 800 do: the bound rejects no well-formed object.
  ASSERT_TRUE(decode_value(object_body(800, 4000), obj));
  EXPECT_TRUE(obj.is_object());
}

TEST(WireCodec, FlatPublishEnumRangesAreChecked) {
  // Build one valid flat body, then surgically corrupt each enum byte to
  // an out-of-range value and require rejection. The row layout after
  // the header strings is: span_id u64, user str, model str, captured i64,
  // spl f64, mode u8, activity u8, has_loc u8[, provider u8, ...].
  phone::Observation obs;
  obs.user = "u";
  obs.model = "m";
  obs.captured_at = 1;
  obs.spl_db = 55.0;
  obs.mode = phone::SensingMode::kManual;
  obs.activity = phone::Activity::kStill;
  phone::LocationFix fix;
  fix.provider = phone::LocationProvider::kGps;
  obs.location = fix;
  ingest::BatchPool pool;
  auto batch = pool.make_batch("a", "c", "c#1", 0, {obs});
  std::string body;
  encode_publish_flat("x", "k", 0, *batch, body);

  PublishFlatMsg out;
  ASSERT_TRUE(decode_publish_flat(body, out));

  // Find the three enum bytes by flipping each byte to 200 and counting
  // how many positions turn the decode from true to false with a range
  // error — mode, activity, has_location and provider must all reject.
  int rejected_positions = 0;
  for (std::size_t i = 0; i < body.size(); ++i) {
    std::string mutated = body;
    mutated[i] = static_cast<char>(200);
    PublishFlatMsg m;
    if (!decode_publish_flat(mutated, m)) ++rejected_positions;
  }
  // At minimum the length-prefix bytes, count bytes and the four enum
  // bytes reject; the point is that SOME single-byte enum lies are
  // caught (exact count depends on layout).
  EXPECT_GE(rejected_positions, 4);

  // Directed: the decoded message re-encodes equal, and a mode byte of 3
  // (one past kJourney) specifically fails.
  bool found_mode_byte = false;
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (static_cast<unsigned char>(body[i]) !=
        static_cast<unsigned char>(phone::SensingMode::kManual))
      continue;
    std::string mutated = body;
    mutated[i] = 3;  // out of SensingMode range
    PublishFlatMsg m;
    if (!decode_publish_flat(mutated, m)) found_mode_byte = true;
  }
  EXPECT_TRUE(found_mode_byte);
}

TEST(WireCodec, OversizedLengthFieldIsCorruptNotAnAllocation) {
  // A length field beyond kMaxFramePayload must be kCorrupt immediately —
  // a garbage length must never make the reassembly buffer balloon.
  std::string bytes;
  Writer w(bytes);
  w.u32(kMaxFramePayload + 1);
  w.u32(0);  // crc (never reached)
  bytes += std::string(64, 'x');
  Frame f;
  EXPECT_EQ(decode_frame(bytes, 0, f), DecodeResult::kCorrupt);

  // And a length below the prelude (type + request id) is equally corrupt.
  bytes.clear();
  w.u32(static_cast<std::uint32_t>(kFramePreludeBytes - 1));
  w.u32(0);
  bytes += std::string(64, 'x');
  EXPECT_EQ(decode_frame(bytes, 0, f), DecodeResult::kCorrupt);

  // So is a CRC-valid frame whose type byte names no message: zero, the
  // bytes past kRedirect (14-16 once carried WAL shipping and promotion
  // frames) and the top of the range.
  for (std::uint8_t raw : {0, 14, 15, 16, 255}) {
    EXPECT_FALSE(msg_type_valid(raw)) << int{raw};
    bytes.clear();
    encode_frame(static_cast<MsgType>(raw), 7, "body", bytes);
    EXPECT_EQ(decode_frame(bytes, 0, f), DecodeResult::kCorrupt)
        << int{raw};
  }
}

}  // namespace
}  // namespace mps::net::wire
