#include "net/net_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "ingest/obs_batch.h"

namespace mps::net {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

void compact(std::string& buf, std::size_t& head) {
  if (head > 4096 && head * 2 >= buf.size()) {
    buf.erase(0, head);
    head = 0;
  }
}

bool is_response(wire::MsgType t) {
  switch (t) {
    case wire::MsgType::kHelloOk:
    case wire::MsgType::kPublishOk:
    case wire::MsgType::kPublishErr:
    case wire::MsgType::kRedirect:
    case wire::MsgType::kMetricsReply:
    // kSeriesReply was missing here, which made every query_series()
    // spin past its own answer into a timeout.
    case wire::MsgType::kSeriesReply:
    case wire::MsgType::kPong:
      return true;
    default:
      return false;
  }
}

}  // namespace

NetClient::NetClient(sim::Simulation& simulation, NetClientConfig config)
    : sim_(simulation), config_(std::move(config)) {}

NetClient::~NetClient() { disconnect(); }

void NetClient::arm_faults(fault::FaultPlan* plan) {
  truncate_fault_ =
      plan != nullptr
          ? fault::FaultPoint(plan, fault::FaultSite::kNetTruncateFrame)
          : fault::FaultPoint();
}

void NetClient::set_metrics(obs::Registry* registry) {
  sources_.detach();
  if (registry == nullptr) return;
  obs::Registry& r = *registry;
  sources_.counter(r, "net.client_connects", stats_.connects);
  sources_.counter(r, "net.client_connect_failures", stats_.connect_failures);
  sources_.counter(r, "net.client_publishes", stats_.publishes);
  sources_.counter(r, "net.client_publish_failures", stats_.publish_failures);
  sources_.counter(r, "net.client_resends", stats_.resends);
  sources_.counter(r, "net.client_transparent_retries",
                   stats_.transparent_retries);
  sources_.counter(r, "net.client_redirects", stats_.redirects);
  sources_.counter(r, "net.client_bytes_in", stats_.bytes_in);
  sources_.counter(r, "net.client_bytes_out", stats_.bytes_out);
}

void NetClient::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rbuf_.clear();
  rhead_ = 0;
}

Status NetClient::connect_now() {
  disconnect();
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0)
    return err(ErrorCode::kInternal,
               std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return err(ErrorCode::kInvalidArgument, "bad host: " + config_.host);
  }
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    int e = errno;
    ::close(fd);
    ++stats_.connect_failures;
    return err(ErrorCode::kUnavailable,
               std::string("connect: ") + std::strerror(e));
  }
  // Drive the non-blocking connect to completion, pumping the server so
  // its accept loop can run. On loopback this resolves within a few
  // iterations (or immediately as ECONNREFUSED when nothing listens).
  int spins = 0;
  for (;;) {
    pump();
    pollfd p{fd, POLLOUT, 0};
    int pr = ::poll(&p, 1, 0);
    if (pr > 0) {
      int soerr = 0;
      socklen_t len = sizeof(soerr);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
      if (soerr == 0 && (p.revents & POLLOUT) != 0) break;
      ::close(fd);
      ++stats_.connect_failures;
      return err(ErrorCode::kUnavailable,
                 std::string("connect: ") +
                     std::strerror(soerr != 0 ? soerr : ECONNRESET));
    }
    if (++spins > config_.spin_limit) {
      ::close(fd);
      ++stats_.connect_failures;
      return err(ErrorCode::kUnavailable, "connect: timed out");
    }
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  fresh_ = true;

  // Protocol handshake. The server rejects publishes on un-greeted
  // connections, so this happens before the connection counts as up.
  wire::HelloMsg hello;
  hello.version = wire::kProtocolVersion;
  hello.client_id = config_.client_id;
  scratch_.clear();
  wire::encode_hello(hello, scratch_);
  Response resp;
  if (roundtrip(wire::MsgType::kHello, scratch_, resp) != XResult::kOk ||
      resp.type != wire::MsgType::kHelloOk) {
    disconnect();
    ++stats_.connect_failures;
    return err(ErrorCode::kUnavailable, "hello exchange failed");
  }
  ++stats_.connects;
  return {};
}

NetClient::XResult NetClient::send_all(std::string_view bytes) {
  // Injected mid-frame disconnect: ship a strict prefix, then kill the
  // socket. The server must discard the partial frame untouched.
  if (truncate_fault_.should_fail(sim_.now()) && bytes.size() > 1) {
    std::size_t cut = bytes.size() / 2;
    ssize_t n = ::send(fd_, bytes.data(), cut, MSG_NOSIGNAL);
    (void)n;
    ++stats_.truncate_injected;
    disconnect();
    return XResult::kInjectedLost;
  }
  std::size_t off = 0;
  int spins = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      stats_.bytes_out += static_cast<std::uint64_t>(n);
      spins = 0;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Socket buffer full: let the server drain it.
      pump();
      if (++spins > config_.spin_limit) return XResult::kTimeout;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return XResult::kConnLost;
  }
  return XResult::kOk;
}

NetClient::XResult NetClient::exchange(std::string_view frame,
                                       std::uint64_t request_id, Response& out,
                                       bool& got_bytes) {
  got_bytes = false;
  if (fd_ < 0) return XResult::kConnLost;
  XResult sent = send_all(frame);
  if (sent != XResult::kOk) return sent;

  char chunk[kReadChunk];
  int spins = 0;
  for (;;) {
    pump();
    bool progress = false;
    for (;;) {
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        rbuf_.append(chunk, static_cast<std::size_t>(n));
        stats_.bytes_in += static_cast<std::uint64_t>(n);
        got_bytes = true;
        progress = true;
        continue;
      }
      if (n == 0) return XResult::kConnLost;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return XResult::kConnLost;
    }
    for (;;) {
      wire::Frame f;
      wire::DecodeResult r = wire::decode_frame(rbuf_, rhead_, f);
      if (r == wire::DecodeResult::kNeedMore) break;
      if (r == wire::DecodeResult::kCorrupt) return XResult::kConnLost;
      rhead_ = f.end_offset;
      if (f.request_id == request_id && is_response(f.type)) {
        out.type = f.type;
        out.body.assign(f.body);
        compact(rbuf_, rhead_);
        fresh_ = false;
        return XResult::kOk;
      }
      // A response to an earlier, abandoned request (e.g. an ack that
      // raced a transparent retry): skip it — idempotent publishes make
      // acting on the newer response safe either way.
      compact(rbuf_, rhead_);
    }
    if (progress) {
      spins = 0;
    } else if (++spins > config_.spin_limit) {
      ++stats_.timeouts;
      return XResult::kTimeout;
    }
  }
}

NetClient::XResult NetClient::roundtrip(wire::MsgType type,
                                        std::string_view body, Response& out) {
  std::uint64_t id = next_request_id_++;
  std::string frame;
  wire::encode_frame(type, id, body, frame);
  bool got_bytes = false;
  return exchange(frame, id, out, got_bytes);
}

Result<broker::PublishResult> NetClient::run_publish(std::string_view token,
                                                     wire::MsgType type,
                                                     std::string_view body) {
  // The pending outbox: one retained frame keyed by the batch id. A
  // retry of the same batch re-encodes the caller's fresh body under the
  // retained request id — an in-process retry publishes at the retry
  // time, so the wire retry must carry the retry timestamp too or the
  // stored received_at diverges between the transports. The batch id
  // inside the body is what makes a processed-then-lost-ack re-send a
  // server-side dedup no-op, not the frame bytes. A new batch replaces
  // the slot (the previous one gave up and was re-buffered).
  if (!pending_.has_value() || pending_->token != token) {
    Pending p;
    p.token.assign(token);
    p.request_id = next_request_id_++;
    wire::encode_frame(type, p.request_id, body, p.frame);
    pending_ = std::move(p);
  } else {
    pending_->frame.clear();  // encode_frame appends
    wire::encode_frame(type, pending_->request_id, body, pending_->frame);
    ++stats_.resends;
  }

  bool was_fresh = connected() && fresh_;
  if (!connected()) {
    Status s = connect_now();
    if (!s.ok()) {
      ++stats_.publish_failures;
      return s.error();
    }
    was_fresh = true;
  }

  Response resp;
  bool got_bytes = false;
  XResult r = exchange(pending_->frame, pending_->request_id, resp, got_bytes);
  if (r == XResult::kConnLost && !was_fresh && !got_bytes) {
    // The server idle-closed this connection between uploads and never
    // read the frame: reconnect and re-send once, transparently. Safe
    // because no response byte arrived — the server cannot have
    // processed the request on the closed connection's terms; even if it
    // did (processed-then-lost-ack), the batch id makes the re-send a
    // dedup no-op.
    disconnect();
    Status s = connect_now();
    if (s.ok()) {
      ++stats_.transparent_retries;
      r = exchange(pending_->frame, pending_->request_id, resp, got_bytes);
    }
  }
  if (r != XResult::kOk) {
    disconnect();
    ++stats_.publish_failures;
    return err(ErrorCode::kUnavailable, "publish: connection lost");
  }

  // Shard redirects: the server answered "not mine any more — ask over
  // there". Re-send the SAME retained frame (same request id, same batch
  // id) at the new port: the dedup keys moved with the slot, so even a
  // processed-then-lost-ack duplicate stays exactly-once on the new
  // owner. Hops are bounded — a cyclic or thrashing map must surface as
  // an error, not an infinite chase.
  constexpr int kMaxRedirectHops = 3;
  for (int hop = 0; resp.type == wire::MsgType::kRedirect; ++hop) {
    wire::RedirectMsg redirect;
    if (hop >= kMaxRedirectHops ||
        !wire::decode_redirect(resp.body, redirect)) {
      disconnect();
      ++stats_.publish_failures;
      return err(ErrorCode::kUnavailable, "publish: redirect chase failed");
    }
    ++stats_.redirects;
    disconnect();
    config_.port = static_cast<std::uint16_t>(redirect.port);
    Status s = connect_now();
    if (!s.ok()) {
      ++stats_.publish_failures;
      return s.error();
    }
    r = exchange(pending_->frame, pending_->request_id, resp, got_bytes);
    if (r != XResult::kOk) {
      disconnect();
      ++stats_.publish_failures;
      return err(ErrorCode::kUnavailable, "publish: connection lost");
    }
  }

  if (resp.type == wire::MsgType::kPublishOk) {
    wire::PublishOkMsg ok;
    if (!wire::decode_publish_ok(resp.body, ok)) {
      disconnect();
      ++stats_.publish_failures;
      return err(ErrorCode::kInternal, "malformed publish ack");
    }
    pending_.reset();
    ++stats_.publishes;
    broker::PublishResult result;
    result.sequence = ok.sequence;
    result.queues_delivered = ok.queues_delivered;
    return result;
  }
  if (resp.type == wire::MsgType::kPublishErr) {
    wire::PublishErrMsg e;
    if (!wire::decode_publish_err(resp.body, e)) {
      disconnect();
      ++stats_.publish_failures;
      return err(ErrorCode::kInternal, "malformed publish error");
    }
    // The pending slot is retained: the caller's backoff retry of this
    // batch re-enters run_publish under the same token. The error
    // carries the broker's exact code + message, so the caller cannot
    // tell this Result from an in-process publish — the equivalence
    // suite relies on that.
    ++stats_.publish_failures;
    return err(e.code, e.message);
  }
  disconnect();
  ++stats_.publish_failures;
  return err(ErrorCode::kInternal, "unexpected response type");
}

Result<broker::PublishResult> NetClient::publish(const std::string& exchange,
                                                 const std::string& routing_key,
                                                 const Value& payload,
                                                 TimeMs now,
                                                 std::string_view token) {
  wire::PublishMsg msg;
  msg.exchange = exchange;
  msg.routing_key = routing_key;
  msg.published_at = now;
  msg.payload = payload;
  std::string body;
  wire::encode_publish(msg, body);
  return run_publish(token, wire::MsgType::kPublish, body);
}

Result<broker::PublishResult> NetClient::publish_flat(
    const std::string& exchange, const std::string& routing_key,
    const std::shared_ptr<const ingest::ObsBatch>& batch, TimeMs now) {
  std::string body;
  wire::encode_publish_flat(exchange, routing_key, now, *batch, body);
  return run_publish(batch->batch_id(), wire::MsgType::kPublishFlat, body);
}

Result<std::string> NetClient::query_metrics(const std::string& prefix) {
  if (!connected()) {
    Status s = connect_now();
    if (!s.ok()) return s.error();
  }
  wire::MetricsQueryMsg q;
  q.prefix = prefix;
  scratch_.clear();
  wire::encode_metrics_query(q, scratch_);
  Response resp;
  if (roundtrip(wire::MsgType::kMetricsQuery, scratch_, resp) != XResult::kOk ||
      resp.type != wire::MsgType::kMetricsReply) {
    disconnect();
    return err(ErrorCode::kUnavailable, "metrics query failed");
  }
  wire::MetricsReplyMsg reply;
  if (!wire::decode_metrics_reply(resp.body, reply)) {
    disconnect();
    return err(ErrorCode::kInternal, "malformed metrics reply");
  }
  return reply.text;
}

Result<std::string> NetClient::query_series(std::uint32_t last_windows) {
  if (!connected()) {
    Status s = connect_now();
    if (!s.ok()) return s.error();
  }
  wire::SeriesQueryMsg q;
  q.last_windows = last_windows;
  scratch_.clear();
  wire::encode_series_query(q, scratch_);
  Response resp;
  if (roundtrip(wire::MsgType::kSeriesQuery, scratch_, resp) != XResult::kOk ||
      resp.type != wire::MsgType::kSeriesReply) {
    disconnect();
    return err(ErrorCode::kUnavailable, "series query failed");
  }
  wire::SeriesReplyMsg reply;
  if (!wire::decode_series_reply(resp.body, reply)) {
    disconnect();
    return err(ErrorCode::kInternal, "malformed series reply");
  }
  return reply.jsonl;
}

Status NetClient::ping() {
  if (!connected()) {
    Status s = connect_now();
    if (!s.ok()) return s;
  }
  Response resp;
  if (roundtrip(wire::MsgType::kPing, {}, resp) != XResult::kOk ||
      resp.type != wire::MsgType::kPong) {
    disconnect();
    return err(ErrorCode::kUnavailable, "ping failed");
  }
  return {};
}

}  // namespace mps::net
