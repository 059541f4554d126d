#include "net/net_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "broker/broker.h"
#include "common/log.h"
#include "ingest/obs_batch.h"
#include "obs/flight_recorder.h"
#include "obs/timeseries.h"

namespace mps::net {

namespace {

/// Read chunk size. Small enough to exercise the reassembly path under
/// tests that trickle bytes; large enough that a pump drains loopback
/// buffers in a few reads.
constexpr std::size_t kReadChunk = 64 * 1024;

/// Compact the reassembly buffer once the consumed prefix dominates it —
/// amortized O(1) per byte, and a long-lived connection never pins the
/// bytes of frames it already dispatched.
void compact(std::string& buf, std::size_t& head) {
  if (head > 4096 && head * 2 >= buf.size()) {
    buf.erase(0, head);
    head = 0;
  }
}

}  // namespace

NetServer::NetServer(sim::Simulation& simulation, broker::Broker& broker,
                     NetServerConfig config)
    : sim_(simulation), broker_(broker), config_(std::move(config)) {}

NetServer::~NetServer() {
  close_all(CloseReason::kCrash);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status NetServer::start() {
  if (listening()) return {};
  return bind_and_listen();
}

Status NetServer::bind_and_listen() {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0)
    return err(ErrorCode::kInternal,
               std::string("socket: ") + std::strerror(errno));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  // Recovery rebinds the port the first start() chose, so clients
  // reconnect to the same address across server incarnations.
  addr.sin_port = htons(bound_port_ != 0 ? bound_port_ : config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return err(ErrorCode::kInvalidArgument,
               "bad bind address: " + config_.bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int e = errno;
    ::close(fd);
    return err(ErrorCode::kUnavailable,
               std::string("bind: ") + std::strerror(e));
  }
  if (::listen(fd, config_.listen_backlog) != 0) {
    int e = errno;
    ::close(fd);
    return err(ErrorCode::kInternal,
               std::string("listen: ") + std::strerror(e));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    bound_port_ = ntohs(addr.sin_port);

  int efd = ::epoll_create1(EPOLL_CLOEXEC);
  if (efd < 0) {
    int e = errno;
    ::close(fd);
    return err(ErrorCode::kInternal,
               std::string("epoll_create1: ") + std::strerror(e));
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.fd = fd;
  ::epoll_ctl(efd, EPOLL_CTL_ADD, fd, &ev);
  listen_fd_ = fd;
  epoll_fd_ = efd;
  return {};
}

void NetServer::set_metrics(obs::Registry* registry) {
  sources_.detach();
  if (registry == nullptr) return;
  obs::Registry& r = *registry;
  sources_.counter(r, "net.accepted", stats_.accepted);
  sources_.counter(r, "net.accept_rejected", stats_.accept_rejected);
  sources_.counter(r, "net.disconnects", stats_.disconnects);
  sources_.counter(r, "net.idle_closes", stats_.idle_closes);
  sources_.counter(r, "net.frames_in", stats_.frames_in);
  sources_.counter(r, "net.frames_out", stats_.frames_out);
  sources_.counter(r, "net.frame_rejects", stats_.frame_rejects);
  sources_.counter(r, "net.truncated_frames", stats_.truncated_frames);
  sources_.counter(r, "net.bytes_in", stats_.bytes_in);
  sources_.counter(r, "net.bytes_out", stats_.bytes_out);
  sources_.counter(r, "net.publishes", stats_.publishes);
  sources_.counter(r, "net.publish_errors", stats_.publish_errors);
  sources_.counter(r, "net.redirects_issued", stats_.redirects_issued);
  sources_.gauge(r, "net.connections",
                 [this] { return static_cast<double>(conns_.size()); });
}

void NetServer::arm_faults(fault::FaultPlan* plan) {
  drop_conn_fault_ = plan != nullptr
                         ? fault::FaultPoint(plan, fault::FaultSite::kNetDropConn)
                         : fault::FaultPoint();
}

void NetServer::pump() {
  if (!listening()) return;
  sweep_idle();
  // Drain readiness edges. Edge-triggered: each event handler loops until
  // EAGAIN, so one edge is never left half-consumed. The outer loop keeps
  // going while epoll reports anything — dispatching a frame can make a
  // peer write more (via the client's own loop), but never within this
  // call, so the loop terminates when the kernel queues are empty.
  epoll_event events[64];
  for (;;) {
    int n = ::epoll_wait(epoll_fd_, events, 64, 0);
    if (n <= 0) break;
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        accept_ready();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier this pump
      if ((events[i].events & EPOLLOUT) != 0 && !flush_writes(it->second))
        continue;
      if ((events[i].events &
           (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0)
        // On HUP/ERR the read loop still drains any final bytes the peer
        // managed to send before hitting EOF/ECONNRESET and closing.
        read_ready(it->second);
    }
    if (n < 64) break;  // drained everything the kernel had queued
  }
  // Retry pending writes even without an EPOLLOUT edge: a response that
  // hit EAGAIN mid-frame must not wait for the peer to transition the
  // socket, only for buffer space — which a later pump can find.
  std::vector<int> pending;
  for (auto& [fd, conn] : conns_)
    if (conn.whead < conn.wbuf.size()) pending.push_back(fd);
  for (int fd : pending) {
    auto it = conns_.find(fd);
    if (it != conns_.end()) flush_writes(it->second);
  }
}

void NetServer::sweep_idle() {
  if (config_.idle_timeout <= 0) return;
  TimeMs now = sim_.now();
  std::vector<int> idle;
  for (auto& [fd, conn] : conns_)
    if (now - conn.last_activity >= config_.idle_timeout) idle.push_back(fd);
  for (int fd : idle) {
    ++stats_.idle_closes;
    close_conn(fd, CloseReason::kIdle);
  }
}

void NetServer::accept_ready() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) break;  // EAGAIN (or transient error): nothing more queued
    if (config_.max_connections > 0 &&
        conns_.size() >= config_.max_connections) {
      // Bounded accept: shed the connection outright. The client sees a
      // reset on its first exchange and backs off like any other shed.
      ++stats_.accept_rejected;
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    Conn conn;
    conn.fd = fd;
    conn.id = next_conn_id_++;
    conn.last_activity = sim_.now();
    ++stats_.accepted;
    obs::FlightRecorder::record(obs::FrEvent::kNetConnect, conn.id,
                                stats_.accepted, sim_.now());
    conns_.emplace(fd, std::move(conn));
  }
}

bool NetServer::read_ready(Conn& conn) {
  int fd = conn.fd;
  char chunk[kReadChunk];
  for (;;) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn.rbuf.append(chunk, static_cast<std::size_t>(n));
      stats_.bytes_in += static_cast<std::uint64_t>(n);
      conn.last_activity = sim_.now();
      continue;
    }
    if (n == 0) {
      // Peer closed. A partial frame left in the buffer is the
      // mid-frame-disconnect case (kNetTruncateFrame): the bytes are
      // discarded with the connection and server state is untouched.
      if (conn.rhead < conn.rbuf.size()) {
        ++stats_.truncated_frames;
      }
      close_conn(fd, CloseReason::kPeer);
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_conn(fd, CloseReason::kPeer);
    return false;
  }
  return drain_frames(conn);
}

bool NetServer::drain_frames(Conn& conn) {
  for (;;) {
    wire::Frame frame;
    wire::DecodeResult r = wire::decode_frame(conn.rbuf, conn.rhead, frame);
    if (r == wire::DecodeResult::kNeedMore) break;
    if (r == wire::DecodeResult::kCorrupt) {
      ++stats_.frame_rejects;
      obs::FlightRecorder::record(obs::FrEvent::kNetFrameReject, conn.id,
                                  stats_.frame_rejects, sim_.now());
      close_conn(conn.fd, CloseReason::kPoisoned);
      return false;
    }
    ++stats_.frames_in;
    std::size_t end = frame.end_offset;
    if (!dispatch(conn, frame)) return false;
    conn.rhead = end;
    compact(conn.rbuf, conn.rhead);
  }
  compact(conn.rbuf, conn.rhead);
  return flush_writes(conn);
}

bool NetServer::dispatch(Conn& conn, const wire::Frame& frame) {
  using wire::MsgType;
  // Injected connection drop: the request is thrown away before any
  // dispatch — from the client's side, a publish that vanished into the
  // network. Its retry (same batch id) closes the loop through dedup.
  if (drop_conn_fault_.should_fail(sim_.now())) {
    ++stats_.drop_conn_injected;
    close_conn(conn.fd, CloseReason::kFault);
    return false;
  }
  if (!conn.greeted && frame.type != MsgType::kHello) {
    ++stats_.frame_rejects;
    obs::FlightRecorder::record(obs::FrEvent::kNetFrameReject, conn.id,
                                stats_.frame_rejects, sim_.now());
    close_conn(conn.fd, CloseReason::kPoisoned);
    return false;
  }

  auto poison = [&]() {
    ++stats_.frame_rejects;
    obs::FlightRecorder::record(obs::FrEvent::kNetFrameReject, conn.id,
                                stats_.frame_rejects, sim_.now());
    close_conn(conn.fd, CloseReason::kPoisoned);
    return false;
  };

  // Shard routing: a publish for a client whose slot moved away is
  // answered kRedirect before it touches the broker. `client` comes from
  // the batch itself, falling back to the Hello identity.
  auto maybe_redirect = [&](std::string_view client) {
    if (!redirect_fn_) return false;
    if (client.empty()) client = conn.client_id;
    if (client.empty()) return false;
    std::optional<wire::RedirectMsg> target = redirect_fn_(client);
    if (!target.has_value()) return false;
    ++stats_.redirects_issued;
    wire::encode_redirect(*target, body_scratch_);
    reply(conn, MsgType::kRedirect, frame.request_id, body_scratch_);
    return true;
  };

  // A publish's ack, or the exact error the broker produced.
  auto answer = [&](const Result<broker::PublishResult>& result) {
    if (!result.ok()) {
      ++stats_.publish_errors;
      wire::encode_publish_err({result.error().code, result.error().message},
                               body_scratch_);
      reply(conn, MsgType::kPublishErr, frame.request_id, body_scratch_);
      return true;
    }
    ++stats_.publishes;
    wire::encode_publish_ok(
        {result.value().sequence,
         static_cast<std::uint32_t>(result.value().queues_delivered)},
        body_scratch_);
    if (fail_ack_budget_ > 0) {
      --fail_ack_budget_;
      close_conn(conn.fd, CloseReason::kAckFail);
      return false;
    }
    reply(conn, MsgType::kPublishOk, frame.request_id, body_scratch_);
    return true;
  };

  body_scratch_.clear();
  switch (frame.type) {
    case MsgType::kHello: {
      wire::HelloMsg hello;
      if (!wire::decode_hello(frame.body, hello)) return poison();
      if (hello.version != wire::kProtocolVersion) return poison();
      conn.greeted = true;
      conn.client_id = hello.client_id;
      wire::HelloMsg ok;
      ok.version = wire::kProtocolVersion;
      wire::encode_hello(ok, body_scratch_);
      reply(conn, MsgType::kHelloOk, frame.request_id, body_scratch_);
      return true;
    }
    case MsgType::kPing:
      reply(conn, MsgType::kPong, frame.request_id, {});
      return true;
    case MsgType::kPublish: {
      wire::PublishMsg msg;
      if (!wire::decode_publish(frame.body, msg)) return poison();
      if (maybe_redirect(msg.payload.get_string("client"))) return true;
      return answer(broker_.publish(msg.exchange, msg.routing_key,
                                    std::move(msg.payload), msg.published_at));
    }
    case MsgType::kPublishFlat: {
      wire::PublishFlatMsg msg;
      if (!wire::decode_publish_flat(frame.body, msg)) return poison();
      if (maybe_redirect(msg.batch->client())) return true;
      return answer(broker_.publish_flat(msg.exchange, msg.routing_key,
                                         std::move(msg.batch),
                                         msg.published_at));
    }
    case MsgType::kMetricsQuery: {
      wire::MetricsQueryMsg q;
      if (!wire::decode_metrics_query(frame.body, q)) return poison();
      ++stats_.metrics_queries;
      wire::MetricsReplyMsg r;
      if (served_registry_ != nullptr) {
        std::string text = served_registry_->export_text();
        if (q.prefix.empty()) {
          r.text = std::move(text);
        } else {
          // Keep lines whose metric name (second token) has the prefix.
          std::size_t pos = 0;
          while (pos < text.size()) {
            std::size_t eol = text.find('\n', pos);
            if (eol == std::string::npos) eol = text.size();
            std::string_view line(text.data() + pos, eol - pos);
            std::size_t sp = line.find(' ');
            if (sp != std::string_view::npos) {
              std::string_view name = line.substr(sp + 1);
              if (name.substr(0, q.prefix.size()) == q.prefix) {
                r.text.append(line);
                r.text.push_back('\n');
              }
            }
            pos = eol + 1;
          }
        }
      }
      wire::encode_metrics_reply(r, body_scratch_);
      reply(conn, MsgType::kMetricsReply, frame.request_id, body_scratch_);
      return true;
    }
    case MsgType::kSeriesQuery: {
      wire::SeriesQueryMsg q;
      if (!wire::decode_series_query(frame.body, q)) return poison();
      ++stats_.series_queries;
      wire::SeriesReplyMsg r;
      if (served_series_ != nullptr)
        r.jsonl = served_series_->to_jsonl(q.last_windows);
      wire::encode_series_reply(r, body_scratch_);
      reply(conn, MsgType::kSeriesReply, frame.request_id, body_scratch_);
      return true;
    }
    default:
      // Response types arriving at the server are protocol violations.
      return poison();
  }
}

void NetServer::reply(Conn& conn, wire::MsgType type, std::uint64_t request_id,
                      std::string_view body) {
  frame_scratch_.clear();
  wire::encode_frame(type, request_id, body, frame_scratch_);
  conn.wbuf.append(frame_scratch_);
  ++stats_.frames_out;
}

bool NetServer::flush_writes(Conn& conn) {
  while (conn.whead < conn.wbuf.size()) {
    ssize_t n = ::send(conn.fd, conn.wbuf.data() + conn.whead,
                       conn.wbuf.size() - conn.whead, MSG_NOSIGNAL);
    if (n > 0) {
      conn.whead += static_cast<std::size_t>(n);
      stats_.bytes_out += static_cast<std::uint64_t>(n);
      conn.last_activity = sim_.now();
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    close_conn(conn.fd, CloseReason::kPeer);
    return false;
  }
  if (conn.whead == conn.wbuf.size() && conn.whead > 0) {
    conn.wbuf.clear();
    conn.whead = 0;
  }
  return true;
}

void NetServer::close_conn(int fd, CloseReason reason) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  // Best-effort flush of anything already queued (e.g. earlier acks on a
  // connection now being idle-closed); losing it is fine — the client
  // treats a missing response as a retryable failure.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  ++stats_.disconnects;
  obs::FlightRecorder::record(obs::FrEvent::kNetDisconnect, it->second.id,
                              static_cast<std::uint64_t>(reason), sim_.now());
  conns_.erase(it);
}

void NetServer::close_all(CloseReason reason) {
  while (!conns_.empty()) close_conn(conns_.begin()->first, reason);
}

void NetServer::crash() {
  close_all(CloseReason::kCrash);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

Status NetServer::recover() {
  if (listening()) return {};
  Status s = bind_and_listen();
  if (!s.ok())
    MPS_LOG_WARN("net-server", "recovery rebind failed: " + s.error().message);
  return s;
}

}  // namespace mps::net
