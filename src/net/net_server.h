// The GoFlow network serving plane: a real-socket front door for the
// broker (DESIGN.md §14).
//
// NetServer owns a non-blocking loopback listener and an edge-triggered
// epoll set. It is NOT a thread: the simulation stays single-threaded,
// and the server makes progress only when pump() is called — by the
// NetClient's exchange loop (co-simulation: a request/response round
// trip completes synchronously inside one sim event, so socket mode
// schedules exactly the same events as the in-process hand-off) or by a
// test driving partial I/O by hand.
//
// Per-connection state is a read-reassembly buffer (partial frames
// accumulate until decode_frame says kOk) and a write buffer (partial
// sends drain on later pumps). A corrupt frame — bad length, bad CRC,
// unknown type, malformed body — poisons the connection: on a byte
// stream there is no later record boundary to resync to, so the only
// safe move is to drop the connection and let the client's retry
// machinery re-send (the WAL's torn-tail rule, applied to a socket).
//
// Dispatch goes straight into the same broker the in-process path uses:
// flat publishes are decoded by ingest::decode_batch into the columns the
// client sent (so server-side state is byte-identical to the zero-copy
// hand-off), acks/sheds carry the exact
// Result the broker produced, and metrics queries serve the attached
// registry's text export. crash()/recover() mirror ServerLifecycle: a
// crash closes every socket and the listener; recovery rebinds the same
// port so clients reconnect without rediscovery.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "fault/fault.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "sim/simulation.h"

namespace mps::broker {
class Broker;
}

namespace mps::obs {
class TimeSeries;
}

namespace mps::net {

/// Server configuration.
struct NetServerConfig {
  /// Loopback only: this plane serves the simulated fleet, not the LAN.
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; the bound port (see port()) is then handed to clients.
  std::uint16_t port = 0;
  /// listen(2) backlog.
  int listen_backlog = 64;
  /// Connections beyond this are accepted and immediately closed (the
  /// bounded-accept backlog; the client sees a reset and backs off like
  /// any other shed). 0 = unbounded.
  std::size_t max_connections = 1024;
  /// A connection with no traffic for this long (virtual time) is closed
  /// at the next pump. 0 disables idle closing.
  DurationMs idle_timeout = 0;
  /// Per-frame payload bound enforced on top of wire::kMaxFramePayload.
  std::uint32_t max_frame_bytes = wire::kMaxFramePayload;
};

/// Server-side counters (registered as net.* registry metrics).
struct NetServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t accept_rejected = 0;  ///< over max_connections
  std::uint64_t disconnects = 0;      ///< peer closed / poisoned / crashed
  std::uint64_t idle_closes = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t frame_rejects = 0;    ///< corrupt frames (conn poisoned)
  std::uint64_t truncated_frames = 0; ///< EOF with a partial frame pending
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t publishes = 0;        ///< publish frames dispatched OK
  std::uint64_t publish_errors = 0;   ///< publishes answered with an error
  std::uint64_t metrics_queries = 0;
  std::uint64_t series_queries = 0;
  std::uint64_t drop_conn_injected = 0;  ///< kNetDropConn faults fired
  std::uint64_t redirects_issued = 0;    ///< publishes answered kRedirect
};

/// The event-loop server.
class NetServer {
 public:
  NetServer(sim::Simulation& simulation, broker::Broker& broker,
            NetServerConfig config = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds and listens. Idempotent while already listening.
  Status start();

  /// The bound port (valid after start(); survives crash() so recovery
  /// rebinds the same address).
  std::uint16_t port() const { return bound_port_; }

  bool listening() const { return listen_fd_ >= 0; }

  /// Drives the event loop: accepts, reads, dispatches, writes — until
  /// no further progress is possible without new bytes. Never blocks.
  void pump();

  /// Models the serving process dying: the listener and every connection
  /// close (clients see resets and retry). Counters and the bound port
  /// survive — they belong to the observer, not the dead process.
  void crash();

  /// Rebinds the same port and resumes serving.
  Status recover();

  /// Open connections right now.
  std::size_t connection_count() const { return conns_.size(); }

  const NetServerStats& stats() const { return stats_; }

  /// Registry served to kMetricsQuery frames (set_metrics registers the
  /// net.* counters separately). Pass nullptr to detach.
  void serve_registry(obs::Registry* registry) { served_registry_ = registry; }

  /// TimeSeries served to kSeriesQuery frames — the same windowed JSONL
  /// GET /metrics/series exposes over REST. Pass nullptr to detach
  /// (queries then answer with an empty series, not an error: a server
  /// without telemetry wired up is not a protocol violation).
  void serve_timeseries(obs::TimeSeries* series) { served_series_ = series; }

  /// Registers the server counters with `registry` under net.* names and
  /// the open connections as the net.connections gauge. Pass nullptr to
  /// detach.
  void set_metrics(obs::Registry* registry);

  /// Arms FaultSite::kNetDropConn: a firing drops the connection before
  /// dispatching the frame (the client never gets a response and
  /// retries). Pass nullptr to disarm.
  void arm_faults(fault::FaultPlan* plan);

  /// Test hook: the next `n` successfully dispatched requests are
  /// processed but their connection closes before the response is sent —
  /// the "server did the work, client never heard back" duplicate-
  /// pressure case the reconnect/dedup regression pins.
  void fail_next_ack(std::uint64_t n) { fail_ack_budget_ = n; }

  /// Shard routing hook: consulted per publish with the batch's client
  /// id (falling back to the connection's Hello identity). Returning a
  /// RedirectMsg answers kRedirect INSTEAD of publishing — this front
  /// door no longer owns the client's slot, so it must not process the
  /// batch (a rebalance moved the dedup keys away; processing here would
  /// store a duplicate the new owner cannot see). Pass {} to detach.
  using RedirectFn =
      std::function<std::optional<wire::RedirectMsg>(std::string_view client)>;
  void set_redirect_fn(RedirectFn fn) { redirect_fn_ = std::move(fn); }

 private:
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;       ///< monotone accept counter (FR events)
    std::string rbuf;           ///< reassembly buffer
    std::size_t rhead = 0;      ///< consumed prefix of rbuf
    std::string wbuf;           ///< unsent response bytes
    std::size_t whead = 0;
    TimeMs last_activity = 0;
    bool greeted = false;       ///< Hello completed
    std::string client_id;      ///< identity the Hello carried (may be "")
  };

  enum class CloseReason { kPeer, kPoisoned, kIdle, kCrash, kFault, kAckFail };

  Status bind_and_listen();
  void accept_ready();
  /// Reads until EAGAIN/EOF, then decodes and dispatches every complete
  /// frame. Returns false when the connection was closed.
  bool read_ready(Conn& conn);
  /// Flushes the write buffer; false when the connection died.
  bool flush_writes(Conn& conn);
  /// Decodes + dispatches frames out of conn.rbuf; false on poison/close.
  bool drain_frames(Conn& conn);
  /// Handles one frame; appends any response to conn.wbuf. Returns false
  /// when the connection must close (poison, fault, ack-fail).
  bool dispatch(Conn& conn, const wire::Frame& frame);
  void reply(Conn& conn, wire::MsgType type, std::uint64_t request_id,
             std::string_view body);
  void close_conn(int fd, CloseReason reason);
  void close_all(CloseReason reason);
  void sweep_idle();

  sim::Simulation& sim_;
  broker::Broker& broker_;
  NetServerConfig config_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::map<int, Conn> conns_;
  std::uint64_t next_conn_id_ = 1;
  std::uint64_t fail_ack_budget_ = 0;
  RedirectFn redirect_fn_;
  fault::FaultPoint drop_conn_fault_;
  obs::Registry* served_registry_ = nullptr;
  obs::TimeSeries* served_series_ = nullptr;
  NetServerStats stats_;
  std::string frame_scratch_;  ///< reused response-frame encode buffer
  std::string body_scratch_;   ///< reused response-body encode buffer
  obs::Sources sources_;
};

}  // namespace mps::net
