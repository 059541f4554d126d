// Socket client for the GoFlow network serving plane (DESIGN.md §14).
//
// NetClient is the transport a sim device plugs under its GoFlowClient:
// publish()/publish_flat() frame the batch, send it over a real loopback
// socket and block — in the co-simulation sense — until the server's
// response frame arrives. "Block" never means wall-clock waiting: the
// client's exchange loop alternates its own non-blocking socket I/O with
// a pump callback that drives the NetServer event loop in the same
// thread, so a whole request/response round trip completes synchronously
// inside one sim event and socket mode schedules exactly the same events
// as the in-process hand-off.
//
// Failure semantics mirror the in-process path: a refused connection, a
// dropped connection or an unresponsive server surfaces as a
// kUnavailable Result, which the GoFlowClient's existing retry/backoff
// machinery treats exactly like a broker shed. Publishes are idempotent
// across retries through the pending outbox: the encoded frame is
// retained keyed by the batch id, so a retry of the same batch re-sends
// the identical bytes (same request id) and server-side dedup absorbs
// any duplicate from an ack that was processed but never received.
//
// One transparent reconnect: when an established connection turns out to
// be dead at send time (the server idle-closed it between uploads) and
// no response bytes arrived, the client reconnects and re-sends once
// before reporting failure — the reconnect-not-an-error case every
// long-lived protocol client handles.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "broker/broker.h"
#include "common/result.h"
#include "common/types.h"
#include "common/value.h"
#include "fault/fault.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "sim/simulation.h"

namespace mps::ingest {
class ObsBatch;
}

namespace mps::net {

/// Client configuration.
struct NetClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string client_id;
  /// Exchange-loop iterations without any byte of progress before the
  /// server is declared unresponsive (kUnavailable). Progress resets it.
  int spin_limit = 1024;
};

/// Client-side counters (registered as net.client_* registry metrics).
struct NetClientStats {
  std::uint64_t connects = 0;
  std::uint64_t connect_failures = 0;
  std::uint64_t publishes = 0;          ///< acked publishes
  std::uint64_t publish_failures = 0;   ///< error responses + lost conns
  std::uint64_t resends = 0;            ///< retained-frame re-sends
  std::uint64_t transparent_retries = 0;///< reconnect-and-resend successes
  std::uint64_t redirects = 0;          ///< kRedirect hops followed
  std::uint64_t truncate_injected = 0;  ///< kNetTruncateFrame faults fired
  std::uint64_t timeouts = 0;           ///< spin limit hit
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

/// The socket client.
class NetClient {
 public:
  NetClient(sim::Simulation& simulation, NetClientConfig config);
  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// The co-simulation hook: called inside every exchange loop iteration
  /// to let the server make progress (typically [srv]{ srv->pump(); }).
  void set_pump(std::function<void()> pump) { pump_ = std::move(pump); }

  /// Arms FaultSite::kNetTruncateFrame: a firing sends only a prefix of
  /// the request frame and hard-closes the socket — the mid-frame
  /// disconnect the partial-I/O torture suite pins. Pass nullptr to
  /// disarm.
  void arm_faults(fault::FaultPlan* plan);

  /// Document-path publish. `token` is the idempotency key (the batch
  /// id): calling again with the same token re-sends the retained frame
  /// instead of encoding a new one.
  Result<broker::PublishResult> publish(const std::string& exchange,
                                        const std::string& routing_key,
                                        const Value& payload, TimeMs now,
                                        std::string_view token);

  /// Flat-path publish; the batch id is the idempotency token.
  Result<broker::PublishResult> publish_flat(
      const std::string& exchange, const std::string& routing_key,
      const std::shared_ptr<const ingest::ObsBatch>& batch, TimeMs now);

  /// Fetches the server registry's text export (optionally filtered to
  /// names with `prefix`).
  Result<std::string> query_metrics(const std::string& prefix = "");

  /// Fetches the server's windowed time-series as JSONL — one JSON
  /// object per closed rollup window, oldest first; `last_windows`
  /// limits to the most recent windows (0 = all retained). Empty string
  /// when the server has no TimeSeries attached.
  Result<std::string> query_series(std::uint32_t last_windows = 0);

  /// Round-trip liveness probe.
  Status ping();

  /// Drops the retained outbox frame (client crash / batch give-up: the
  /// observations went back to the buffer and will be re-packaged under
  /// a new batch id, so the old frame must never ride again).
  void abort_pending() { pending_.reset(); }

  /// Closes the socket (pending outbox is kept — reconnect re-sends it).
  void disconnect();

  bool connected() const { return fd_ >= 0; }
  bool has_pending() const { return pending_.has_value(); }

  const NetClientStats& stats() const { return stats_; }
  const NetClientConfig& config() const { return config_; }

  /// Registers the client counters with `registry` under net.client_*
  /// names. Pass nullptr to detach.
  void set_metrics(obs::Registry* registry);

 private:
  enum class XResult {
    kOk,           ///< response frame for the request id decoded
    kConnLost,     ///< connection died (eligible for transparent retry)
    kInjectedLost, ///< truncate fault fired (never transparently retried)
    kTimeout,      ///< spin limit without progress
  };

  struct Pending {
    std::string token;
    std::string frame;  ///< fully encoded request frame
    std::uint64_t request_id = 0;
  };

  /// Decoded response, with the body copied out of the read buffer.
  struct Response {
    wire::MsgType type = wire::MsgType::kPong;
    std::string body;
  };

  Status connect_now();
  /// Sends `frame` and waits for the response with `request_id`.
  /// `got_bytes` reports whether any response bytes arrived (a retry
  /// after that point could double-process, so the caller must not).
  XResult exchange(std::string_view frame, std::uint64_t request_id,
                   Response& out, bool& got_bytes);
  XResult send_all(std::string_view bytes);
  void pump() { if (pump_) pump_(); }
  Result<broker::PublishResult> run_publish(std::string_view token,
                                            wire::MsgType type,
                                            std::string_view body);
  /// One-shot request (hello/ping/metrics): no outbox, no retry.
  XResult roundtrip(wire::MsgType type, std::string_view body, Response& out);

  sim::Simulation& sim_;
  NetClientConfig config_;
  std::function<void()> pump_;
  int fd_ = -1;
  bool fresh_ = false;  ///< no exchange completed on this connection yet
  std::string rbuf_;
  std::size_t rhead_ = 0;
  std::uint64_t next_request_id_ = 1;
  std::optional<Pending> pending_;
  fault::FaultPoint truncate_fault_;
  NetClientStats stats_;
  std::string scratch_;  ///< reused one-shot frame/body encode buffer
  obs::Sources sources_;
};

}  // namespace mps::net
