// GoFlow mobile client library.
//
// The on-phone half of the middleware (paper §3, §5.3). Responsibilities:
//   - schedule opportunistic sensing at a configurable period (default
//     5 min, as in the paper);
//   - accept manual ("sense now") and journey measurements;
//   - buffer observations according to the app-version policy:
//       v1.1    — no buffering, naive connection handling (a connection
//                 is re-established per upload: extra bytes + latency);
//       v1.2.9  — no buffering, persistent connection ("optimized use of
//                 RabbitMQ", Nov 2015);
//       v1.3    — buffering of N observations per upload (Apr 2016);
//   - store-and-forward: if the device is disconnected when an upload is
//     due, keep the observations and retry at the next sensing cycle
//     (exactly the paper's policy);
//   - publish batches to the client's exchange on the broker and record
//     per-observation transmission delays (Figure 17's metric).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "broker/broker.h"
#include "common/rng.h"
#include "fault/fault.h"
#include "ingest/obs_batch.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "phone/phone.h"
#include "sim/simulation.h"

namespace mps::net {
class NetClient;
}

namespace mps::client {

/// Released versions of the SoundCity app (paper §5.3).
enum class AppVersion { kV1_1, kV1_2_9, kV1_3 };

const char* app_version_name(AppVersion v);

/// Client configuration.
struct ClientConfig {
  AppId app = "soundcity";
  ClientId client_id;
  /// Exchange the client publishes to (created by the GoFlow server's
  /// channel management on login).
  ExchangeId exchange;
  /// Opportunistic sensing period (paper default: 5 minutes).
  DurationMs sense_period = minutes(5);
  /// Observations per upload batch; 1 reproduces the non-buffering
  /// versions, 10 is the v1.3 default.
  std::size_t buffer_size = 1;
  AppVersion version = AppVersion::kV1_3;
  /// Whether the user opted into sharing; when false, observations are
  /// recorded locally and never uploaded.
  bool share = true;
  /// Piggyback uploads (paper §2 background, Lane et al.): when another
  /// app has the radio warm at a sensing tick, flush the buffer even if
  /// below buffer_size — the ramp cost is already paid.
  bool piggyback = false;
  /// Upper bound on how long an observation may sit in the buffer before
  /// a flush is forced at the next tick (0 = unbounded). Bounds the delay
  /// cost of large buffers.
  DurationMs max_buffer_age = 0;
  /// Mobility-gated sensing (paper §7: activity matters "in the design of
  /// mobility-dependent MPS"; Fig 21: users are still ~70% of the time).
  /// When > 1, a device that has not moved since the previous tick only
  /// senses every Nth tick — stationary scenes change slowly, so most of
  /// those samples are redundant and their energy is wasted.
  int still_backoff = 1;
  /// Movement threshold for the mobility gate (meters between ticks).
  double still_epsilon_m = 25.0;
  /// Extra bytes per upload paid by v1.1's naive per-publish connection
  /// establishment (TCP+TLS+AMQP handshakes).
  std::size_t v1_1_connection_overhead_bytes = 2200;
  /// Extra latency of the v1.1 handshake.
  DurationMs v1_1_connection_latency = milliseconds(450);

  // Retry policy for failed publishes (exponential backoff with jitter,
  // driven by the sim clock). A batch that exhausts its attempts returns
  // to the front of the store-and-forward buffer — delayed, never lost.
  DurationMs retry_base = seconds(30);
  DurationMs retry_max = minutes(16);
  double retry_jitter = 0.2;
  int max_publish_attempts = 6;
  /// Seed for the jitter stream (kept separate from the phone's seed so
  /// arming retries never perturbs sensing randomness).
  std::uint64_t retry_seed = 0;

  /// Batch factory for uploads (DESIGN.md §13): every upload is
  /// serialized once, by BatchPool::make_batch, into a flat ObsBatch that
  /// travels zero-copy to the docstore. When null the client creates a
  /// private pool; a study shares one pool across the whole fleet so its
  /// ingest.* counters cover every upload.
  ingest::BatchPool* batch_pool = nullptr;

  /// Socket transport (DESIGN.md §14): when set, publishes travel over a
  /// real loopback socket through this NetClient instead of the direct
  /// broker call. Connection loss surfaces as kUnavailable, which the
  /// retry/backoff machinery treats exactly like a shed; the transport's
  /// pending outbox keeps retries byte-identical. Must outlive the client.
  net::NetClient* transport = nullptr;

  /// Shard routing hook (DESIGN.md §16): when set, every in-process
  /// publish asks it which broker to hand the batch to — the fleet's
  /// router answers with the broker of the shard owning this client's
  /// hash slot, re-consulted per publish so a rebalance redirects the
  /// very next upload. Null (the default) publishes to the constructor
  /// broker; ignored when a socket transport is attached (the NetServer
  /// edge redirects instead).
  std::function<broker::Broker*()> broker_route;

  /// Convenience factories matching the paper's releases.
  static ClientConfig v1_1(ClientId id, ExchangeId exchange);
  static ClientConfig v1_2_9(ClientId id, ExchangeId exchange);
  static ClientConfig v1_3(ClientId id, ExchangeId exchange,
                           std::size_t buffer_size = 10);
};

/// Per-observation delivery record for delay analysis (Figure 17).
struct DeliveryRecord {
  TimeMs captured_at = 0;
  TimeMs delivered_at = 0;
  std::size_t batch_size = 0;
  DurationMs delay() const { return delivered_at - captured_at; }
};

/// Client-side counters.
struct ClientStats {
  std::uint64_t observations_recorded = 0;
  std::uint64_t uploads = 0;             ///< successful batch transmissions
  std::uint64_t deferred_uploads = 0;    ///< upload attempts while offline
  std::uint64_t observations_uploaded = 0;
  std::uint64_t dropped_not_shared = 0;  ///< recorded but user doesn't share
  std::uint64_t piggyback_uploads = 0;   ///< early flushes on warm radio
  std::uint64_t age_forced_uploads = 0;  ///< flushes forced by buffer age
  std::uint64_t skipped_still = 0;       ///< ticks gated off while stationary
  // Fault-recovery counters (all zero in clean runs).
  std::uint64_t publish_failures = 0;   ///< broker rejected / confirm lost
  std::uint64_t upload_retries = 0;     ///< backoff retries scheduled
  std::uint64_t retry_giveups = 0;      ///< batches requeued after max attempts
  std::uint64_t blocked_in_flight = 0;  ///< uploads held by the busy outbox
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t missed_while_down = 0;  ///< sense calls while crashed (no-ops)
};

/// The GoFlow mobile client. Binds a simulated Phone to the broker
/// through the virtual-time Simulation.
class GoFlowClient {
 public:
  /// Ambient SPL at (time); supplied by the environment model.
  using AmbientFn = std::function<double(TimeMs)>;
  /// True device position at (time).
  using PositionFn = std::function<std::pair<double, double>(TimeMs)>;

  GoFlowClient(sim::Simulation& simulation, broker::Broker& broker,
               phone::Phone& phone, ClientConfig config, AmbientFn ambient,
               PositionFn position);

  /// Starts the opportunistic sensing loop (first measurement one period
  /// from now).
  void start();

  /// Stops opportunistic sensing; buffered observations stay buffered.
  void stop();

  bool running() const { return timer_.running(); }

  /// Takes an immediate measurement in the given participatory mode and
  /// applies the usual buffering policy.
  phone::Observation sense_now(phone::SensingMode mode);

  // --- Journey mode (paper §4.2, Figure 6 right) -------------------------
  // "The user engages in the measurement of noise across a journey and
  // defines the sensing frequency."

  /// Starts a Journey recording at the user-chosen period. Fails with
  /// kConflict when a journey is already running. The first measurement
  /// is taken immediately.
  Status start_journey(DurationMs period);

  /// Ends the journey: takes no further journey measurements, flushes the
  /// buffer, and returns how many observations this journey recorded.
  std::size_t stop_journey();

  bool journey_active() const { return journey_timer_ != nullptr; }

  /// Observations recorded by the current (or last) journey.
  std::size_t journey_observations() const { return journey_observations_; }

  /// Injects an externally produced observation (e.g. replayed journey),
  /// applying the buffering policy.
  void record(const phone::Observation& observation);

  /// Forces an upload attempt regardless of buffer fill (used on app
  /// foreground / shutdown). Returns true when an upload happened.
  bool flush();

  // --- Crash/restart (fault injection) -----------------------------------
  // The real app's store-and-forward buffer lives on flash, so a process
  // death loses in-flight transfers but never buffered observations.

  /// Simulates a process death: sensing and journey timers stop, the
  /// in-flight batch (if any) is aborted and its observations return to
  /// the front of the buffer. The buffer itself persists.
  void crash();

  /// Simulates the app coming back after a crash: sensing resumes (only
  /// if the periodic loop was running when the crash hit) and a pending
  /// buffer gets an immediate upload chance.
  void restart();

  /// True between crash() and restart(). While down, sense_now/record are
  /// no-ops — a dead process measures nothing, so the skipped
  /// observations are never sensed (they don't count as pipeline loss).
  bool down() const { return down_; }

  std::size_t buffered() const { return buffer_.size(); }
  /// Observations riding in the not-yet-confirmed outbox batch.
  std::size_t in_flight_count() const {
    return in_flight_ ? in_flight_->observations.size() : 0;
  }
  const std::vector<phone::Observation>& buffer() const { return buffer_; }
  /// Span ids of in-flight observations (invariant harness: these are
  /// on-device, not lost, until the batch is confirmed).
  std::vector<std::uint64_t> in_flight_span_ids() const;
  const ClientStats& stats() const { return stats_; }
  const ClientConfig& config() const { return config_; }
  const std::vector<DeliveryRecord>& deliveries() const { return deliveries_; }
  phone::Phone& phone() { return phone_; }

  // --- Observability ----------------------------------------------------

  /// Registers the counters with `registry` under "client.*" and
  /// "retry.client_*" names and records per-observation delivery delays
  /// into the "client.delivery_delay_ms" histogram. Pass nullptr to
  /// detach.
  void set_metrics(obs::Registry* registry);

  /// Attaches a span tracker: every recorded observation gets a span
  /// (kSensed at captured_at, kBuffered at record time, kUploaded when
  /// the transfer completes), and the span id travels inside the
  /// serialized document so server and assimilation stamp the same span.
  void set_tracer(obs::SpanTracker* tracer) { tracer_ = tracer; }

 private:
  /// One batch handed to the radio but not yet confirmed by the broker.
  /// A single slot: while it is occupied, later uploads wait (head-of-
  /// line), which keeps per-device upload order monotone even across
  /// retries.
  struct InFlight {
    std::vector<phone::Observation> observations;
    /// The serialized upload; retransmits reuse it, so a retry allocates
    /// nothing.
    std::shared_ptr<const ingest::ObsBatch> upload;
    std::string routing_key;
    int attempts = 0;
    sim::EventId event = 0;
  };

  void on_sense_tick(TimeMs now);
  void maybe_upload();
  bool try_upload();
  void deliver_in_flight();
  ingest::BatchPool& pool();

  sim::Simulation& sim_;
  broker::Broker& broker_;
  phone::Phone& phone_;
  ClientConfig config_;
  AmbientFn ambient_;
  PositionFn position_;
  sim::PeriodicTimer timer_;
  std::unique_ptr<sim::PeriodicTimer> journey_timer_;
  std::size_t journey_observations_ = 0;
  std::vector<phone::Observation> buffer_;
  std::unique_ptr<InFlight> in_flight_;
  /// Private pool when no shared pool was supplied.
  std::unique_ptr<ingest::BatchPool> own_pool_;
  Rng retry_rng_{0};
  bool down_ = false;
  /// Whether the periodic sensing loop should come back on restart().
  bool resume_sensing_ = false;
  std::uint64_t batch_counter_ = 0;  ///< unique batch ids for idempotent ingest
  // Mobility-gate state.
  bool has_last_position_ = false;
  double last_x_m_ = 0.0;
  double last_y_m_ = 0.0;
  int still_ticks_ = 0;
  std::vector<DeliveryRecord> deliveries_;
  ClientStats stats_;
  obs::LatencyHistogram* delivery_delay_ = nullptr;
  obs::SpanTracker* tracer_ = nullptr;
  obs::Sources sources_;
};

}  // namespace mps::client
