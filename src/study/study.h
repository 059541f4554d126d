// The full deployment in one object: the "SoundCity in Paris" study
// (paper §4.3) replayed end-to-end through the real middleware path.
//
// StudyRunner wires a generated Population into per-user simulated Phones
// and GoFlow clients, logs every client into the GoFlow server (creating
// the Figure-3 topology), and drives the whole fleet through the
// discrete-event kernel for the configured number of virtual days. Every
// observation flows phone -> client buffer -> (store-and-forward across
// the user's connectivity trace) -> broker -> server ingest -> document
// store, exactly as in production — unlike crowd::DatasetGenerator, which
// synthesizes the dataset directly for the distribution benches.
//
// Per-user sensing schedules honour the profile's diurnal weights by
// modulating the opportunistic duty cycle hour by hour; manual and
// journey measurements are injected per the profile's rates (journeys
// only after the release date).
#pragma once

#include <memory>
#include <vector>

#include "client/goflow_client.h"
#include "core/goflow_server.h"
#include "core/recovery.h"
#include "crowd/ambient.h"
#include "crowd/population.h"
#include "exec/executor.h"
#include "fault/fault.h"
#include "net/net_client.h"
#include "net/net_server.h"

namespace mps::shard {
class ShardFleet;
}

namespace mps::study {

/// Study configuration. Every device serializes its uploads once, into
/// flat ObsBatches from one study-wide BatchPool, and every serving plane
/// below (in process, socket, journaled, fleet) ingests them flat
/// (DESIGN.md §13).
struct StudyConfig {
  std::uint64_t seed = 1;
  /// How many virtual days to run (the paper's study: ~305).
  int duration_days = 30;
  AppId app = "soundcity";
  /// Sensing period while the user's phone is actively participating.
  DurationMs sense_period = minutes(5);
  /// Buffering policy applied fleet-wide (the app release in force).
  client::AppVersion version = client::AppVersion::kV1_3;
  std::size_t buffer_size = 10;
  /// Journey-mode release, relative to study start.
  TimeMs journey_release = days(275);
  crowd::AmbientParams ambient;
  net::ConnectivityParams connectivity;
  /// Extra virtual time after the horizon to let in-flight transfers and
  /// backoff retries settle. Chaos runs want this larger than the client
  /// retry_max so surviving batches get their last attempts in.
  DurationMs drain = minutes(5);
  /// Optional observability: when set, every device client registers its
  /// counters with the registry and traces observation lifecycles through
  /// the tracker (which the server side should share — see
  /// GoFlowServer::set_metrics / set_tracer). Both may be null.
  obs::Registry* metrics = nullptr;
  obs::SpanTracker* tracer = nullptr;
  /// Optional chaos: when set, the runner arms the broker and the
  /// server's document store with the plan, attaches the sim clock for
  /// window checks, punches each device's flap windows out of its
  /// connectivity trace and schedules its crash/restart churn. The plan
  /// must outlive the runner. Null disables injection entirely.
  fault::FaultPlan* faults = nullptr;
  /// Optional durability: when set together with `faults`, the runner
  /// schedules the plan's server_kill_schedule() against it (crash at
  /// ev.at, recover after ev.down_for) and reports the kill/recovery
  /// counts. If the horizon+drain ends mid-downtime the runner recovers
  /// the server before aggregating, so the books always close against a
  /// live store. Null disables server churn even if the plan asks for it.
  core::ServerLifecycle* lifecycle = nullptr;
  /// Periodic lifecycle snapshots (0 = only the ones recovery writes).
  /// Shorter periods bound replay length at the cost of snapshot I/O.
  DurationMs snapshot_period = 0;
  /// Socket mode (DESIGN.md §14): when set, every device publishes over
  /// a real loopback socket through a per-device NetClient pointed at
  /// this server, which dispatches into the same broker — the fleet
  /// study closes over the wire. The runner starts the server if needed,
  /// combines its crash/recovery with the lifecycle's server churn (same
  /// sim events, so event ordering — and therefore every tie-break — is
  /// identical to in-process mode), and arms the net fault sites when a
  /// plan is armed. Null = the in-process oracle hand-off.
  net::NetServer* net_server = nullptr;
  /// Sharded serving plane (DESIGN.md §16): when set, the runner
  /// registers the app and logs every client in on *every* shard (the
  /// identical sequence, so tokens and exchange names agree fleet-wide),
  /// routes each device's publishes to its owning shard's broker via
  /// ClientConfig::broker_route (re-consulted per publish, so rebalances
  /// redirect the very next upload), schedules the fault plan's per-shard
  /// kill/failover churn and slot rebalances, and sums the report across
  /// nodes. The constructor's broker/server references must be node(0)'s.
  /// Mutually exclusive with `lifecycle` and `net_server` (the fleet owns
  /// its nodes' durability; socket fleets route at the NetServer edge via
  /// redirects instead). Null = the single-server path, unchanged.
  shard::ShardFleet* shard_fleet = nullptr;
  /// Optional compute plane for the post-run per-device report
  /// aggregation (the study analytics reduce). The simulation itself
  /// stays single-threaded regardless — the kernel must never run on a
  /// pool (DESIGN.md §10). Null aggregates sequentially; the report is
  /// identical either way (integer sums).
  exec::Executor* executor = nullptr;
};

/// Aggregated outcome of a run.
struct StudyReport {
  std::uint64_t observations_recorded = 0;
  std::uint64_t observations_stored = 0;   ///< reached the server
  std::uint64_t uploads = 0;
  std::uint64_t deferred_uploads = 0;
  std::uint64_t buffered_unsent = 0;       ///< still on devices at the end
  std::uint64_t in_flight_unsent = 0;      ///< mid-upload at the end
  std::uint64_t pending_server_batches = 0;  ///< ingest retries still queued
  double mean_delay_ms = 0.0;
  std::size_t devices = 0;
  // Chaos accounting (all zero when no fault plan is armed).
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t publish_failures = 0;
  std::uint64_t upload_retries = 0;
  std::uint64_t retry_giveups = 0;
  std::uint64_t duplicate_observations = 0;  ///< caught at the dedup boundary
  std::uint64_t faults_injected = 0;
  std::uint64_t server_kills = 0;       ///< middleware-host crashes
  std::uint64_t server_recoveries = 0;  ///< successful recoveries
  // Fleet accounting (all zero outside shard_fleet mode).
  std::uint64_t shard_failovers = 0;    ///< follower promotions
  std::uint64_t shard_rebalances = 0;   ///< slot moves applied
  std::uint64_t shard_rebalances_skipped = 0;  ///< refused (an end was down)
};

/// Runs the study.
class StudyRunner {
 public:
  /// Builds the fleet for `population` against fresh middleware instances
  /// owned by the caller. The server must outlive the runner.
  StudyRunner(const crowd::Population& population, StudyConfig config,
              sim::Simulation& sim, broker::Broker& broker,
              core::GoFlowServer& server);

  /// Registers the app/accounts, logs every device in, schedules all
  /// per-user activity and runs the simulation to the horizon. Returns
  /// the aggregated report. Call once.
  StudyReport run();

  /// The admin token of the study app (valid after run() registered it,
  /// or immediately after construction).
  const std::string& admin_token() const { return admin_token_; }

  /// Per-device clients (valid after run()); exposed for inspection.
  std::vector<const client::GoFlowClient*> clients() const;

 private:
  struct Device {
    const crowd::UserProfile* profile;
    std::unique_ptr<phone::Phone> phone;
    /// Socket transport (socket mode only; built before the client so
    /// the client can point at it).
    std::unique_ptr<net::NetClient> transport;
    std::unique_ptr<client::GoFlowClient> client;
  };

  void setup_accounts();
  void build_device(const crowd::UserProfile& profile);
  void schedule_user_activity(Device& device);
  void schedule_device_churn(Device& device);
  void schedule_server_churn();
  void schedule_fleet_churn();
  void schedule_snapshots();

  const crowd::Population& population_;
  StudyConfig config_;
  sim::Simulation& sim_;
  broker::Broker& broker_;
  core::GoFlowServer& server_;
  crowd::AmbientModel ambient_;
  /// The whole fleet's one batch factory, so its ingest.* counters cover
  /// every upload.
  ingest::BatchPool pool_;
  std::string admin_token_;
  std::string client_token_;
  std::vector<Device> devices_;
  bool ran_ = false;
};

}  // namespace mps::study
