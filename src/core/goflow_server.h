// The GoFlow crowd-sensing server (paper §3.1, Figure 2).
//
// Components mirrored from the paper:
//   - REST-flavoured API surface: every public method returns Result/
//     Status with REST-like error codes; authentication is token-based;
//   - account & access management: per-app accounts with admin/manager/
//     client roles;
//   - channel management: creates the RabbitMQ exchange/queue topology of
//     Figure 3 on behalf of clients (client exchange -> app exchange ->
//     GoFlow ingest queue; location exchange -> datatype exchange ->
//     client queues for subscriptions);
//   - data storage: observations and accounts persisted in the document
//     store (the MongoDB substitute), with indexes on the hot fields;
//   - crowd-sensed data management: filtered retrieval (time window,
//     provider, accuracy threshold, model, mode, user) with privacy
//     enforcement — an app's private fields are stripped when another
//     app reads shared data (GoFlow's open-data policy);
//   - crowd-sensing analytics: per-app operation statistics;
//   - background jobs: manager-submitted scripts executed against the
//     stored data at a scheduled virtual time.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "common/bounded_set.h"
#include "common/histogram.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "docstore/database.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "sim/simulation.h"

namespace mps::durable {
class Journal;
class SnapshotWriter;
struct Segments;
}  // namespace mps::durable

namespace mps::core {

/// Account roles, in increasing privilege order.
enum class Role { kClient, kManager, kAdmin };

const char* role_name(Role r);

/// Server configuration.
struct ServerConfig {
  ExchangeId goflow_exchange = "goflow";
  QueueId ingest_queue = "goflow.ingest";
  /// Collection names in the document store.
  std::string observations_collection = "observations";
  std::string accounts_collection = "accounts";
  std::string jobs_collection = "jobs";

  // Retry pacing for transient docstore write failures during ingest
  // (exponential backoff with jitter, sim-clock-driven, unlimited
  // attempts — the server must never drop an accepted batch).
  DurationMs ingest_retry_base = seconds(5);
  DurationMs ingest_retry_max = minutes(5);
  double ingest_retry_jitter = 0.2;

  // Ingest dedup is bounded: only the most recent N keys are kept (FIFO
  // eviction). At-least-once redelivery happens within retry windows of
  // minutes, so old keys protect nothing — and an unbounded set would
  // grow forever in a long-running deployment.
  std::size_t batch_dedup_capacity = 1 << 20;
  std::size_t obs_dedup_capacity = 1 << 20;

  // Admission control (edge backpressure, DESIGN.md §13): when more than
  // this many accepted batches are waiting out transient-store backoff,
  // new publishes into the ingest queue are shed at the broker edge with
  // kUnavailable — the client's jittered backoff retries the same batch
  // id later, so nothing is lost or duplicated. 0 disables the bound
  // (the gate is then only installed when a fault plan arms
  // kAdmissionShed).
  std::size_t admission_max_pending = 0;
};

/// Registration result for an application.
struct AppRegistration {
  AppId app;
  std::string admin_token;
};

/// Channel ids handed to a client on login (Figure 3: E_i and Q_i).
struct ClientChannels {
  ExchangeId exchange;
  QueueId queue;
};

/// Filter for the crowd-sensed data API.
struct ObservationFilter {
  AppId app;
  std::optional<UserId> user;
  std::optional<DeviceModelId> model;
  std::optional<std::string> mode;      ///< sensing mode name
  std::optional<std::string> provider;  ///< location provider name
  std::optional<TimeMs> from;           ///< captured_at >= from
  std::optional<TimeMs> until;          ///< captured_at < until
  bool localized_only = false;
  /// Keep only observations with accuracy <= this many meters.
  std::optional<double> max_accuracy_m;
  std::size_t limit = 0;  ///< 0 = unlimited
};

/// Per-app analytics snapshot (the "crowd-sensing analytics" component).
struct AppAnalytics {
  std::uint64_t clients_logged_in = 0;
  std::uint64_t batches_ingested = 0;
  std::uint64_t observations_stored = 0;
  std::uint64_t observations_localized = 0;
  std::uint64_t subscriptions = 0;
  /// Transmission delay (capture -> server) statistics.
  RunningStats delay_stats;
};

/// Identifier of a submitted background job.
using JobId = std::string;

/// The server.
class GoFlowServer {
 public:
  /// Wires the server to its infrastructure and declares the GoFlow
  /// exchange/ingest queue (consuming ingest messages immediately).
  GoFlowServer(sim::Simulation& simulation, broker::Broker& broker,
               docstore::Database& database, ServerConfig config = {});
  ~GoFlowServer();

  GoFlowServer(const GoFlowServer&) = delete;
  GoFlowServer& operator=(const GoFlowServer&) = delete;

  // --- App & account management ----------------------------------------

  /// Registers an application; returns its admin token. `private_fields`
  /// are observation fields never exposed to other apps (open-data
  /// policy).
  Result<AppRegistration> register_app(
      const AppId& app, std::vector<std::string> private_fields = {});

  /// Creates an account under `app`; requires a token of equal or higher
  /// role (managers can add clients, admins can add anyone).
  Result<std::string> register_account(const std::string& auth_token,
                                       const AppId& app, const UserId& user,
                                       Role role);

  /// Removes an account; admin token required.
  Status remove_account(const std::string& auth_token, const AppId& app,
                        const UserId& user);

  /// Role carried by a token, if valid.
  std::optional<Role> token_role(const std::string& auth_token) const;

  // --- Channel management (Figure 3) ------------------------------------

  /// Client login: creates (idempotently) the client's exchange bound to
  /// the app exchange and the client's queue, and returns both ids.
  Result<ClientChannels> login_client(const std::string& auth_token,
                                      const AppId& app,
                                      const ClientId& client);

  /// Tears down the client's exchange/queue.
  Status logout_client(const std::string& auth_token, const AppId& app,
                       const ClientId& client);

  /// Registers a subscription: the client's queue will receive messages
  /// published for (location, datatype) — e.g. Feedback reports at
  /// FR75013. Creates the location and datatype exchanges on demand.
  Status subscribe(const std::string& auth_token, const AppId& app,
                   const ClientId& client, const std::string& location_id,
                   const std::string& datatype);

  /// Removes a subscription.
  Status unsubscribe(const std::string& auth_token, const AppId& app,
                     const ClientId& client, const std::string& location_id,
                     const std::string& datatype);

  /// Routing key a client must use to publish a datatype at a location
  /// ("FR75013.Feedback.<client>").
  static std::string publish_key(const std::string& location_id,
                                 const std::string& datatype,
                                 const ClientId& client);

  // --- Crowd-sensed data management --------------------------------------

  /// Retrieves observations matching `filter`. Requesting with a token
  /// from a different app strips the owner app's private fields.
  Result<std::vector<Value>> query_observations(
      const std::string& auth_token, const ObservationFilter& filter) const;

  /// Number of stored observations matching `filter`.
  Result<std::size_t> count_observations(const std::string& auth_token,
                                         const ObservationFilter& filter) const;

  /// Packages matching observations as a JSON array string (the "file /
  /// json stream" packaging of the paper).
  Result<std::string> export_json(const std::string& auth_token,
                                  const ObservationFilter& filter) const;

  /// Packages matching observations as CSV with a fixed column set
  /// (user, model, captured_at, spl, mode, activity, provider, x, y,
  /// accuracy, delay_ms); absent location fields are empty. The other
  /// "file" packaging option of §3.1.
  Result<std::string> export_csv(const std::string& auth_token,
                                 const ObservationFilter& filter) const;

  // --- Analytics ----------------------------------------------------------

  /// Analytics for one app; kNotFound when the app is not registered.
  Result<AppAnalytics> analytics(const AppId& app) const;

  // --- Background jobs -----------------------------------------------------

  /// A job runs against the database and returns an arbitrary result
  /// document.
  using Job = std::function<Value(docstore::Database&)>;

  /// Schedules `job` to run after `delay` in virtual time; requires a
  /// manager or admin token of `app`. Returns the job id.
  Result<JobId> submit_job(const std::string& auth_token, const AppId& app,
                           const std::string& name, Job job,
                           DurationMs delay = 0);

  /// Job status/result document: {name, app, status, result?}.
  Result<Value> job_info(const JobId& id) const;

  // --- Introspection --------------------------------------------------------

  const ServerConfig& config() const { return config_; }
  docstore::Database& database() { return db_; }
  // The ingest totals are server state: crash() clears them and recovery
  // restores them.
  std::uint64_t total_batches() const { return totals_.batches; }
  std::uint64_t total_observations() const { return totals_.observations; }
  /// Batches discarded because their batch_id was already ingested
  /// (at-least-once transport redelivery made idempotent).
  std::uint64_t duplicate_batches() const { return totals_.duplicate_batches; }
  /// Individual observations skipped because their (client, span) key was
  /// already stored — catches a batch that got re-packaged under a new
  /// batch_id after a crash interrupted its retry cycle.
  std::uint64_t duplicate_observations() const {
    return totals_.duplicate_observations;
  }
  /// Backoff retries taken by the ingest path on transient store errors.
  std::uint64_t ingest_retries() const { return totals_.ingest_retries; }
  /// Publishes shed / admitted by the ingest admission gate since
  /// construction (no snapshot carries them, so crash() keeps them).
  std::uint64_t admission_sheds() const { return live_.admission_sheds; }
  std::uint64_t admission_accepted() const {
    return live_.admission_accepted;
  }
  /// Dedup keys evicted to stay within the configured capacity bounds.
  std::uint64_t dedup_evictions() const {
    return seen_batch_ids_.evictions() + seen_obs_keys_.evictions();
  }
  /// Batch-id dedup set (bounded, insertion-ordered).
  const BoundedKeySet& seen_batch_ids() const { return seen_batch_ids_; }
  /// Per-observation dedup set (bounded, insertion-ordered).
  const BoundedKeySet& seen_obs_keys() const { return seen_obs_keys_; }
  /// Accepted batches still waiting out a transient-store backoff.
  std::size_t pending_ingest_batches() const { return pending_batches_.size(); }
  /// Span ids inside pending (accepted, not yet fully stored) batches —
  /// the invariant harness counts these as in-server, not lost.
  std::vector<std::uint64_t> pending_ingest_span_ids() const;

  // --- Observability ----------------------------------------------------

  /// Registers the live ingest counts with `registry` under "server.*"
  /// names (batches_ingested, observations_stored, duplicate_*,
  /// admission_*, dedup_evictions) and "retry.ingest_backoffs", and
  /// records ingest delays into the server.ingest_delay_ms histogram.
  /// These count what this object did live: a crash does not clear them
  /// and recovery replay does not add to them. The registry is also what
  /// the REST API serves at GET /metrics. Pass nullptr to detach.
  void set_metrics(obs::Registry* registry);

  /// The registry attached via set_metrics (nullptr when detached).
  obs::Registry* metrics() const { return metrics_registry_; }

  /// Attaches a windowed time-series over the metrics registry; the REST
  /// API serves it at GET /metrics/series. The server does not drive
  /// sampling — wire TimeSeries::sample into the sim metrics hook (or a
  /// wall-clock timer). Pass nullptr to detach.
  void set_timeseries(obs::TimeSeries* series) { timeseries_ = series; }

  /// The series attached via set_timeseries (nullptr when detached).
  obs::TimeSeries* timeseries() const { return timeseries_; }

  /// Arms the ingest admission fault (FaultSite::kAdmissionShed): random
  /// sheds at the broker edge on top of any admission_max_pending bound.
  /// Pass nullptr to disarm. Installs/removes the broker admission gate
  /// as needed.
  void arm_faults(fault::FaultPlan* plan);

  /// Attaches a span tracker: ingested observations carrying a "span" id
  /// get kRouted (broker publish time) and kPersisted (storage time)
  /// stamps, duplicate batches are attributed kRejectedByServer, and a
  /// broker drop hook attributes per-observation broker drops (TTL
  /// expiry, queue overflow, unroutable). Pass nullptr to detach.
  void set_tracer(obs::SpanTracker* tracer);

  // --- Durability (DESIGN.md §11) ---------------------------------------

  /// Attaches a journal: registrations, accepted batches and ingest
  /// progress log "srv.*" records before applying, so a recovered server
  /// resumes with identical dedup state and pending work. The document
  /// writes themselves are journaled by the attached docstore — srv.*
  /// records only carry the server's own bookkeeping.
  void attach_journal(durable::Journal* journal);

  /// Appends the server state to the writer's manifest: accounts, apps
  /// (with analytics), counters and pending batches inline, and both
  /// dedup sets (in eviction order) as sealed sequences, so a snapshot
  /// writes only the keys inserted since the previous one.
  void encode_snapshot(durable::SnapshotWriter& writer);
  /// Rebuilds from the decoded encode_snapshot() state and the loaded
  /// segments it names (crash() first).
  void restore_snapshot(const Value& state, durable::Segments& segments);
  /// Re-applies one "srv.*" journal record (no re-logging).
  void apply_journal_record(const Value& record);

  /// Models the server process dying: unsubscribes from the ingest queue
  /// and empties all volatile state in place (the object survives —
  /// callers hold references across the crash). With no journal attached
  /// the in-flight pending batches are unrecoverable and their spans are
  /// attributed kLostInServerCrash; with a journal they will be rebuilt
  /// by recovery, so nothing is attributed here. Pending retry timers
  /// from the old incarnation are invalidated (epoch guard).
  void crash();

  /// Completes recovery after restore_snapshot + journal replay:
  /// re-subscribes to the ingest queue (consumer subscriptions are
  /// process-local and never journaled) and resumes every pending batch.
  void finish_recovery();

  /// True between crash() and finish_recovery().
  bool down() const { return down_; }

  // --- Shard rebalance (DESIGN.md §16) ----------------------------------

  /// Extracts every piece of per-client state owned by clients matching
  /// `pred` into one Value for adopt_migration() on another shard:
  /// stored observation rows (Collection::extract_if: in stored form),
  /// pending ingest batches (descheduled here; their retry timers die
  /// against the empty pending map) and both dedup key sets in eviction
  /// order, so redirect + resend stays exactly-once on the target.
  /// Row moves use the recovery appliers (no journaling, no fault
  /// injection — moving acknowledged state must never fail), so the
  /// caller MUST snapshot both shards' lifecycles in the same sim event;
  /// until then a crash replays pre-move state.
  Value extract_migration(
      const std::function<bool(std::string_view client)>& pred);

  /// Installs extract_migration() output: dedup keys keep their eviction
  /// order, rows land via Collection::apply_entry under new ids, and
  /// pending batches are re-accepted under fresh ids and resumed at once.
  void adopt_migration(const Value& migration);

  /// Attributes every span still inside pending batches as lost at final
  /// shutdown (kLostInServerShutdown) — called by the destructor so
  /// check_invariants can close the books on a server that was simply
  /// destroyed with work in flight. Idempotent (first drop wins).
  void attribute_shutdown_drops();

 private:
  struct Account {
    AppId app;
    UserId user;
    Role role;
    std::string token;
  };
  struct AppState {
    std::vector<std::string> private_fields;
    AppAnalytics analytics;
  };

  /// What ingest accounting reads of one row, in either input form.
  struct Row {
    std::uint64_t span = 0;   ///< 0 when the row carries no span
    std::string_view client;  ///< owner of the (client, span) dedup key
    DurationMs delay = 0;     ///< capture -> server
    bool localized = false;   ///< the row has a location fix
  };

  /// A batch accepted from the broker whose rows are not all stored yet,
  /// kept in the form it arrived in, also across recovery and migration:
  /// `flat` for an ObsBatch (rows are read off its columns and never
  /// materialized), `docs` for a document batch. Keeping the rows lets
  /// a transient docstore failure resume exactly where it
  /// stopped — never re-ingesting via the broker (which would
  /// double-count) and never dropping the tail.
  struct PendingBatch {
    std::string collection;
    AppId app;  ///< empty for raw (non-observation) messages
    std::vector<Value> docs;
    std::shared_ptr<const ingest::ObsBatch> flat;
    TimeMs published_at = 0;
    std::size_t next = 0;  ///< first row not yet stored
    int attempts = 0;      ///< consecutive failures on row `next`

    std::size_t size() const;
    Row row(std::size_t i) const;
    /// `fields` plus {c, app, at, next} and the rows: columns (`b`) for
    /// a flat batch, `docs` for a document batch. srv.batch, a
    /// snapshot's pending section and migrations carry this form.
    Value encode(Object fields) const;
    /// The batch encode() wrote; throws when `b` does not decode.
    static PendingBatch decode(const Value& v);
  };

  void ingest(const broker::Message& message);
  /// Accepts a flat batch without materializing it: dedup over the
  /// span-id column, the pending batch shares the columns, and
  /// store_batch inserts column-wise runs. Journaled or not.
  void ingest_flat(const broker::Message& message);
  /// Batch-id dedup; a rejected batch is counted, journaled (srv.dupb)
  /// and its spans attributed. True when the batch is new.
  bool accept_batch_id(const std::string& batch_id,
                       const broker::Message& message);
  /// Registers `batch` as pending, logs srv.batch and starts storing it.
  void accept(PendingBatch batch, const std::string& batch_id);
  void store_batch(std::uint64_t id);
  /// Schedules the next store_batch attempt after a transient failure.
  void back_off(std::uint64_t id, PendingBatch& batch);
  bool is_observations(const PendingBatch& batch) const;
  /// True when the row's (client, span) key is already stored; builds the
  /// key into `key`.
  bool seen_row(const Row& row, bool observations, std::string& key) const;
  void drop_spans(const broker::Message& message, obs::DropStage stage);
  /// The admission gate consulted by the broker before routing into the
  /// ingest queue.
  bool admit(TimeMs now);
  /// (Re)installs or removes the broker admission gate to match config
  /// and armed faults.
  void update_admission_gate();
  void on_broker_drop(const broker::Message& message,
                      broker::DropReason reason);
  /// Flight-records dedup-set evictions since the last check (the sets
  /// themselves have no clock or recorder access).
  void note_dedup_evictions();
  void subscribe_ingest();
  void log_record(Value record);
  void attribute_pending_drops(obs::DropStage stage);
  /// Shared by store_batch (live) and replay: advances batch.next over
  /// `n` rows, all stored or all duplicates (`dup`), updating dedup,
  /// counters and analytics. Live, it first logs the run as one srv.prog
  /// record. `key` is the caller's dedup-key buffer, reused across rows.
  /// Returns true when that completed the batch (it is erased).
  bool account_run(std::uint64_t id, PendingBatch& batch, std::size_t n,
                   bool dup, bool live, std::string& key);
  void finish_batch(std::uint64_t id, PendingBatch& batch, bool live);
  const Account* authenticate(const std::string& token) const;
  Status require_role(const std::string& token, const AppId& app,
                      Role minimum) const;
  static ExchangeId app_exchange(const AppId& app) { return "app." + app; }
  static ExchangeId client_exchange(const AppId& app, const ClientId& c) {
    return "app." + app + ".client." + c;
  }
  static QueueId client_queue(const AppId& app, const ClientId& c) {
    return "app." + app + ".queue." + c;
  }
  static ExchangeId location_exchange(const AppId& app,
                                      const std::string& location) {
    return "app." + app + ".loc." + location;
  }
  static ExchangeId datatype_exchange(const AppId& app,
                                      const std::string& location,
                                      const std::string& datatype) {
    return "app." + app + ".loc." + location + ".type." + datatype;
  }
  docstore::Query build_query(const ObservationFilter& filter) const;
  Value strip_private_fields(const Value& doc, const AppId& owner_app) const;

  sim::Simulation& sim_;
  broker::Broker& broker_;
  docstore::Database& db_;
  ServerConfig config_;
  std::map<std::string, Account> tokens_;
  std::map<AppId, AppState> apps_;
  broker::ConsumerTag ingest_tag_ = 0;
  std::uint64_t token_counter_ = 0;
  std::uint64_t job_counter_ = 0;
  /// Ingest counts, held in two blocks because they are two facts.
  struct IngestCounts {
    std::uint64_t batches = 0;
    std::uint64_t observations = 0;
    std::uint64_t duplicate_batches = 0;
    std::uint64_t duplicate_observations = 0;
    std::uint64_t ingest_retries = 0;
  };
  /// Durable state: crash() clears it, snapshot + replay restore it.
  IngestCounts totals_;
  /// What this object did live, read by the registry: crash() never
  /// clears it and replay never adds to it.
  struct LiveCounts : IngestCounts {
    std::uint64_t admission_sheds = 0;
    std::uint64_t admission_accepted = 0;
  };
  LiveCounts live_;
  fault::FaultPoint admission_fault_;
  /// Recently ingested batch ids (bounded FIFO; capacity from config_).
  BoundedKeySet seen_batch_ids_{config_.batch_dedup_capacity};
  /// Per-observation dedup keys ("client#span") of stored observations.
  BoundedKeySet seen_obs_keys_{config_.obs_dedup_capacity};
  std::map<std::uint64_t, PendingBatch> pending_batches_;
  std::uint64_t pending_counter_ = 0;
  Rng ingest_retry_rng_{fnv1a64("goflow-server-ingest")};
  durable::Journal* journal_ = nullptr;
  bool down_ = false;
  /// Incarnation counter: scheduled ingest-retry timers capture it and
  /// no-op if the server crashed (and possibly recovered) since.
  std::uint64_t epoch_ = 0;

  obs::LatencyHistogram* ingest_delay_ = nullptr;
  obs::Registry* metrics_registry_ = nullptr;
  obs::TimeSeries* timeseries_ = nullptr;
  std::uint64_t fr_dedup_evictions_seen_ = 0;
  obs::SpanTracker* tracer_ = nullptr;
  obs::Sources sources_;
};

}  // namespace mps::core
