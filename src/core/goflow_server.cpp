#include "core/goflow_server.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <stdexcept>

#include "common/codec.h"
#include "common/log.h"
#include "common/strings.h"
#include "durable/journal.h"
#include "durable/snapshot.h"
#include "ingest/obs_batch.h"
#include "obs/flight_recorder.h"

namespace mps::core {

namespace {

// Tokens are "tok-<app>-<N>"; recovery re-derives the counter from the
// highest N seen so freshly issued tokens never collide with replayed ones.
std::uint64_t token_suffix(const std::string& token) {
  auto pos = token.find_last_of('-');
  if (pos == std::string::npos) return 0;
  const char* digits = token.c_str() + pos + 1;
  char* end = nullptr;
  std::uint64_t n = std::strtoull(digits, &end, 10);
  return (end != digits && *end == '\0') ? n : 0;
}

// Builds the "client#span" dedup key into a reused buffer, so the ingest
// row loop does not allocate.
void span_key(std::string_view client, std::uint64_t span, std::string& out) {
  out.assign(client);
  out.push_back('#');
  char buf[20];
  auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), span);
  (void)ec;
  out.append(buf, p);
}

}  // namespace

const char* role_name(Role r) {
  switch (r) {
    case Role::kClient: return "client";
    case Role::kManager: return "manager";
    case Role::kAdmin: return "admin";
  }
  return "?";
}

GoFlowServer::GoFlowServer(sim::Simulation& simulation, broker::Broker& broker,
                           docstore::Database& database, ServerConfig config)
    : sim_(simulation), broker_(broker), db_(database), config_(std::move(config)) {
  broker_.declare_exchange(config_.goflow_exchange, broker::ExchangeType::kTopic)
      .throw_if_error();
  // Durable: the ingest queue is the at-least-once boundary — anything
  // that does buffer in it must survive a middleware restart.
  broker::QueueOptions ingest_options;
  ingest_options.durable = true;
  broker_.declare_queue(config_.ingest_queue, ingest_options).throw_if_error();
  broker_.bind_queue(config_.goflow_exchange, config_.ingest_queue, "#")
      .throw_if_error();
  subscribe_ingest();
  // Hot query paths get indexes up front.
  auto& obs = db_.collection(config_.observations_collection);
  obs.create_index("app");
  obs.create_index("user");
  obs.create_index("model");
  obs.create_index("captured_at");
  update_admission_gate();
}

GoFlowServer::~GoFlowServer() {
  attribute_shutdown_drops();
  broker_.clear_admission_gate(config_.ingest_queue);
  broker_.unsubscribe(ingest_tag_);
  if (tracer_ != nullptr) broker_.set_drop_hook(nullptr);
}

void GoFlowServer::subscribe_ingest() {
  ingest_tag_ = broker_
                    .subscribe(config_.ingest_queue,
                               [this](const broker::Message& m) { ingest(m); })
                    .value_or_throw();
}

void GoFlowServer::set_metrics(obs::Registry* registry) {
  metrics_registry_ = registry;
  sources_.detach();
  ingest_delay_ = nullptr;
  if (registry == nullptr) return;
  obs::Registry& r = *registry;
  sources_.counter(r, "server.batches_ingested", live_.batches);
  sources_.counter(r, "server.observations_stored", live_.observations);
  sources_.counter(r, "server.duplicate_batches", live_.duplicate_batches);
  sources_.counter(r, "server.duplicate_observations",
                   live_.duplicate_observations);
  sources_.counter(r, "retry.ingest_backoffs", live_.ingest_retries);
  sources_.counter(r, "server.admission_shed", live_.admission_sheds);
  sources_.counter(r, "server.admission_accepted", live_.admission_accepted);
  sources_.counter(r, "server.dedup_evictions", seen_batch_ids_.evictions());
  sources_.counter(r, "server.dedup_evictions", seen_obs_keys_.evictions());
  ingest_delay_ = &r.histogram("server.ingest_delay_ms");
}

void GoFlowServer::note_dedup_evictions() {
  std::uint64_t total = dedup_evictions();
  if (total > fr_dedup_evictions_seen_) {
    obs::FlightRecorder::record(obs::FrEvent::kDedupEvict, total,
                                total - fr_dedup_evictions_seen_, sim_.now());
    fr_dedup_evictions_seen_ = total;
  }
}

void GoFlowServer::set_tracer(obs::SpanTracker* tracer) {
  tracer_ = tracer;
  if (tracer == nullptr) {
    broker_.set_drop_hook(nullptr);
    return;
  }
  broker_.set_drop_hook([this](const broker::Message& m,
                               broker::DropReason reason) {
    on_broker_drop(m, reason);
  });
}

void GoFlowServer::on_broker_drop(const broker::Message& message,
                                  broker::DropReason reason) {
  obs::DropStage stage = obs::DropStage::kNone;
  switch (reason) {
    case broker::DropReason::kExpired:
      stage = obs::DropStage::kExpiredInBroker;
      break;
    case broker::DropReason::kOverflow:
      stage = obs::DropStage::kOverflowInBroker;
      break;
    case broker::DropReason::kUnroutable:
      stage = obs::DropStage::kUnroutable;
      break;
  }
  drop_spans(message, stage);
}

void GoFlowServer::drop_spans(const broker::Message& message,
                              obs::DropStage stage) {
  if (tracer_ == nullptr) return;
  if (message.flat != nullptr) {
    // Span attribution straight off the column — no rehydration.
    const ingest::ObsBatch& batch = *message.flat;
    for (std::size_t i = 0; i < batch.size(); ++i)
      if (batch.span_id(i) != 0)
        tracer_->drop(batch.span_id(i), stage, sim_.now());
    return;
  }
  const Value* observations = message.payload.find("observations");
  if (observations == nullptr || !observations->is_array()) return;
  for (const Value& obs : observations->as_array()) {
    if (!obs.is_object()) continue;
    auto span = static_cast<std::uint64_t>(obs.get_int("span", 0));
    if (span != 0) tracer_->drop(span, stage, sim_.now());
  }
}

// --- Admission control (DESIGN.md §13) --------------------------------------

void GoFlowServer::arm_faults(fault::FaultPlan* plan) {
  admission_fault_ = fault::FaultPoint(plan, fault::FaultSite::kAdmissionShed);
  update_admission_gate();
}

void GoFlowServer::update_admission_gate() {
  if (config_.admission_max_pending > 0 || admission_fault_.armed())
    broker_.set_admission_gate(config_.ingest_queue,
                               [this](TimeMs now) { return admit(now); });
  else
    broker_.clear_admission_gate(config_.ingest_queue);
}

bool GoFlowServer::admit(TimeMs now) {
  if (down_) return true;  // a downed server's backlog buffers in the queue
  // The fault consult is unconditional so the kAdmissionShed decision
  // stream stays a pure function of the consultation count, independent
  // of the capacity bound.
  bool fault_shed = admission_fault_.should_fail(now);
  bool capacity_shed = config_.admission_max_pending > 0 &&
                       pending_batches_.size() >= config_.admission_max_pending;
  if (fault_shed || capacity_shed) {
    ++live_.admission_sheds;
    return false;
  }
  ++live_.admission_accepted;
  return true;
}

// --- App & account management ---------------------------------------------

Result<AppRegistration> GoFlowServer::register_app(
    const AppId& app, std::vector<std::string> private_fields) {
  if (app.empty())
    return err(ErrorCode::kInvalidArgument, "app id must be non-empty");
  if (apps_.count(app) > 0)
    return err(ErrorCode::kConflict, "app '" + app + "' already registered");
  apps_[app].private_fields = std::move(private_fields);

  // Figure 3: one exchange per application, forwarding everything to the
  // GoFlow exchange for storage.
  Status s = broker_.declare_exchange(app_exchange(app),
                                      broker::ExchangeType::kTopic);
  if (!s.ok()) return s.error();
  s = broker_.bind_exchange(app_exchange(app), config_.goflow_exchange, "#");
  if (!s.ok()) return s.error();

  std::string token = "tok-" + app + "-" + std::to_string(++token_counter_);
  tokens_[token] = Account{app, "app-admin", Role::kAdmin, token};
  if (journal_ != nullptr) {
    Array pf;
    for (const std::string& f : apps_[app].private_fields)
      pf.push_back(Value(f));
    log_record(Value(Object{{"op", Value("srv.app")},
                            {"app", Value(app)},
                            {"pf", Value(std::move(pf))},
                            {"token", Value(token)}}));
  }
  db_.collection(config_.accounts_collection)
      .insert(Value(Object{{"app", Value(app)},
                           {"user", Value("app-admin")},
                           {"role", Value(role_name(Role::kAdmin))}}));
  return AppRegistration{app, token};
}

const GoFlowServer::Account* GoFlowServer::authenticate(
    const std::string& token) const {
  auto it = tokens_.find(token);
  return it == tokens_.end() ? nullptr : &it->second;
}

std::optional<Role> GoFlowServer::token_role(
    const std::string& auth_token) const {
  const Account* account = authenticate(auth_token);
  if (account == nullptr) return std::nullopt;
  return account->role;
}

Status GoFlowServer::require_role(const std::string& token, const AppId& app,
                                  Role minimum) const {
  const Account* account = authenticate(token);
  if (account == nullptr)
    return err(ErrorCode::kUnauthorized, "invalid token");
  if (account->app != app)
    return err(ErrorCode::kForbidden, "token belongs to another app");
  if (static_cast<int>(account->role) < static_cast<int>(minimum))
    return err(ErrorCode::kForbidden,
               std::string("requires role ") + role_name(minimum));
  return {};
}

Result<std::string> GoFlowServer::register_account(
    const std::string& auth_token, const AppId& app, const UserId& user,
    Role role) {
  // Managers may add clients; adding managers/admins needs an admin.
  Role needed = role == Role::kClient ? Role::kManager : Role::kAdmin;
  Status s = require_role(auth_token, app, needed);
  if (!s.ok()) return s.error();
  for (const auto& [_, account] : tokens_)
    if (account.app == app && account.user == user)
      return err(ErrorCode::kConflict, "account exists for '" + user + "'");
  std::string token = "tok-" + app + "-" + std::to_string(++token_counter_);
  tokens_[token] = Account{app, user, role, token};
  log_record(Value(Object{{"op", Value("srv.acct")},
                          {"app", Value(app)},
                          {"user", Value(user)},
                          {"role", Value(static_cast<std::int64_t>(role))},
                          {"token", Value(token)}}));
  db_.collection(config_.accounts_collection)
      .insert(Value(Object{{"app", Value(app)},
                           {"user", Value(user)},
                           {"role", Value(role_name(role))}}));
  return token;
}

Status GoFlowServer::remove_account(const std::string& auth_token,
                                    const AppId& app, const UserId& user) {
  Status s = require_role(auth_token, app, Role::kAdmin);
  if (!s.ok()) return s;
  for (auto it = tokens_.begin(); it != tokens_.end(); ++it) {
    if (it->second.app == app && it->second.user == user) {
      tokens_.erase(it);
      log_record(Value(Object{{"op", Value("srv.acct_rm")},
                              {"app", Value(app)},
                              {"user", Value(user)}}));
      db_.collection(config_.accounts_collection)
          .remove_many(docstore::Query::and_(
              {docstore::Query::eq("app", Value(app)),
               docstore::Query::eq("user", Value(user))}));
      return {};
    }
  }
  return err(ErrorCode::kNotFound, "no account for '" + user + "'");
}

// --- Channel management -----------------------------------------------------

Result<ClientChannels> GoFlowServer::login_client(const std::string& auth_token,
                                                  const AppId& app,
                                                  const ClientId& client) {
  Status s = require_role(auth_token, app, Role::kClient);
  if (!s.ok()) return s.error();
  if (apps_.count(app) == 0)
    return err(ErrorCode::kNotFound, "app '" + app + "' not registered");

  ExchangeId ex = client_exchange(app, client);
  QueueId q = client_queue(app, client);
  s = broker_.declare_exchange(ex, broker::ExchangeType::kTopic);
  if (!s.ok()) return s.error();
  // The client's exchange forwards everything it publishes to the app
  // exchange (Figure 3: E1 -> SC).
  s = broker_.bind_exchange(ex, app_exchange(app), "#");
  if (!s.ok()) return s.error();
  // Durable: subscription deliveries buffered in a client's queue while
  // it is offline must survive a middleware restart.
  broker::QueueOptions queue_options;
  queue_options.durable = true;
  s = broker_.declare_queue(q, queue_options);
  if (!s.ok()) return s.error();
  ++apps_[app].analytics.clients_logged_in;
  log_record(Value(Object{{"op", Value("srv.login")}, {"app", Value(app)}}));
  return ClientChannels{ex, q};
}

Status GoFlowServer::logout_client(const std::string& auth_token,
                                   const AppId& app, const ClientId& client) {
  Status s = require_role(auth_token, app, Role::kClient);
  if (!s.ok()) return s;
  Status es = broker_.delete_exchange(client_exchange(app, client));
  Status qs = broker_.delete_queue(client_queue(app, client));
  if (!es.ok()) return es;
  return qs;
}

Status GoFlowServer::subscribe(const std::string& auth_token, const AppId& app,
                               const ClientId& client,
                               const std::string& location_id,
                               const std::string& datatype) {
  Status s = require_role(auth_token, app, Role::kClient);
  if (!s.ok()) return s;
  if (!broker_.has_queue(client_queue(app, client)))
    return err(ErrorCode::kNotFound, "client not logged in");

  // Figure 3 topology: app exchange -> location exchange -> datatype
  // exchange -> client queues. Messages are published with routing key
  // "<location>.<datatype>.<client>".
  ExchangeId loc_ex = location_exchange(app, location_id);
  ExchangeId type_ex = datatype_exchange(app, location_id, datatype);
  s = broker_.declare_exchange(loc_ex, broker::ExchangeType::kTopic);
  if (!s.ok()) return s;
  s = broker_.bind_exchange(app_exchange(app), loc_ex, location_id + ".#");
  if (!s.ok()) return s;
  s = broker_.declare_exchange(type_ex, broker::ExchangeType::kTopic);
  if (!s.ok()) return s;
  s = broker_.bind_exchange(loc_ex, type_ex, "*." + datatype + ".#");
  if (!s.ok()) return s;
  s = broker_.bind_queue(type_ex, client_queue(app, client), "#");
  if (!s.ok()) return s;
  ++apps_[app].analytics.subscriptions;
  log_record(Value(Object{{"op", Value("srv.sub")}, {"app", Value(app)}}));
  return {};
}

Status GoFlowServer::unsubscribe(const std::string& auth_token,
                                 const AppId& app, const ClientId& client,
                                 const std::string& location_id,
                                 const std::string& datatype) {
  Status s = require_role(auth_token, app, Role::kClient);
  if (!s.ok()) return s;
  return broker_.unbind_queue(datatype_exchange(app, location_id, datatype),
                              client_queue(app, client), "#");
}

std::string GoFlowServer::publish_key(const std::string& location_id,
                                      const std::string& datatype,
                                      const ClientId& client) {
  return location_id + "." + datatype + "." + client;
}

// --- Ingestion ---------------------------------------------------------------

// The input's form is the only thing that picks a path: a flat ObsBatch is
// accepted by ingest_flat, a document by the code below, and store_batch
// stores either — journal or not.
void GoFlowServer::ingest(const broker::Message& message) {
  if (down_) return;  // a crashed incarnation consumes nothing
  if (message.flat != nullptr) {
    ingest_flat(message);
    return;
  }
  const Value* observations = message.payload.find("observations");
  if (observations == nullptr || !observations->is_array()) {
    // Not an observation batch (e.g. a Feedback message routed for
    // storage): store it raw when it is an object, minus any _id (a
    // storage-local handle the docstore assigns).
    if (message.payload.is_object()) {
      Value doc = message.payload;
      doc.as_object().erase("_id");
      doc.as_object().set("routing_key", Value(message.routing_key));
      doc.as_object().set("received_at", Value(message.published_at));
      PendingBatch batch;
      batch.collection = "messages";
      batch.published_at = message.published_at;
      batch.docs.push_back(std::move(doc));
      accept(std::move(batch), "");
    }
    return;
  }
  std::string batch_id = message.payload.get_string("batch_id");
  if (!accept_batch_id(batch_id, message)) return;
  AppId app = message.payload.get_string("app");
  std::string client = message.payload.get_string("client");

  // Accepting a batch and storing it are separate steps: documents are
  // prepared up front, and store_batch works through them with backoff
  // retries on transient docstore errors. The tail of a half-stored batch
  // is resumed internally — never redelivered through the broker, which
  // would trip the batch_id dedup and lose it.
  PendingBatch batch;
  batch.collection = config_.observations_collection;
  batch.app = app;
  batch.published_at = message.published_at;
  for (const Value& obs : observations->as_array()) {
    if (!obs.is_object()) continue;
    Value doc = obs;
    Object& o = doc.as_object();
    o.erase("_id");  // storage-local, as for a raw message
    o.set("app", Value(app));
    o.set("client", Value(client));
    o.set("received_at", Value(message.published_at));
    o.set("delay_ms", Value(message.published_at - doc.get_int("captured_at")));
    batch.docs.push_back(std::move(doc));
  }
  accept(std::move(batch), batch_id);
}

// A flat batch stays flat end to end: dedup reads the span-id column, the
// pending batch keeps a shared_ptr to the columns, storage goes through the
// docstore's column-wise insert_batch, and where state leaves the process
// (WAL, snapshots, migrations) the batch goes as its columns.
void GoFlowServer::ingest_flat(const broker::Message& message) {
  const ingest::ObsBatch& flat = *message.flat;
  std::string batch_id(flat.batch_id());
  if (!accept_batch_id(batch_id, message)) return;
  PendingBatch batch;
  batch.collection = config_.observations_collection;
  batch.app = std::string(flat.app());
  batch.published_at = message.published_at;
  batch.flat = message.flat;
  accept(std::move(batch), batch_id);
}

bool GoFlowServer::accept_batch_id(const std::string& batch_id,
                                   const broker::Message& message) {
  // Idempotent ingestion: the transport is at-least-once (store-and-
  // forward retries, broker redelivery), so a batch may arrive twice.
  bool batch_is_new = batch_id.empty() || seen_batch_ids_.insert(batch_id);
  note_dedup_evictions();
  if (batch_is_new) return true;
  ++totals_.duplicate_batches;
  ++live_.duplicate_batches;
  // Recovery replays the rejection so the post-crash counter agrees
  // with what the operator saw live.
  log_record(Value(Object{{"op", Value("srv.dupb")}}));
  // The batch was already stored; these redelivered copies go nowhere.
  drop_spans(message, obs::DropStage::kRejectedByServer);
  return false;
}

// Acceptance is the durability point: once srv.batch is logged, the batch
// is the server's responsibility — a crash before its rows land is
// recovered by rebuilding the pending batch and resuming store_batch.
void GoFlowServer::accept(PendingBatch batch, const std::string& batch_id) {
  std::uint64_t id = ++pending_counter_;
  const PendingBatch& b =
      pending_batches_.emplace(id, std::move(batch)).first->second;
  if (journal_ != nullptr)
    log_record(b.encode(Object{{"op", Value("srv.batch")},
                               {"id", Value(static_cast<std::int64_t>(id))},
                               {"bid", Value(batch_id)}}));
  store_batch(id);
}

std::size_t GoFlowServer::PendingBatch::size() const {
  return flat != nullptr ? flat->size() : docs.size();
}

GoFlowServer::Row GoFlowServer::PendingBatch::row(std::size_t i) const {
  if (flat != nullptr)
    return Row{flat->span_id(i), flat->client(),
               published_at - flat->captured_at(i), flat->has_location(i)};
  const Value& doc = docs[i];
  const Value* client = doc.find("client");
  return Row{static_cast<std::uint64_t>(doc.get_int("span", 0)),
             client != nullptr && client->is_string()
                 ? std::string_view(client->as_string())
                 : std::string_view(),
             doc.get_int("delay_ms", 0), doc.find("location") != nullptr};
}

Value GoFlowServer::PendingBatch::encode(Object fields) const {
  fields.set("c", Value(collection));
  fields.set("app", Value(app));
  fields.set("at", Value(published_at));
  fields.set("next", Value(static_cast<std::int64_t>(next)));
  if (flat != nullptr) {
    std::string columns;
    ingest::encode_batch(*flat, 0, flat->size(), columns);
    fields.set("b", Value(std::move(columns)));
  } else {
    fields.set("docs", Value(docs));
  }
  return Value(std::move(fields));
}

GoFlowServer::PendingBatch GoFlowServer::PendingBatch::decode(const Value& v) {
  PendingBatch batch;
  if (const Value* columns = v.find("b")) {
    batch.flat = ingest::decode_batch(columns->as_string());
    if (batch.flat == nullptr) throw std::invalid_argument("bad columns");
  } else if (const Value* docs = v.find("docs")) {
    batch.docs = docs->as_array();
  }
  batch.collection = v.get_string("c");
  batch.app = v.get_string("app");
  batch.published_at = v.get_int("at");
  batch.next = static_cast<std::size_t>(v.get_int("next"));
  return batch;
}

bool GoFlowServer::is_observations(const PendingBatch& batch) const {
  return !batch.app.empty() ||
         batch.collection == config_.observations_collection;
}

bool GoFlowServer::seen_row(const Row& row, bool observations,
                            std::string& key) const {
  if (!observations || row.span == 0) return false;
  span_key(row.client, row.span, key);
  return seen_obs_keys_.contains(key);
}

void GoFlowServer::store_batch(std::uint64_t id) {
  if (down_) return;
  auto bit = pending_batches_.find(id);
  if (bit == pending_batches_.end()) return;
  PendingBatch& batch = bit->second;
  const bool observations = is_observations(batch);
  auto& collection = db_.collection(batch.collection);
  std::string key;  // every row's dedup key, built in place (no allocation)
  while (batch.next < batch.size()) {
    // Second dedup line: a crash can interrupt a client's retry cycle
    // after the broker already routed the batch, and the re-packaged
    // upload carries a fresh batch_id — so observations are also deduped
    // individually by their stable (client, span) identity.
    if (seen_row(batch.row(batch.next), observations, key)) {
      if (account_run(id, batch, 1, /*dup=*/true, /*live=*/true, key)) return;
      continue;
    }
    // The insert is the one step that differs by form. A document goes in
    // alone; a flat batch goes in as its maximal run of consecutive new
    // rows, in one column-wise call. Span ids are unique within a batch,
    // so rows of a run cannot dedup against each other; the row that ends
    // the run is decided afresh at the top of the loop.
    std::size_t want = 1;
    std::size_t stored = 0;
    if (batch.flat != nullptr) {
      std::size_t end = batch.next + 1;
      while (end < batch.size() && !seen_row(batch.row(end), observations, key))
        ++end;
      want = end - batch.next;
      stored = collection.insert_batch(batch.flat, batch.next, want,
                                       batch.published_at);
    } else {
      try {
        collection.insert(batch.docs[batch.next]);  // copies: a retry reuses it
        stored = 1;
      } catch (const fault::TransientError&) {
      }
    }
    if (stored > 0 &&
        account_run(id, batch, stored, /*dup=*/false, /*live=*/true, key))
      return;
    if (stored < want) {
      back_off(id, batch);
      return;
    }
  }
  // A batch with no storable rows closes out immediately.
  finish_batch(id, batch, /*live=*/true);
}

void GoFlowServer::back_off(std::uint64_t id, PendingBatch& batch) {
  ++totals_.ingest_retries;
  ++live_.ingest_retries;
  ++batch.attempts;
  DurationMs delay = fault::backoff_delay(
      batch.attempts, config_.ingest_retry_base, config_.ingest_retry_max,
      config_.ingest_retry_jitter, ingest_retry_rng_);
  // The timer belongs to this incarnation: if the server crashes before it
  // fires, recovery resumes the batch itself and a stale timer must not
  // double-drive it.
  sim_.after(delay, [this, id, epoch = epoch_] {
    if (epoch == epoch_) store_batch(id);
  });
}

bool GoFlowServer::account_run(std::uint64_t id, PendingBatch& batch,
                               std::size_t n, bool dup, bool live,
                               std::string& key) {
  if (live && journal_ != nullptr)
    log_record(Value(Object{{"op", Value("srv.prog")},
                            {"id", Value(static_cast<std::int64_t>(id))},
                            {"n", Value(static_cast<std::int64_t>(n))},
                            {"dup", Value(dup)}}));
  const bool observations = is_observations(batch);
  auto ait = apps_.find(batch.app);
  for (std::size_t k = 0; k < n && batch.next < batch.size(); ++k) {
    const Row row = batch.row(batch.next++);
    if (dup) {
      ++totals_.duplicate_observations;
      // The live counts, the registry and the tracer live outside the
      // server process (operator monitoring): replay must not
      // double-count what they already saw live.
      if (live) ++live_.duplicate_observations;
      if (live && tracer_ != nullptr && row.span != 0)
        tracer_->drop(row.span, obs::DropStage::kRejectedByServer, sim_.now());
      continue;
    }
    if (!observations) continue;
    if (row.span != 0) {
      span_key(row.client, row.span, key);
      seen_obs_keys_.insert(key);
      if (live) note_dedup_evictions();
    }
    ++totals_.observations;
    if (live) {
      ++live_.observations;
      if (ingest_delay_ != nullptr)
        ingest_delay_->observe(static_cast<double>(row.delay));
      if (tracer_ != nullptr && row.span != 0) {
        tracer_->stamp(row.span, obs::Hop::kRouted, batch.published_at);
        tracer_->stamp(row.span, obs::Hop::kPersisted, sim_.now());
      }
    }
    if (ait != apps_.end()) {
      AppAnalytics& analytics = ait->second.analytics;
      ++analytics.observations_stored;
      if (row.localized) ++analytics.observations_localized;
      analytics.delay_stats.add(static_cast<double>(row.delay));
    }
  }
  batch.attempts = 0;
  if (batch.next < batch.size()) return false;
  finish_batch(id, batch, live);
  return true;
}

void GoFlowServer::finish_batch(std::uint64_t id, PendingBatch& batch,
                                bool live) {
  if (is_observations(batch)) {
    ++totals_.batches;
    if (live) ++live_.batches;
    auto ait = apps_.find(batch.app);
    if (ait != apps_.end()) ++ait->second.analytics.batches_ingested;
  }
  pending_batches_.erase(id);
}

std::vector<std::uint64_t> GoFlowServer::pending_ingest_span_ids() const {
  std::vector<std::uint64_t> ids;
  for (const auto& [_, batch] : pending_batches_)
    for (std::size_t i = batch.next; i < batch.size(); ++i)
      if (std::uint64_t span = batch.row(i).span; span != 0)
        ids.push_back(span);
  return ids;
}

// --- Shard rebalance (DESIGN.md §16) ----------------------------------------

namespace {

/// Client identity of a dedup key — both batch ids ("<client>#<counter>")
/// and observation keys ("<client>#<span>") carry the client as the
/// prefix before the last '#' (study client ids, "<model>#<n>", hold one
/// too). A key with no '#' counts as owned by its whole text.
std::string_view key_client(const std::string& key) {
  std::string_view v(key);
  return v.substr(0, v.rfind('#'));
}

}  // namespace

Value GoFlowServer::extract_migration(
    const std::function<bool(std::string_view)>& pred) {
  auto keys_to_array = [](std::vector<std::string> keys) {
    Array out;
    for (std::string& k : keys) out.push_back(Value(std::move(k)));
    return out;
  };
  Array batch_keys = keys_to_array(seen_batch_ids_.extract_if(
      [&](const std::string& k) { return pred(key_client(k)); }));
  Array obs_keys = keys_to_array(seen_obs_keys_.extract_if(
      [&](const std::string& k) { return pred(key_client(k)); }));

  // In their stored form, unjournaled (see header contract).
  Array rows = db_.collection(config_.observations_collection)
                   .extract_if("client", [&](const Value& client) {
                     return client.is_string() && pred(client.as_string());
                   });

  // Pending batches move wholesale, resume position included. Raw
  // "messages" batches have no client and stay put.
  Array pending;
  for (auto it = pending_batches_.begin(); it != pending_batches_.end();) {
    PendingBatch& b = it->second;
    std::string_view client = b.size() > 0 ? b.row(0).client : "";
    if (client.empty() || !pred(client)) {
      ++it;
      continue;
    }
    pending.push_back(b.encode(Object{}));
    it = pending_batches_.erase(it);
  }

  return Value(Object{{"batch_keys", Value(std::move(batch_keys))},
                      {"obs_keys", Value(std::move(obs_keys))},
                      {"rows", Value(std::move(rows))},
                      {"pending", Value(std::move(pending))}});
}

void GoFlowServer::adopt_migration(const Value& migration) {
  std::vector<PendingBatch> pending;
  if (const Value* p = migration.find("pending"))
    for (const Value& batch : p->as_array())
      pending.push_back(PendingBatch::decode(batch));

  const Value* batch_keys = migration.find("batch_keys");
  if (batch_keys != nullptr)
    for (const Value& k : batch_keys->as_array())
      seen_batch_ids_.insert(k.as_string());
  const Value* obs_keys = migration.find("obs_keys");
  if (obs_keys != nullptr)
    for (const Value& k : obs_keys->as_array())
      seen_obs_keys_.insert(k.as_string());
  note_dedup_evictions();

  // _id is storage-local: the rows take this shard's next ids (a source
  // id could collide with a row this shard already holds).
  if (const Value* rows = migration.find("rows")) {
    auto& collection = db_.collection(config_.observations_collection);
    for (const Value& entry : rows->as_array())
      collection.apply_entry(entry, /*fresh_ids=*/true);
  }

  // Batch ids moved with batch_keys; srv.batch keeps the resume point.
  for (PendingBatch& batch : pending) accept(std::move(batch), "");
}

// --- Durability (DESIGN.md §11) ---------------------------------------------

void GoFlowServer::attach_journal(durable::Journal* journal) {
  journal_ = journal;
}

void GoFlowServer::log_record(Value record) {
  if (journal_ != nullptr) journal_->append(record);
}

void GoFlowServer::attribute_pending_drops(obs::DropStage stage) {
  if (tracer_ == nullptr) return;
  for (std::uint64_t span : pending_ingest_span_ids())
    tracer_->drop(span, stage, sim_.now());
}

void GoFlowServer::attribute_shutdown_drops() {
  attribute_pending_drops(obs::DropStage::kLostInServerShutdown);
}

void GoFlowServer::crash() {
  // Without a journal there is no recovery: whatever was accepted but not
  // yet stored is gone, and the books must say so.
  if (journal_ == nullptr)
    attribute_pending_drops(obs::DropStage::kLostInServerCrash);
  broker_.unsubscribe(ingest_tag_);  // no-op if the broker crashed first
  // Flow control died with the process; recovery reinstalls the gate.
  broker_.clear_admission_gate(config_.ingest_queue);
  ingest_tag_ = 0;
  tokens_.clear();
  apps_.clear();
  seen_batch_ids_.clear();
  seen_obs_keys_.clear();
  pending_batches_.clear();
  token_counter_ = 0;
  job_counter_ = 0;
  totals_ = IngestCounts{};
  pending_counter_ = 0;
  down_ = true;
  ++epoch_;  // invalidates every scheduled ingest-retry timer
}

void GoFlowServer::finish_recovery() {
  down_ = false;
  // Resume half-stored batches before accepting new traffic so their
  // documents land ahead of anything newly routed. Collect ids first:
  // store_batch erases completed batches.
  std::vector<std::uint64_t> ids;
  for (const auto& [id, _] : pending_batches_) ids.push_back(id);
  for (std::uint64_t id : ids) store_batch(id);
  subscribe_ingest();
  update_admission_gate();
}

namespace {

/// A dedup set's insertion order as a sealed sequence of key strings.
void encode_keys(durable::SnapshotWriter& writer, BoundedKeySet& set) {
  writer.sequence(set.sealed(), set.size(),
                  [&set](std::size_t first, std::string& segment) {
                    const std::deque<std::string>& keys = set.ordered();
                    for (std::size_t i = first; i < keys.size(); ++i)
                      codec::encode_string(keys[i], segment);
                    return static_cast<std::uint32_t>(keys.size() - first);
                  });
}

/// Re-inserts the keys of the segments `names` lists in eviction order,
/// which rebuilds the exact FIFO queue.
void restore_keys(const Value* names, durable::Segments& segments,
                  BoundedKeySet& set) {
  if (names == nullptr) return;
  SealedPrefix sealed = segments.take(*names, [&set](Value&& key) {
    set.insert(std::move(key.as_string()));
    return std::size_t{1};
  });
  // Sealed only if the set now holds exactly those keys (a smaller
  // capacity evicts some on the way in).
  if (set.size() == sealed.end) set.sealed() = std::move(sealed);
}

}  // namespace

void GoFlowServer::encode_snapshot(durable::SnapshotWriter& writer) {
  Array accounts;
  for (const auto& [token, a] : tokens_)
    accounts.push_back(Value(Object{
        {"app", Value(a.app)},
        {"user", Value(a.user)},
        {"role", Value(static_cast<std::int64_t>(a.role))},
        {"token", Value(token)}}));
  Array apps;
  for (const auto& [app, state] : apps_) {
    Array pf;
    for (const std::string& f : state.private_fields) pf.push_back(Value(f));
    const AppAnalytics& an = state.analytics;
    const RunningStats& ds = an.delay_stats;
    apps.push_back(Value(Object{
        {"app", Value(app)},
        {"pf", Value(std::move(pf))},
        {"cli", Value(static_cast<std::int64_t>(an.clients_logged_in))},
        {"bat", Value(static_cast<std::int64_t>(an.batches_ingested))},
        {"obs", Value(static_cast<std::int64_t>(an.observations_stored))},
        {"loc", Value(static_cast<std::int64_t>(an.observations_localized))},
        {"sub", Value(static_cast<std::int64_t>(an.subscriptions))},
        {"ds", Value(Object{{"n", Value(static_cast<std::int64_t>(ds.count()))},
                            {"mean", Value(ds.mean())},
                            {"m2", Value(ds.m2())},
                            {"min", Value(ds.min())},
                            {"max", Value(ds.max())}})}}));
  }
  Array pending;
  for (const auto& [id, batch] : pending_batches_)
    pending.push_back(
        batch.encode(Object{{"id", Value(static_cast<std::int64_t>(id))}}));
  const Object inline_state{
      {"accounts", Value(std::move(accounts))},
      {"apps", Value(std::move(apps))},
      {"pending", Value(std::move(pending))},
      {"token_counter", Value(static_cast<std::int64_t>(token_counter_))},
      {"job_counter", Value(static_cast<std::int64_t>(job_counter_))},
      {"total_batches", Value(static_cast<std::int64_t>(totals_.batches))},
      {"total_observations",
       Value(static_cast<std::int64_t>(totals_.observations))},
      {"duplicate_batches",
       Value(static_cast<std::int64_t>(totals_.duplicate_batches))},
      {"duplicate_observations",
       Value(static_cast<std::int64_t>(totals_.duplicate_observations))},
      {"ingest_retries",
       Value(static_cast<std::int64_t>(totals_.ingest_retries))},
      {"pending_counter", Value(static_cast<std::int64_t>(pending_counter_))}};
  std::string& out = writer.out();
  codec::encode_object_header(
      static_cast<std::uint32_t>(inline_state.size() + 2), out);
  for (const auto& [key, value] : inline_state) {
    codec::encode_key(key, out);
    codec::encode_value(value, out);
  }
  codec::encode_key("seen_batches", out);
  encode_keys(writer, seen_batch_ids_);
  codec::encode_key("seen_obs", out);
  encode_keys(writer, seen_obs_keys_);
}

void GoFlowServer::restore_snapshot(const Value& state,
                                    durable::Segments& segments) {
  const Value* accounts = state.find("accounts");
  if (accounts != nullptr) {
    for (const Value& a : accounts->as_array()) {
      std::string token = a.get_string("token");
      tokens_[token] = Account{a.get_string("app"), a.get_string("user"),
                               static_cast<Role>(a.get_int("role")), token};
    }
  }
  const Value* apps = state.find("apps");
  if (apps != nullptr) {
    for (const Value& a : apps->as_array()) {
      AppState& s = apps_[a.get_string("app")];
      const Value* pf = a.find("pf");
      if (pf != nullptr)
        for (const Value& f : pf->as_array())
          s.private_fields.push_back(f.as_string());
      AppAnalytics& an = s.analytics;
      an.clients_logged_in = static_cast<std::uint64_t>(a.get_int("cli"));
      an.batches_ingested = static_cast<std::uint64_t>(a.get_int("bat"));
      an.observations_stored = static_cast<std::uint64_t>(a.get_int("obs"));
      an.observations_localized = static_cast<std::uint64_t>(a.get_int("loc"));
      an.subscriptions = static_cast<std::uint64_t>(a.get_int("sub"));
      const Value* ds = a.find("ds");
      if (ds != nullptr)
        an.delay_stats = RunningStats::from_raw(
            static_cast<std::size_t>(ds->get_int("n")), ds->get_double("mean"),
            ds->get_double("m2"), ds->get_double("min"), ds->get_double("max"));
    }
  }
  restore_keys(state.find("seen_batches"), segments, seen_batch_ids_);
  restore_keys(state.find("seen_obs"), segments, seen_obs_keys_);
  if (const Value* pending = state.find("pending"))
    for (const Value& p : pending->as_array())
      pending_batches_.emplace(static_cast<std::uint64_t>(p.get_int("id")),
                               PendingBatch::decode(p));
  token_counter_ = static_cast<std::uint64_t>(state.get_int("token_counter"));
  job_counter_ = static_cast<std::uint64_t>(state.get_int("job_counter"));
  totals_.batches = static_cast<std::uint64_t>(state.get_int("total_batches"));
  totals_.observations =
      static_cast<std::uint64_t>(state.get_int("total_observations"));
  totals_.duplicate_batches =
      static_cast<std::uint64_t>(state.get_int("duplicate_batches"));
  totals_.duplicate_observations =
      static_cast<std::uint64_t>(state.get_int("duplicate_observations"));
  totals_.ingest_retries =
      static_cast<std::uint64_t>(state.get_int("ingest_retries"));
  pending_counter_ =
      static_cast<std::uint64_t>(state.get_int("pending_counter"));
}

void GoFlowServer::apply_journal_record(const Value& record) {
  const std::string op = record.get_string("op");
  if (op == "srv.app") {
    std::string app = record.get_string("app");
    std::string token = record.get_string("token");
    AppState& s = apps_[app];
    s.private_fields.clear();
    const Value* pf = record.find("pf");
    if (pf != nullptr)
      for (const Value& f : pf->as_array())
        s.private_fields.push_back(f.as_string());
    tokens_[token] = Account{app, "app-admin", Role::kAdmin, token};
    token_counter_ = std::max(token_counter_, token_suffix(token));
  } else if (op == "srv.acct") {
    std::string token = record.get_string("token");
    tokens_[token] =
        Account{record.get_string("app"), record.get_string("user"),
                static_cast<Role>(record.get_int("role")), token};
    token_counter_ = std::max(token_counter_, token_suffix(token));
  } else if (op == "srv.acct_rm") {
    std::string app = record.get_string("app");
    std::string user = record.get_string("user");
    for (auto it = tokens_.begin(); it != tokens_.end(); ++it) {
      if (it->second.app == app && it->second.user == user) {
        tokens_.erase(it);
        break;
      }
    }
  } else if (op == "srv.login") {
    ++apps_[record.get_string("app")].analytics.clients_logged_in;
  } else if (op == "srv.sub") {
    ++apps_[record.get_string("app")].analytics.subscriptions;
  } else if (op == "srv.job") {
    job_counter_ =
        std::max(job_counter_, static_cast<std::uint64_t>(record.get_int("n")));
  } else if (op == "srv.dupb") {
    ++totals_.duplicate_batches;
  } else if (op == "srv.batch") {
    PendingBatch batch = PendingBatch::decode(record);  // throws first
    auto id = static_cast<std::uint64_t>(record.get_int("id"));
    std::string bid = record.get_string("bid");
    if (!bid.empty()) seen_batch_ids_.insert(bid);
    pending_counter_ = std::max(pending_counter_, id);
    auto [it, inserted] = pending_batches_.emplace(id, std::move(batch));
    if (inserted && it->second.next >= it->second.size())
      finish_batch(id, it->second, /*live=*/false);
  } else if (op == "srv.prog") {
    auto id = static_cast<std::uint64_t>(record.get_int("id"));
    auto it = pending_batches_.find(id);
    if (it != pending_batches_.end()) {
      std::string key;
      account_run(id, it->second,
                  static_cast<std::size_t>(record.get_int("n")),
                  record.get_bool("dup"), /*live=*/false, key);
    }
  }
  // Unknown srv.* ops are skipped: a newer log replaying through older
  // code degrades to the records it understands.
}

// --- Data API ------------------------------------------------------------------

docstore::Query GoFlowServer::build_query(
    const ObservationFilter& filter) const {
  using docstore::Query;
  std::vector<Query> clauses;
  clauses.push_back(Query::eq("app", Value(filter.app)));
  if (filter.user.has_value())
    clauses.push_back(Query::eq("user", Value(*filter.user)));
  if (filter.model.has_value())
    clauses.push_back(Query::eq("model", Value(*filter.model)));
  if (filter.mode.has_value())
    clauses.push_back(Query::eq("mode", Value(*filter.mode)));
  if (filter.provider.has_value())
    clauses.push_back(Query::eq("location.provider", Value(*filter.provider)));
  if (filter.from.has_value())
    clauses.push_back(Query::gte("captured_at", Value(*filter.from)));
  if (filter.until.has_value())
    clauses.push_back(Query::lt("captured_at", Value(*filter.until)));
  if (filter.localized_only)
    clauses.push_back(Query::exists("location"));
  if (filter.max_accuracy_m.has_value())
    clauses.push_back(
        Query::lte("location.accuracy", Value(*filter.max_accuracy_m)));
  return Query::and_(std::move(clauses));
}

Value GoFlowServer::strip_private_fields(const Value& doc,
                                         const AppId& owner_app) const {
  auto it = apps_.find(owner_app);
  if (it == apps_.end() || it->second.private_fields.empty()) return doc;
  Value out = doc;
  for (const std::string& field : it->second.private_fields)
    out.as_object().erase(field);
  return out;
}

Result<std::vector<Value>> GoFlowServer::query_observations(
    const std::string& auth_token, const ObservationFilter& filter) const {
  const Account* account = authenticate(auth_token);
  if (account == nullptr) return err(ErrorCode::kUnauthorized, "invalid token");
  docstore::FindOptions options;
  options.sort_by = "captured_at";
  options.limit = filter.limit;
  const docstore::Collection* collection =
      db_.find_collection(config_.observations_collection);
  if (collection == nullptr) return std::vector<Value>{};
  std::vector<Value> docs =
      collection->find(build_query(filter), options);
  // Open-data policy: foreign apps see shared fields only.
  if (account->app != filter.app) {
    for (Value& doc : docs) doc = strip_private_fields(doc, filter.app);
  }
  return docs;
}

Result<std::size_t> GoFlowServer::count_observations(
    const std::string& auth_token, const ObservationFilter& filter) const {
  if (authenticate(auth_token) == nullptr)
    return err(ErrorCode::kUnauthorized, "invalid token");
  const docstore::Collection* collection =
      db_.find_collection(config_.observations_collection);
  if (collection == nullptr) return std::size_t{0};
  return collection->count(build_query(filter));
}

Result<std::string> GoFlowServer::export_json(
    const std::string& auth_token, const ObservationFilter& filter) const {
  Result<std::vector<Value>> docs = query_observations(auth_token, filter);
  if (!docs.ok()) return docs.error();
  std::string out = "[";
  bool first = true;
  for (const Value& doc : docs.value()) {
    if (!first) out.push_back(',');
    first = false;
    out += doc.to_json();
  }
  out.push_back(']');
  return out;
}

Result<std::string> GoFlowServer::export_csv(
    const std::string& auth_token, const ObservationFilter& filter) const {
  Result<std::vector<Value>> docs = query_observations(auth_token, filter);
  if (!docs.ok()) return docs.error();
  std::string out =
      "user,model,captured_at,spl,mode,activity,provider,x,y,accuracy,delay_ms\n";
  auto escape = [](const std::string& field) {
    if (field.find_first_of(",\"\n") == std::string::npos) return field;
    std::string quoted = "\"";
    for (char c : field) {
      if (c == '"') quoted += "\"\"";
      else quoted.push_back(c);
    }
    quoted.push_back('"');
    return quoted;
  };
  for (const Value& doc : docs.value()) {
    out += escape(doc.get_string("user")) + ',';
    out += escape(doc.get_string("model")) + ',';
    out += std::to_string(doc.get_int("captured_at")) + ',';
    out += format("%.3f", doc.get_double("spl")) + ',';
    out += doc.get_string("mode") + ',';
    out += doc.get_string("activity") + ',';
    const Value* location = doc.find("location");
    if (location != nullptr) {
      out += location->get_string("provider") + ',';
      out += format("%.1f", location->get_double("x")) + ',';
      out += format("%.1f", location->get_double("y")) + ',';
      out += format("%.1f", location->get_double("accuracy")) + ',';
    } else {
      out += ",,,,";
    }
    out += std::to_string(doc.get_int("delay_ms"));
    out.push_back('\n');
  }
  return out;
}

// --- Analytics -------------------------------------------------------------------

Result<AppAnalytics> GoFlowServer::analytics(const AppId& app) const {
  auto it = apps_.find(app);
  if (it == apps_.end())
    return err(ErrorCode::kNotFound, "app '" + app + "' not registered");
  return it->second.analytics;
}

// --- Background jobs ----------------------------------------------------------------

Result<JobId> GoFlowServer::submit_job(const std::string& auth_token,
                                       const AppId& app,
                                       const std::string& name, Job job,
                                       DurationMs delay) {
  Status s = require_role(auth_token, app, Role::kManager);
  if (!s.ok()) return s.error();
  JobId id = "job-" + std::to_string(++job_counter_);
  // Only the counter is durable: the callback is process-local and a job
  // in flight across a crash simply stays "scheduled" in the jobs
  // collection. The counter must survive or a recovered server would
  // reissue job ids and collide on _id.
  log_record(Value(Object{{"op", Value("srv.job")},
                          {"n", Value(static_cast<std::int64_t>(job_counter_))}}));
  Value doc(Object{{"_id", Value(id)},
                   {"name", Value(name)},
                   {"app", Value(app)},
                   {"status", Value("scheduled")}});
  db_.collection(config_.jobs_collection).insert(std::move(doc));
  sim_.after(delay, [this, id, job = std::move(job)] {
    Value result;
    std::string status = "done";
    try {
      result = job(db_);
    } catch (const std::exception& e) {
      status = "failed";
      result = Value(Object{{"error", Value(std::string(e.what()))}});
    }
    auto& jobs = db_.collection(config_.jobs_collection);
    auto doc = jobs.get(id);
    if (doc.has_value()) {
      doc->as_object().set("status", Value(status));
      doc->as_object().set("result", result);
      jobs.replace(id, std::move(*doc));
    }
  });
  return id;
}

Result<Value> GoFlowServer::job_info(const JobId& id) const {
  const docstore::Collection* jobs =
      db_.find_collection(config_.jobs_collection);
  if (jobs == nullptr) return err(ErrorCode::kNotFound, "job not found");
  auto doc = jobs->get(id);
  if (!doc.has_value()) return err(ErrorCode::kNotFound, "job not found");
  return *doc;
}

}  // namespace mps::core
