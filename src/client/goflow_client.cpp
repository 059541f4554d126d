#include "client/goflow_client.h"

#include "common/log.h"
#include "net/net_client.h"
#include "net/radio.h"
#include "obs/flight_recorder.h"

namespace mps::client {

const char* app_version_name(AppVersion v) {
  switch (v) {
    case AppVersion::kV1_1: return "v1.1";
    case AppVersion::kV1_2_9: return "v1.2.9";
    case AppVersion::kV1_3: return "v1.3";
  }
  return "?";
}

ClientConfig ClientConfig::v1_1(ClientId id, ExchangeId exchange) {
  ClientConfig c;
  c.client_id = std::move(id);
  c.exchange = std::move(exchange);
  c.version = AppVersion::kV1_1;
  c.buffer_size = 1;
  return c;
}

ClientConfig ClientConfig::v1_2_9(ClientId id, ExchangeId exchange) {
  ClientConfig c;
  c.client_id = std::move(id);
  c.exchange = std::move(exchange);
  c.version = AppVersion::kV1_2_9;
  c.buffer_size = 1;
  return c;
}

ClientConfig ClientConfig::v1_3(ClientId id, ExchangeId exchange,
                                std::size_t buffer_size) {
  ClientConfig c;
  c.client_id = std::move(id);
  c.exchange = std::move(exchange);
  c.version = AppVersion::kV1_3;
  c.buffer_size = buffer_size;
  return c;
}

GoFlowClient::GoFlowClient(sim::Simulation& simulation, broker::Broker& broker,
                           phone::Phone& phone, ClientConfig config,
                           AmbientFn ambient, PositionFn position)
    : sim_(simulation),
      broker_(broker),
      phone_(phone),
      config_(std::move(config)),
      ambient_(std::move(ambient)),
      position_(std::move(position)),
      timer_(simulation, config_.sense_period,
             [this](TimeMs now) { on_sense_tick(now); }) {
  retry_rng_ = Rng(config_.retry_seed).child(config_.client_id);
}

void GoFlowClient::start() { timer_.start(); }

void GoFlowClient::stop() { timer_.stop(); }

void GoFlowClient::set_metrics(obs::Registry* registry) {
  sources_.detach();
  delivery_delay_ = nullptr;
  if (registry == nullptr) return;
  obs::Registry& r = *registry;
  sources_.counter(r, "client.recorded", stats_.observations_recorded);
  sources_.counter(r, "client.uploads", stats_.uploads);
  sources_.counter(r, "client.deferred_uploads", stats_.deferred_uploads);
  sources_.counter(r, "client.observations_uploaded",
                   stats_.observations_uploaded);
  sources_.counter(r, "client.dropped_not_shared", stats_.dropped_not_shared);
  sources_.counter(r, "client.publish_failures", stats_.publish_failures);
  sources_.counter(r, "retry.client_upload", stats_.upload_retries);
  sources_.counter(r, "retry.client_giveups", stats_.retry_giveups);
  sources_.counter(r, "client.crashes", stats_.crashes);
  delivery_delay_ = &r.histogram("client.delivery_delay_ms");
}

void GoFlowClient::on_sense_tick(TimeMs now) {
  auto [x, y] = position_(now);
  // Mobility gate: a device that hasn't moved re-samples the same scene;
  // back off to every Nth tick while stationary.
  if (config_.still_backoff > 1 && has_last_position_) {
    double dx = x - last_x_m_, dy = y - last_y_m_;
    bool moved = dx * dx + dy * dy >
                 config_.still_epsilon_m * config_.still_epsilon_m;
    if (moved) {
      still_ticks_ = 0;
    } else {
      ++still_ticks_;
      if (still_ticks_ % config_.still_backoff != 0) {
        ++stats_.skipped_still;
        // Retry pending uploads even on skipped ticks (the paper's
        // "sent at the next cycle" policy must not stall).
        maybe_upload();
        return;
      }
    }
  }
  has_last_position_ = true;
  last_x_m_ = x;
  last_y_m_ = y;
  phone::Observation obs =
      phone_.sense(now, phone::SensingMode::kOpportunistic, ambient_(now), x, y);
  record(obs);
}

phone::Observation GoFlowClient::sense_now(phone::SensingMode mode) {
  if (down_) {
    ++stats_.missed_while_down;
    return {};
  }
  TimeMs now = sim_.now();
  auto [x, y] = position_(now);
  phone::Observation obs = phone_.sense(now, mode, ambient_(now), x, y);
  record(obs);
  return obs;
}

Status GoFlowClient::start_journey(DurationMs period) {
  if (journey_timer_ != nullptr)
    return err(ErrorCode::kConflict, "a journey is already being recorded");
  if (period <= 0)
    return err(ErrorCode::kInvalidArgument, "journey period must be positive");
  journey_observations_ = 0;
  journey_timer_ = std::make_unique<sim::PeriodicTimer>(
      sim_, period, [this](TimeMs) {
        sense_now(phone::SensingMode::kJourney);
        ++journey_observations_;
      });
  // First measurement immediately, then every period.
  sense_now(phone::SensingMode::kJourney);
  ++journey_observations_;
  journey_timer_->start();
  return {};
}

std::size_t GoFlowClient::stop_journey() {
  if (journey_timer_ == nullptr) return journey_observations_;
  journey_timer_->stop();
  journey_timer_.reset();
  flush();  // a finished journey is worth shipping promptly
  return journey_observations_;
}

void GoFlowClient::record(const phone::Observation& observation) {
  if (down_) {
    ++stats_.missed_while_down;
    return;
  }
  ++stats_.observations_recorded;
  std::uint64_t span_id = observation.span_id;
  if (tracer_ != nullptr && span_id == 0)
    span_id = tracer_->begin(observation.captured_at);
  if (!config_.share) {
    ++stats_.dropped_not_shared;
    if (tracer_ != nullptr)
      tracer_->drop(span_id, obs::DropStage::kNotShared, sim_.now());
    return;  // quantified-self only: data stays on the device
  }
  buffer_.push_back(observation);
  buffer_.back().span_id = span_id;
  if (tracer_ != nullptr)
    tracer_->stamp(span_id, obs::Hop::kBuffered, sim_.now());
  maybe_upload();
}

void GoFlowClient::maybe_upload() {
  if (buffer_.empty()) return;
  TimeMs now = sim_.now();
  if (buffer_.size() >= config_.buffer_size) {
    try_upload();
    return;
  }
  // Piggyback: the radio is already warm thanks to another app — an
  // upload right now is nearly free, so flush early.
  if (config_.piggyback && phone_.foreground_active_at(now)) {
    if (try_upload()) ++stats_.piggyback_uploads;
    return;
  }
  // Age bound: don't let observations linger past max_buffer_age.
  if (config_.max_buffer_age > 0 &&
      now - buffer_.front().captured_at >= config_.max_buffer_age) {
    if (try_upload()) ++stats_.age_forced_uploads;
  }
}

bool GoFlowClient::flush() {
  if (buffer_.empty()) return false;
  return try_upload();
}

ingest::BatchPool& GoFlowClient::pool() {
  if (config_.batch_pool != nullptr) return *config_.batch_pool;
  if (own_pool_ == nullptr) own_pool_ = std::make_unique<ingest::BatchPool>();
  return *own_pool_;
}

bool GoFlowClient::try_upload() {
  TimeMs now = sim_.now();
  // Head-of-line: one unconfirmed batch at a time. While the outbox is
  // busy (transfer in flight or retries backing off), later uploads wait
  // — this is what keeps per-device upload order monotone across
  // failures. deliver_in_flight() drains the backlog on completion.
  if (in_flight_ != nullptr) {
    ++stats_.blocked_in_flight;
    return false;
  }
  // The paper's store-and-forward policy: no connection at emission time
  // means the batch is kept and retried at the next cycle.
  if (!phone_.connectivity().connected_at(now)) {
    ++stats_.deferred_uploads;
    return false;
  }

  std::size_t bytes = net::estimate_message_bytes(buffer_.size());
  DurationMs extra_latency = 0;
  if (config_.version == AppVersion::kV1_1) {
    bytes += config_.v1_1_connection_overhead_bytes;
    extra_latency = config_.v1_1_connection_latency;
  }

  net::Transfer transfer = phone_.transmit(now, bytes);
  TimeMs delivered_at = transfer.completed_at + extra_latency;

  ++batch_counter_;
  // Serialize the batch once into one block; the same batch travels on
  // every retransmit attempt. The batch id makes server-side ingestion
  // idempotent: a batch redelivered by the at-least-once transport is
  // stored exactly once.
  std::shared_ptr<const ingest::ObsBatch> upload = pool().make_batch(
      config_.app, config_.client_id,
      config_.client_id + "#" + std::to_string(batch_counter_), now, buffer_);
  std::size_t batch_size = buffer_.size();
  for (const phone::Observation& obs : buffer_) {
    deliveries_.push_back(DeliveryRecord{obs.captured_at, delivered_at,
                                         batch_size});
    if (tracer_ != nullptr)
      tracer_->stamp(obs.span_id, obs::Hop::kUploaded, delivered_at);
    if (delivery_delay_ != nullptr)
      delivery_delay_->observe(
          static_cast<double>(delivered_at - obs.captured_at));
  }
  auto batch = std::make_unique<InFlight>();
  batch->observations = std::move(buffer_);
  buffer_.clear();
  batch->upload = std::move(upload);
  batch->routing_key = config_.app + ".obs." + config_.client_id;
  in_flight_ = std::move(batch);
  ++stats_.uploads;
  stats_.observations_uploaded += batch_size;

  // Deliver to the broker when the transfer completes in virtual time.
  in_flight_->event = sim_.at(delivered_at, [this] { deliver_in_flight(); });
  return true;
}

void GoFlowClient::deliver_in_flight() {
  if (in_flight_ == nullptr) return;
  InFlight& batch = *in_flight_;
  batch.event = 0;
  ++batch.attempts;
  TimeMs now = sim_.now();
  // A lost confirm makes us retransmit the identical batch (same
  // batch_id), which server-side idempotent ingest dedups. With a socket
  // transport attached the same publish travels over the wire instead;
  // its pending outbox re-frames the batch at the retry timestamp,
  // exactly like this in-process retry, so the two paths stay
  // byte-equivalent.
  auto publish_once = [&]() -> Result<broker::PublishResult> {
    if (config_.transport != nullptr)
      return config_.transport->publish_flat(config_.exchange,
                                             batch.routing_key, batch.upload,
                                             now);
    // Fleet routing: resolve the owning shard's broker per publish, so a
    // rebalance between attempts redirects this very retry.
    broker::Broker& target =
        config_.broker_route ? *config_.broker_route() : broker_;
    return target.publish_flat(config_.exchange, batch.routing_key,
                               batch.upload, now);
  };
  auto result = publish_once();
  if (result.ok()) {
    if (batch.attempts > 1 && tracer_ != nullptr) {
      // Retries landed later than the optimistic stamp — fix it up.
      for (const phone::Observation& obs : batch.observations)
        tracer_->stamp(obs.span_id, obs::Hop::kUploaded, now);
    }
    in_flight_.reset();
    maybe_upload();  // drain uploads held back by the busy outbox
    return;
  }

  ++stats_.publish_failures;
  if (batch.attempts >= config_.max_publish_attempts) {
    // Give up on this transfer; the observations go back to the FRONT of
    // the store-and-forward buffer (order!) for a future upload cycle.
    ++stats_.retry_giveups;
    MPS_LOG_WARN("goflow-client",
                 "publish abandoned after " +
                     std::to_string(batch.attempts) +
                     " attempts; batch requeued: " + result.error().message);
    buffer_.insert(buffer_.begin(),
                   std::make_move_iterator(batch.observations.begin()),
                   std::make_move_iterator(batch.observations.end()));
    in_flight_.reset();
    // The observations will be re-packaged under a NEW batch id; the
    // transport must not keep (or ever resend) the abandoned frame.
    if (config_.transport != nullptr) config_.transport->abort_pending();
    return;
  }
  // Exponential backoff with jitter, driven by the sim clock.
  ++stats_.upload_retries;
  DurationMs delay =
      fault::backoff_delay(batch.attempts, config_.retry_base,
                           config_.retry_max, config_.retry_jitter, retry_rng_);
  batch.event = sim_.after(delay, [this] { deliver_in_flight(); });
}

void GoFlowClient::crash() {
  if (down_) return;
  ++stats_.crashes;
  obs::FlightRecorder::record(obs::FrEvent::kClientCrash,
                              obs::fr_hash(config_.client_id), stats_.crashes,
                              sim_.now());
  down_ = true;
  resume_sensing_ = timer_.running();
  timer_.stop();
  if (journey_timer_ != nullptr) {
    journey_timer_->stop();
    journey_timer_.reset();
  }
  if (in_flight_ != nullptr) {
    // The process died mid-transfer: the batch is lost from the radio's
    // point of view, but its observations live in the on-flash buffer —
    // back to the front so upload order survives the crash.
    if (in_flight_->event != 0) sim_.cancel(in_flight_->event);
    buffer_.insert(buffer_.begin(),
                   std::make_move_iterator(in_flight_->observations.begin()),
                   std::make_move_iterator(in_flight_->observations.end()));
    in_flight_.reset();
  }
  if (config_.transport != nullptr) {
    // The process died: its socket and any retained outbox frame die
    // with it (the re-buffered observations get a new batch id later).
    config_.transport->abort_pending();
    config_.transport->disconnect();
  }
}

void GoFlowClient::restart() {
  if (!down_) return;
  ++stats_.restarts;
  obs::FlightRecorder::record(obs::FrEvent::kClientRestart,
                              obs::fr_hash(config_.client_id), stats_.restarts,
                              sim_.now());
  down_ = false;
  if (resume_sensing_) timer_.start();
  maybe_upload();  // the persisted buffer gets an immediate upload chance
}

std::vector<std::uint64_t> GoFlowClient::in_flight_span_ids() const {
  std::vector<std::uint64_t> ids;
  if (in_flight_ != nullptr) {
    ids.reserve(in_flight_->observations.size());
    for (const phone::Observation& obs : in_flight_->observations)
      ids.push_back(obs.span_id);
  }
  return ids;
}

}  // namespace mps::client
