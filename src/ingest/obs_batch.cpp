#include "ingest/obs_batch.h"

#include <algorithm>

namespace mps::ingest {

namespace {

Value value_from_view(std::string_view s) { return Value(std::string(s)); }

}  // namespace

phone::Observation ObsBatch::observation_at(std::size_t i) const {
  phone::Observation obs;
  obs.user = std::string(user(i));
  obs.model = std::string(model(i));
  obs.captured_at = captured_at_[i];
  obs.spl_db = spl_[i];
  obs.mode = mode(i);
  obs.activity = activity(i);
  if (has_location(i)) {
    phone::LocationFix fix;
    fix.provider = provider(i);
    fix.x_m = x_[i];
    fix.y_m = y_[i];
    fix.accuracy_m = accuracy_[i];
    obs.location = fix;
  }
  obs.span_id = span_ids_[i];
  return obs;
}

Object ObsBatch::observation_object(std::size_t i) const {
  // Field order must match phone::Observation::to_document() exactly —
  // the equivalence suite compares serialized bytes.
  Object doc{{"user", value_from_view(user(i))},
             {"model", value_from_view(model(i))},
             {"captured_at", Value(captured_at_[i])},
             {"spl", Value(spl_[i])},
             {"mode", Value(phone::sensing_mode_name(mode(i)))},
             {"activity", Value(phone::activity_name(activity(i)))}};
  if (has_location(i)) {
    doc.set("location",
            Value(Object{
                {"provider", Value(phone::location_provider_name(provider(i)))},
                {"x", Value(x_[i])},
                {"y", Value(y_[i])},
                {"accuracy", Value(accuracy_[i])}}));
  }
  if (span_ids_[i] != 0)
    doc.set("span", Value(static_cast<std::int64_t>(span_ids_[i])));
  return doc;
}

Value ObsBatch::to_batch_document() const {
  Array observations;
  observations.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i)
    observations.push_back(Value(observation_object(i)));
  return Value(Object{{"app", value_from_view(app_)},
                      {"client", value_from_view(client_)},
                      {"batch_id", value_from_view(batch_id_)},
                      {"sent_at", Value(sent_at_)},
                      {"observations", Value(std::move(observations))}});
}

Value ObsBatch::storage_document(std::size_t i, TimeMs received_at) const {
  Object doc = observation_object(i);
  doc.set("app", value_from_view(app_));
  doc.set("client", value_from_view(client_));
  doc.set("received_at", Value(received_at));
  doc.set("delay_ms", Value(received_at - captured_at_[i]));
  return Value(std::move(doc));
}

bool ObsBatch::index_value(std::string_view path, std::size_t i,
                           TimeMs received_at, Value& out) const {
  if (path == "user") {
    out = value_from_view(user(i));
  } else if (path == "model") {
    out = value_from_view(model(i));
  } else if (path == "captured_at") {
    out = Value(captured_at_[i]);
  } else if (path == "spl") {
    out = Value(spl_[i]);
  } else if (path == "mode") {
    out = Value(phone::sensing_mode_name(mode(i)));
  } else if (path == "activity") {
    out = Value(phone::activity_name(activity(i)));
  } else if (path == "app") {
    out = value_from_view(app_);
  } else if (path == "client") {
    out = value_from_view(client_);
  } else if (path == "received_at") {
    out = Value(received_at);
  } else if (path == "delay_ms") {
    out = Value(received_at - captured_at_[i]);
  } else if (path == "span") {
    if (span_ids_[i] != 0) out = Value(static_cast<std::int64_t>(span_ids_[i]));
  } else if (path == "location.provider") {
    if (has_location(i))
      out = Value(phone::location_provider_name(provider(i)));
  } else if (path == "location.x") {
    if (has_location(i)) out = Value(x_[i]);
  } else if (path == "location.y") {
    if (has_location(i)) out = Value(y_[i]);
  } else if (path == "location.accuracy") {
    if (has_location(i)) out = Value(accuracy_[i]);
  } else {
    return false;  // not a flat column ("location", "_id", app-specific)
  }
  return true;
}

std::shared_ptr<const ObsBatch> BatchPool::make_batch(
    std::string_view app, std::string_view client, std::string_view batch_id,
    TimeMs sent_at, const std::vector<phone::Observation>& observations) {
  std::shared_ptr<Inner> inner = inner_;
  std::unique_ptr<Arena> arena;
  if (!inner->free.empty()) {
    arena = std::move(inner->free.back());
    inner->free.pop_back();
    ++inner->stats.arenas_reused;
  } else {
    arena = std::make_unique<Arena>();
    ++inner->stats.arenas_created;
  }

  auto* batch = new ObsBatch();
  Arena& a = *arena;
  const std::size_t n = observations.size();
  batch->app_ = a.copy_string(app);
  batch->client_ = a.copy_string(client);
  batch->batch_id_ = a.copy_string(batch_id);
  batch->sent_at_ = sent_at;
  batch->count_ = n;
  batch->span_ids_ = a.alloc_array<std::uint64_t>(n);
  batch->captured_at_ = a.alloc_array<std::int64_t>(n);
  batch->spl_ = a.alloc_array<double>(n);
  batch->mode_ = a.alloc_array<std::uint8_t>(n);
  batch->activity_ = a.alloc_array<std::uint8_t>(n);
  batch->has_location_ = a.alloc_array<std::uint8_t>(n);
  batch->provider_ = a.alloc_array<std::uint8_t>(n);
  batch->x_ = a.alloc_array<double>(n);
  batch->y_ = a.alloc_array<double>(n);
  batch->accuracy_ = a.alloc_array<double>(n);
  batch->user_idx_ = a.alloc_array<std::uint32_t>(n);
  batch->model_idx_ = a.alloc_array<std::uint32_t>(n);
  // Worst case every row brings a distinct user and model.
  batch->strings_ = a.alloc_array<std::string_view>(2 * n);

  auto intern = [&](std::string_view s) -> std::uint32_t {
    // The table is tiny (one user, a handful of models per client), so a
    // linear probe beats any hashing and allocates nothing.
    for (std::size_t k = 0; k < batch->string_count_; ++k)
      if (batch->strings_[k] == s) return static_cast<std::uint32_t>(k);
    batch->strings_[batch->string_count_] = a.copy_string(s);
    return static_cast<std::uint32_t>(batch->string_count_++);
  };

  for (std::size_t i = 0; i < n; ++i) {
    const phone::Observation& obs = observations[i];
    batch->span_ids_[i] = obs.span_id;
    batch->captured_at_[i] = obs.captured_at;
    batch->spl_[i] = obs.spl_db;
    batch->mode_[i] = static_cast<std::uint8_t>(obs.mode);
    batch->activity_[i] = static_cast<std::uint8_t>(obs.activity);
    if (obs.location.has_value()) {
      batch->has_location_[i] = 1;
      batch->provider_[i] = static_cast<std::uint8_t>(obs.location->provider);
      batch->x_[i] = obs.location->x_m;
      batch->y_[i] = obs.location->y_m;
      batch->accuracy_[i] = obs.location->accuracy_m;
    }
    batch->user_idx_[i] = intern(obs.user);
    batch->model_idx_[i] = intern(obs.model);
  }

  inner->high_water = std::max(inner->high_water, a.bytes_allocated());
  ++inner->stats.batches;

  batch->arena_ = std::move(arena);
  // The deleter recycles the arena into the pool (epoch reset, blocks
  // retained); if the pool died first the arena simply dies with it.
  std::weak_ptr<Inner> weak = inner;
  return std::shared_ptr<const ObsBatch>(batch, [weak](const ObsBatch* b) {
    auto* mutable_batch = const_cast<ObsBatch*>(b);
    if (std::shared_ptr<Inner> pool = weak.lock()) {
      mutable_batch->arena_->reset();
      pool->free.push_back(std::move(mutable_batch->arena_));
    }
    delete mutable_batch;
  });
}

void BatchPool::set_metrics(obs::Registry* registry) {
  sources_.detach();
  if (registry == nullptr) return;
  obs::Registry& r = *registry;
  const Inner& inner = *inner_;
  sources_.counter(r, "ingest.flat_batches", inner.stats.batches);
  sources_.counter(r, "ingest.arena_created", inner.stats.arenas_created);
  sources_.counter(r, "ingest.arena_reused", inner.stats.arenas_reused);
  sources_.gauge(r, "ingest.arena_high_water_bytes", [&inner] {
    return static_cast<double>(inner.high_water);
  });
}

}  // namespace mps::ingest
