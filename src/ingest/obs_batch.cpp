#include "ingest/obs_batch.h"

#include <algorithm>
#include <cstring>

#include "common/codec.h"

namespace mps::ingest {

namespace {

Value value_from_view(std::string_view s) { return Value(std::string(s)); }

/// Writes `s` over `out`, into its string buffer when it holds one.
void assign_string(std::string_view s, Value& out) {
  if (out.is_string()) out.as_string().assign(s);
  else out = value_from_view(s);
}

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

Object ObsBatch::observation_object(std::size_t i,
                                   std::size_t extra_fields) const {
  // Field order must match phone::Observation::to_document() exactly —
  // the equivalence suite compares serialized bytes.
  Object doc;
  doc.reserve(6 + (has_location(i) ? 1 : 0) + (span_ids_[i] != 0 ? 1 : 0) +
              extra_fields);
  doc.set("user", value_from_view(user(i)));
  doc.set("model", value_from_view(model(i)));
  doc.set("captured_at", Value(captured_at_[i]));
  doc.set("spl", Value(spl_[i]));
  doc.set("mode", Value(phone::sensing_mode_name(mode(i))));
  doc.set("activity", Value(phone::activity_name(activity(i))));
  if (has_location(i)) doc.set("location", location_object(i));
  if (span_ids_[i] != 0)
    doc.set("span", Value(static_cast<std::int64_t>(span_ids_[i])));
  return doc;
}

Value ObsBatch::location_object(std::size_t i) const {
  Object location;
  location.reserve(4);
  location.set("provider", Value(phone::location_provider_name(provider(i))));
  location.set("x", Value(x_[i]));
  location.set("y", Value(y_[i]));
  location.set("accuracy", Value(accuracy_[i]));
  return Value(std::move(location));
}

Value ObsBatch::to_batch_document() const {
  Array observations;
  observations.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i)
    observations.push_back(Value(observation_object(i, 0)));
  return Value(Object{{"app", value_from_view(app_)},
                      {"client", value_from_view(client_)},
                      {"batch_id", value_from_view(batch_id_)},
                      {"sent_at", Value(sent_at_)},
                      {"observations", Value(std::move(observations))}});
}

Value ObsBatch::storage_document(std::size_t i, TimeMs received_at) const {
  // app, client, received_at, delay_ms, and the docstore's _id.
  Object doc = observation_object(i, 5);
  doc.set("app", value_from_view(app_));
  doc.set("client", value_from_view(client_));
  doc.set("received_at", Value(received_at));
  doc.set("delay_ms", Value(received_at - captured_at_[i]));
  return Value(std::move(doc));
}

bool ObsBatch::index_value(std::string_view path, std::size_t i,
                           TimeMs received_at, Value& out) const {
  if (path == "user") {
    assign_string(user(i), out);
  } else if (path == "model") {
    assign_string(model(i), out);
  } else if (path == "captured_at") {
    out = Value(captured_at_[i]);
  } else if (path == "spl") {
    out = Value(spl_[i]);
  } else if (path == "mode") {
    assign_string(phone::sensing_mode_name(mode(i)), out);
  } else if (path == "activity") {
    assign_string(phone::activity_name(activity(i)), out);
  } else if (path == "app") {
    assign_string(app_, out);
  } else if (path == "client") {
    assign_string(client_, out);
  } else if (path == "received_at") {
    out = Value(received_at);
  } else if (path == "delay_ms") {
    out = Value(received_at - captured_at_[i]);
  } else if (path == "span") {
    out = span_ids_[i] != 0 ? Value(static_cast<std::int64_t>(span_ids_[i]))
                            : Value();
  } else if (path == "location") {
    out = has_location(i) ? location_object(i) : Value();
  } else if (path == "location.provider") {
    if (!has_location(i)) out = Value();
    else assign_string(phone::location_provider_name(provider(i)), out);
  } else if (path == "location.x") {
    out = has_location(i) ? Value(x_[i]) : Value();
  } else if (path == "location.y") {
    out = has_location(i) ? Value(y_[i]) : Value();
  } else if (path == "location.accuracy") {
    out = has_location(i) ? Value(accuracy_[i]) : Value();
  } else {
    return false;  // not a flat column ("_id", app-specific)
  }
  return true;
}

namespace {
/// The interned-string table a batch is built with: distinct users and
/// models in first-seen order. The table is tiny (one user, a handful of
/// models per client), so a linear probe beats any hashing.
std::uint32_t intern(std::vector<std::string_view>& table, std::string_view s) {
  for (std::size_t k = 0; k < table.size(); ++k)
    if (table[k] == s) return static_cast<std::uint32_t>(k);
  table.push_back(s);
  return static_cast<std::uint32_t>(table.size() - 1);
}
}  // namespace

std::shared_ptr<ObsBatch> ObsBatch::allocate(
    std::string_view app, std::string_view client, std::string_view batch_id,
    TimeMs sent_at, std::size_t rows,
    const std::vector<std::string_view>& strings, std::size_t& bytes) {
  std::size_t chars = app.size() + client.size() + batch_id.size();
  for (std::string_view s : strings) chars += s.size();
  // One block, laid out in decreasing alignment so no column needs
  // padding: six 8-byte columns, the string table, two 4-byte index
  // columns, four 1-byte columns, then the characters. The caller writes
  // every column byte, so the block is not zero-filled.
  constexpr std::size_t kRowBytes = 6 * 8 + 2 * 4 + 4 * 1;
  const std::size_t n = rows;
  bytes = n * kRowBytes + strings.size() * sizeof(std::string_view) + chars;
  std::shared_ptr<ObsBatch> batch(new ObsBatch());
  batch->block_ = std::make_unique_for_overwrite<std::byte[]>(bytes);
  std::byte* cursor = batch->block_.get();
  auto carve = [&cursor]<typename T>(T*& column, std::size_t count) {
    column = reinterpret_cast<T*>(cursor);
    cursor += count * sizeof(T);
  };
  carve(batch->span_ids_, n);
  carve(batch->captured_at_, n);
  carve(batch->spl_, n);
  carve(batch->x_, n);
  carve(batch->y_, n);
  carve(batch->accuracy_, n);
  carve(batch->strings_, strings.size());
  carve(batch->user_idx_, n);
  carve(batch->model_idx_, n);
  carve(batch->mode_, n);
  carve(batch->activity_, n);
  carve(batch->has_location_, n);
  carve(batch->provider_, n);
  auto copy = [&cursor](std::string_view s) -> std::string_view {
    char* out = reinterpret_cast<char*>(cursor);
    if (!s.empty()) std::memcpy(out, s.data(), s.size());
    cursor += s.size();
    return {out, s.size()};
  };

  batch->app_ = copy(app);
  batch->client_ = copy(client);
  batch->batch_id_ = copy(batch_id);
  batch->sent_at_ = sent_at;
  batch->count_ = n;
  for (std::size_t k = 0; k < strings.size(); ++k)
    batch->strings_[k] = copy(strings[k]);
  batch->string_count_ = strings.size();
  return batch;
}

std::shared_ptr<const ObsBatch> BatchPool::make_batch(
    std::string_view app, std::string_view client, std::string_view batch_id,
    TimeMs sent_at, const std::vector<phone::Observation>& observations) {
  // Sizing pass: the distinct users and models in first-seen order.
  std::vector<std::string_view> strings;
  for (const phone::Observation& obs : observations) {
    intern(strings, obs.user);
    intern(strings, obs.model);
  }
  std::size_t bytes = 0;
  std::shared_ptr<ObsBatch> batch = ObsBatch::allocate(
      app, client, batch_id, sent_at, observations.size(), strings, bytes);
  for (std::size_t i = 0; i < observations.size(); ++i) {
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
    } else {
      batch->has_location_[i] = 0;
      batch->provider_[i] = 0;
      batch->x_[i] = batch->y_[i] = batch->accuracy_[i] = 0.0;
    }
    batch->user_idx_[i] = intern(strings, obs.user);
    batch->model_idx_[i] = intern(strings, obs.model);
  }

  ++stats_.blocks;
  stats_.largest_block_bytes =
      std::max<std::uint64_t>(stats_.largest_block_bytes, bytes);
  return batch;
}

// --- Codec -------------------------------------------------------------

namespace {
/// The row count a batch may claim, and the bytes of its smallest row
/// (span, two empty strings, captured_at, spl, three enum bytes): a
/// count is checked against both before anything is allocated.
constexpr std::uint32_t kMaxBatchRows = 1u << 20;
constexpr std::size_t kMinRowBytes = 8 + 4 + 4 + 8 + 8 + 3;
}  // namespace

void encode_batch(const ObsBatch& batch, std::size_t first, std::size_t count,
                  std::string& out) {
  codec::Writer w(out);
  w.str(batch.app());
  w.str(batch.client());
  w.str(batch.batch_id());
  w.i64(batch.sent_at());
  w.u32(static_cast<std::uint32_t>(count));
  for (std::size_t i = first; i < first + count; ++i) {
    w.u64(batch.span_id(i));
    w.str(batch.user(i));
    w.str(batch.model(i));
    w.i64(batch.captured_at(i));
    w.f64(batch.spl_db(i));
    w.u8(static_cast<std::uint8_t>(batch.mode(i)));
    w.u8(static_cast<std::uint8_t>(batch.activity(i)));
    w.u8(batch.has_location(i) ? 1 : 0);
    if (batch.has_location(i)) {
      w.u8(static_cast<std::uint8_t>(batch.provider(i)));
      w.f64(batch.x_m(i));
      w.f64(batch.y_m(i));
      w.f64(batch.accuracy_m(i));
    }
  }
}

std::shared_ptr<const ObsBatch> decode_batch(std::string_view bytes) {
  codec::Reader r(bytes);
  std::string_view app, client, batch_id;
  TimeMs sent_at = 0;
  std::uint32_t count = 0;
  if (!r.str(app) || !r.str(client) || !r.str(batch_id) || !r.i64(sent_at) ||
      !r.u32(count) || count > kMaxBatchRows ||
      static_cast<std::size_t>(count) * kMinRowBytes > r.remaining())
    return nullptr;
  const std::string_view rows = bytes.substr(bytes.size() - r.remaining());

  // Validating pass: every bound, enum and trailing-byte check, and the
  // users and models interned as views of `bytes`, which size the block.
  std::vector<std::string_view> strings;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t span = 0;
    std::string_view user, model;
    std::int64_t captured_at = 0;
    double spl = 0.0, x = 0.0, y = 0.0, accuracy = 0.0;
    std::uint8_t mode = 0, activity = 0, has_loc = 0, provider = 0;
    if (!r.u64(span) || !r.str(user) || !r.str(model) || !r.i64(captured_at) ||
        !r.f64(spl) || !r.u8(mode) || !r.u8(activity) || !r.u8(has_loc) ||
        mode > static_cast<std::uint8_t>(phone::SensingMode::kJourney) ||
        activity > static_cast<std::uint8_t>(phone::Activity::kVehicle) ||
        has_loc > 1)
      return nullptr;
    if (has_loc == 1 &&
        (!r.u8(provider) || !r.f64(x) || !r.f64(y) || !r.f64(accuracy) ||
         provider > static_cast<std::uint8_t>(phone::LocationProvider::kFused)))
      return nullptr;
    intern(strings, user);
    intern(strings, model);
  }
  if (!r.done()) return nullptr;

  // Fill pass: the rows are known good, so each value is read straight
  // into its column.
  std::size_t block_bytes = 0;
  std::shared_ptr<ObsBatch> batch = ObsBatch::allocate(
      app, client, batch_id, sent_at, count, strings, block_bytes);
  codec::Reader fill(rows);
  for (std::size_t i = 0; i < count; ++i) {
    std::string_view user, model;
    fill.u64(batch->span_ids_[i]);
    fill.str(user);
    fill.str(model);
    fill.i64(batch->captured_at_[i]);
    fill.f64(batch->spl_[i]);
    fill.u8(batch->mode_[i]);
    fill.u8(batch->activity_[i]);
    fill.u8(batch->has_location_[i]);
    if (batch->has_location_[i] == 1) {
      fill.u8(batch->provider_[i]);
      fill.f64(batch->x_[i]);
      fill.f64(batch->y_[i]);
      fill.f64(batch->accuracy_[i]);
    } else {
      batch->provider_[i] = 0;
      batch->x_[i] = batch->y_[i] = batch->accuracy_[i] = 0.0;
    }
    batch->user_idx_[i] = intern(strings, user);
    batch->model_idx_[i] = intern(strings, model);
  }
  return batch;
}

void BatchPool::set_metrics(obs::Registry* registry) {
  sources_.detach();
  if (registry == nullptr) return;
  obs::Registry& r = *registry;
  sources_.counter(r, "ingest.arena_created", stats_.blocks);
  sources_.gauge(r, "ingest.arena_high_water_bytes", [this] {
    return static_cast<double>(stats_.largest_block_bytes);
  });
}

}  // namespace mps::ingest
