// Flat observation batches — the zero-copy ingest fast path
// (DESIGN.md §13).
//
// An ObsBatch serializes a client upload exactly once, as struct-of-
// arrays columns inside one block, and every downstream stage consumes
// it by view through a shared_ptr, where the document path copies a
// Value tree per observation at every hop:
//
//   header   app / client / batch_id / sent_at     (batch-level)
//   columns  span_id  captured_at  spl  mode  activity
//            has_location  provider  x  y  accuracy
//            user_idx  model_idx  -> interned-string table
//
// BatchPool::make_batch sizes the block exactly from the row count and
// the distinct strings and allocates it once, without zero-filling it;
// the block lives exactly as long as the last shared_ptr to the batch.
// encode_batch() is the batch's one serialized form, for the socket, the
// WAL, snapshots, migrations and broker queues; decode_batch() turns it
// back into a batch, never into documents.
//
// The server keeps a document path for inputs that arrive as Value
// documents. to_batch_document() and storage_document() reproduce that
// path's exact bytes (the flat-vs-document equivalence suite pins them).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "common/value.h"
#include "obs/metrics.h"
#include "phone/observation.h"

namespace mps::ingest {

/// One client upload as flat columns. Immutable after construction;
/// owns the one block every column and string lives in.
class ObsBatch {
 public:
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  std::string_view app() const { return app_; }
  std::string_view client() const { return client_; }
  std::string_view batch_id() const { return batch_id_; }
  TimeMs sent_at() const { return sent_at_; }

  // --- Column views ------------------------------------------------------

  std::uint64_t span_id(std::size_t i) const { return span_ids_[i]; }
  TimeMs captured_at(std::size_t i) const { return captured_at_[i]; }
  double spl_db(std::size_t i) const { return spl_[i]; }
  phone::SensingMode mode(std::size_t i) const {
    return static_cast<phone::SensingMode>(mode_[i]);
  }
  phone::Activity activity(std::size_t i) const {
    return static_cast<phone::Activity>(activity_[i]);
  }
  bool has_location(std::size_t i) const { return has_location_[i] != 0; }
  phone::LocationProvider provider(std::size_t i) const {
    return static_cast<phone::LocationProvider>(provider_[i]);
  }
  double x_m(std::size_t i) const { return x_[i]; }
  double y_m(std::size_t i) const { return y_[i]; }
  double accuracy_m(std::size_t i) const { return accuracy_[i]; }
  std::string_view user(std::size_t i) const {
    return strings_[user_idx_[i]];
  }
  std::string_view model(std::size_t i) const {
    return strings_[model_idx_[i]];
  }
  /// Index into the interned-string table (strings()); rows sharing a
  /// model share the index, so per-model work can be memoized per entry.
  std::uint32_t model_index(std::size_t i) const { return model_idx_[i]; }
  /// The interned-string table (users and models, deduplicated).
  const std::string_view* strings() const { return strings_; }
  std::size_t string_count() const { return string_count_; }

  // --- Document materialization ---------------------------------------

  /// Rehydrates one row as a phone::Observation (tests, assim fallback).
  phone::Observation observation_at(std::size_t i) const;

  /// The batch as one wire document ({app, client, batch_id, sent_at,
  /// observations:[...]}), each observation laid out as
  /// phone::Observation::to_document() lays it out.
  Value to_batch_document() const;

  /// The document the server's document path hands the docstore for row
  /// `i` of to_batch_document(): the observation document plus app/
  /// client/received_at/delay_ms in the exact order that path appends
  /// them. Sized for exactly those fields and the _id the docstore adds.
  Value storage_document(std::size_t i, TimeMs received_at) const;

  /// Writes the value at `path` of row `i`'s storage document over `out`
  /// (into its string buffer, if it holds one) without building the
  /// document; false when the path is not a flat column. An optional
  /// column the row lacks ("span", "location" and its fields) sets null.
  bool index_value(std::string_view path, std::size_t i, TimeMs received_at,
                   Value& out) const;

 private:
  friend class BatchPool;
  friend std::shared_ptr<const ObsBatch> decode_batch(std::string_view bytes);
  ObsBatch() = default;

  /// A batch of `rows` rows over one exact-size block of `bytes`: the
  /// header and the interned `strings` are copied in, the columns carved
  /// out and left for the caller to fill.
  static std::shared_ptr<ObsBatch> allocate(
      std::string_view app, std::string_view client, std::string_view batch_id,
      TimeMs sent_at, std::size_t rows,
      const std::vector<std::string_view>& strings, std::size_t& bytes);

  /// Row `i`'s observation document (the to_document() byte layout),
  /// with room for `extra_fields` more fields and no spare capacity.
  Object observation_object(std::size_t i, std::size_t extra_fields) const;
  /// Row `i`'s "location" object, for a row with a fix.
  Value location_object(std::size_t i) const;

  std::unique_ptr<std::byte[]> block_;
  std::string_view app_, client_, batch_id_;
  TimeMs sent_at_ = 0;
  std::size_t count_ = 0;
  std::uint64_t* span_ids_ = nullptr;
  std::int64_t* captured_at_ = nullptr;
  double* spl_ = nullptr;
  std::uint8_t* mode_ = nullptr;
  std::uint8_t* activity_ = nullptr;
  std::uint8_t* has_location_ = nullptr;
  std::uint8_t* provider_ = nullptr;
  double* x_ = nullptr;
  double* y_ = nullptr;
  double* accuracy_ = nullptr;
  std::uint32_t* user_idx_ = nullptr;
  std::uint32_t* model_idx_ = nullptr;
  std::string_view* strings_ = nullptr;
  std::size_t string_count_ = 0;
};

/// Appends rows [first, first+count) of `batch` under its header, with
/// common/codec.h primitives: str app, str client, str batch_id,
/// i64 sent_at, u32 count, then per row u64 span, str user, str model,
/// i64 captured_at, f64 spl, u8 mode, u8 activity, u8 has_location and,
/// when located, u8 provider, f64 x, f64 y, f64 accuracy.
void encode_batch(const ObsBatch& batch, std::size_t first, std::size_t count,
                  std::string& out);

/// The batch encode_batch() wrote, counted by no pool: a validating pass
/// sizes its block and interns its strings as views of `bytes`, and a
/// fill pass writes the columns straight into the block. Hostile-input
/// safe: null on truncated input, trailing bytes, an out-of-range enum
/// byte or a row count the bytes cannot hold; no read passes the end of
/// `bytes`.
std::shared_ptr<const ObsBatch> decode_batch(std::string_view bytes);

/// Batch statistics (registered with the registry via set_metrics).
/// Every batch is one block, so blocks allocated = batches built.
struct BatchPoolStats {
  std::uint64_t blocks = 0;               ///< batch blocks allocated
  std::uint64_t largest_block_bytes = 0;  ///< size of the largest block
};

/// The one factory for ObsBatches: builds each as one exact-size block
/// and counts the blocks. Single-threaded, like everything inside the
/// simulation.
class BatchPool {
 public:
  /// Serializes `observations` into one flat batch. `batch_id` is the
  /// idempotency key the server dedups on (same convention as the
  /// document path: "<client>#<counter>").
  std::shared_ptr<const ObsBatch> make_batch(
      std::string_view app, std::string_view client, std::string_view batch_id,
      TimeMs sent_at, const std::vector<phone::Observation>& observations);

  const BatchPoolStats& stats() const { return stats_; }

  /// Registers the statistics with `registry`: the ingest.arena_created
  /// counter (blocks) and the ingest.arena_high_water_bytes gauge
  /// (largest_block_bytes). Pass nullptr to detach.
  void set_metrics(obs::Registry* registry);

 private:
  BatchPoolStats stats_;
  obs::Sources sources_;
};

}  // namespace mps::ingest
