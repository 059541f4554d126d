// In-process AMQP-model message broker (the RabbitMQ substitute).
//
// Implements the subset of the AMQP 0-9-1 model the GoFlow middleware
// relies on (paper §3.2, Figure 3):
//   - exchanges of type direct, fanout and topic;
//   - exchange-to-exchange bindings (client exchange -> app exchange ->
//     GoFlow exchange) and exchange-to-queue bindings with binding keys;
//   - queues with optional length limits (drop-head overflow, RabbitMQ's
//     default for bounded queues);
//   - push consumers (callbacks) and pull consumption (basic.get);
//   - routing statistics for the analytics component.
//
// The broker is deliberately synchronous and single-threaded: network
// latency, disconnection and buffering are modeled by mps::net and the
// GoFlow client, which decide *when* publish() is called in virtual time.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "broker/topic_trie.h"
#include "common/result.h"
#include "common/types.h"
#include "common/value.h"
#include "fault/fault.h"
#include "obs/metrics.h"

namespace mps::durable {
class Journal;
}

namespace mps::ingest {
class ObsBatch;
}

namespace mps::broker {

/// AMQP exchange types used by GoFlow.
enum class ExchangeType { kDirect, kFanout, kTopic };

const char* exchange_type_name(ExchangeType t);

/// A routed message. `payload` is the document published by the client;
/// `sequence` is a broker-global publish counter used for ordering
/// assertions in tests. Messages from the flat ingest fast path carry a
/// shared `flat` batch instead of a payload (DESIGN.md §13): push
/// consumers receive the view zero-copy, and a message that has to
/// buffer stays flat — brk.enq records and snapshots carry its columns
/// (ingest::encode_batch), and a restored message pops flat.
struct Message {
  std::string exchange;     ///< exchange it was published to
  std::string routing_key;
  Value payload;
  std::shared_ptr<const ingest::ObsBatch> flat;  ///< fast-path batch view
  std::uint64_t sequence = 0;
  TimeMs published_at = 0;  ///< virtual time supplied by the publisher
  bool redelivered = false; ///< true when requeued after a nack
};

/// Delivery handle returned by reliable consumption (pop_reliable): the
/// message plus the tag used to ack or nack it.
struct Delivery {
  Message message;
  std::uint64_t delivery_tag = 0;
};

/// Queue configuration.
struct QueueOptions {
  /// Maximum number of buffered messages; 0 = unbounded. On overflow the
  /// oldest message is dropped (drop-head).
  std::size_t max_length = 0;
  /// Per-message time-to-live relative to its published_at timestamp;
  /// 0 = never expires. Expired messages are discarded lazily when the
  /// queue is consumed or purged with a later `now`.
  DurationMs message_ttl = 0;
  /// Durable queue (AMQP durable + persistent delivery mode): with a
  /// journal attached, buffered messages are logged and survive a
  /// broker crash; recovery restores them flagged `redelivered`.
  /// Non-durable queues lose their buffered messages on crash.
  bool durable = false;
};

/// Outcome of a publish: how many queues received the message. routed == 0
/// reproduces RabbitMQ's "unroutable" case (message silently dropped
/// unless the publisher asked for mandatory semantics).
struct PublishResult {
  std::size_t queues_delivered = 0;
  std::uint64_t sequence = 0;
};

/// Identifies a push consumer for cancellation.
using ConsumerTag = std::uint64_t;

/// Why the broker discarded a message without delivering it.
enum class DropReason { kOverflow, kExpired, kUnroutable };

const char* drop_reason_name(DropReason r);

/// Aggregate broker counters.
struct BrokerStats {
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;   ///< message copies enqueued or pushed
  std::uint64_t unroutable = 0;  ///< publishes that reached no queue
  std::uint64_t dropped_overflow = 0;
  std::uint64_t expired = 0;     ///< messages dropped by queue TTL
  std::uint64_t consumed = 0;    ///< messages handed to consumers
  std::uint64_t route_cache_hits = 0;    ///< topic routes answered from LRU
  std::uint64_t route_cache_misses = 0;  ///< topic routes that walked the trie
};

/// Small LRU cache of routing-key -> matched binding indices for one topic
/// exchange. Cleared wholesale on any binding mutation (bind/unbind happen
/// at setup time; publishes dominate).
class RouteCache {
 public:
  explicit RouteCache(std::size_t capacity = 1024) : capacity_(capacity) {}

  /// Cached matches for `key`, or nullptr. A hit refreshes recency. The
  /// pointer is invalidated by the next put()/clear().
  const std::vector<std::uint32_t>* find(const std::string& key);
  void put(const std::string& key, const std::vector<std::uint32_t>& matches);
  void clear();
  std::size_t size() const { return map_.size(); }

 private:
  struct Entry {
    std::string key;
    std::vector<std::uint32_t> matches;
  };
  std::size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  // Keys view into the stable list nodes, so no string is stored twice.
  std::unordered_map<std::string_view, std::list<Entry>::iterator> map_;
};

/// The broker. All names are flat strings; GoFlow's channel management is
/// responsible for naming conventions (client ids, app ids, location ids).
class Broker {
 public:
  Broker() = default;
  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  // --- Management (the AMQP "channel" methods GoFlow calls) ------------

  /// Declares an exchange. Redeclaring with the same type is a no-op;
  /// with a different type it fails with kConflict (AMQP behaviour).
  Status declare_exchange(const std::string& name, ExchangeType type);

  /// Deletes an exchange and all bindings involving it.
  Status delete_exchange(const std::string& name);

  /// Declares a queue. Redeclaring keeps existing messages and options.
  Status declare_queue(const std::string& name, QueueOptions options = {});

  /// Deletes a queue; buffered messages are discarded.
  Status delete_queue(const std::string& name);

  /// Binds destination exchange `dst` to source exchange `src` with the
  /// given binding key (pattern for topic exchanges). Fails with kNotFound
  /// when either exchange is missing.
  Status bind_exchange(const std::string& src, const std::string& dst,
                       const std::string& binding_key);

  /// Binds `queue` to exchange `src`.
  Status bind_queue(const std::string& src, const std::string& queue,
                    const std::string& binding_key);

  /// Removes a previously created binding; kNotFound when absent.
  Status unbind_exchange(const std::string& src, const std::string& dst,
                         const std::string& binding_key);
  Status unbind_queue(const std::string& src, const std::string& queue,
                      const std::string& binding_key);

  bool has_exchange(const std::string& name) const;
  bool has_queue(const std::string& name) const;
  std::vector<std::string> exchange_names() const;
  std::vector<std::string> queue_names() const;

  // --- Messaging --------------------------------------------------------

  /// Publishes `payload` to `exchange` with `routing_key` at virtual time
  /// `now`. Returns kNotFound when the exchange is missing. Routing
  /// follows bindings transitively (exchange-to-exchange), with cycle
  /// protection; each matching queue receives one copy.
  Result<PublishResult> publish(const std::string& exchange,
                                const std::string& routing_key, Value payload,
                                TimeMs now = 0);

  /// Publishes a flat observation batch (zero-copy hand-off): identical
  /// routing, faults, admission and stats to publish(), but the Message
  /// carries the shared batch view instead of a Value payload. Consumers
  /// see Message::flat set and Message::payload null, whether the message
  /// was pushed or buffered first.
  Result<PublishResult> publish_flat(
      const std::string& exchange, const std::string& routing_key,
      std::shared_ptr<const ingest::ObsBatch> flat, TimeMs now = 0);

  /// Pull-consumes the oldest message from a queue (basic.get). When
  /// `now` is provided, messages whose TTL elapsed before `now` are
  /// discarded first (counted in stats().expired).
  std::optional<Message> pop(const std::string& queue);
  std::optional<Message> pop(const std::string& queue, TimeMs now);

  /// Reliable pull-consume (basic.get with manual acknowledgement): the
  /// message stays tracked as "unacked" until ack()/nack(). Unacked
  /// messages are not visible to other consumers; nack with requeue puts
  /// them back at the queue head flagged `redelivered` — AMQP's
  /// at-least-once contract.
  std::optional<Delivery> pop_reliable(const std::string& queue);

  /// Acknowledges a reliable delivery; the message is gone for good.
  Status ack(std::uint64_t delivery_tag);

  /// Rejects a reliable delivery. With `requeue`, the message returns to
  /// the head of its queue (marked redelivered); otherwise it is dropped.
  Status nack(std::uint64_t delivery_tag, bool requeue);

  /// Messages delivered but neither acked nor nacked yet.
  std::size_t unacked_count() const { return unacked_.size(); }

  /// Discards all buffered messages of a queue; returns how many.
  std::size_t purge_queue(const std::string& queue);

  /// Drops expired messages (TTL relative to `now`) from a queue;
  /// returns how many were dropped.
  std::size_t expire_messages(const std::string& queue, TimeMs now);

  /// Registers a push consumer on a queue: buffered messages are delivered
  /// immediately, subsequent publishes synchronously. Multiple consumers
  /// on one queue round-robin (AMQP competing consumers).
  Result<ConsumerTag> subscribe(const std::string& queue,
                                std::function<void(const Message&)> callback);

  /// Cancels a push consumer.
  Status unsubscribe(ConsumerTag tag);

  /// Number of buffered messages in a queue (0 for missing queues).
  std::size_t queue_depth(const std::string& queue) const;

  // --- Observability ----------------------------------------------------

  /// Cumulative counters since construction.
  const BrokerStats& stats() const { return stats_; }

  /// Registers the counters with `registry` under "broker.*" names
  /// (published, delivered, consumed, unroutable, dropped_overflow,
  /// expired, route_cache_hits/misses) and the exchange and queue counts
  /// as "broker.exchanges"/"broker.queues" gauges. Pass nullptr to detach.
  void set_metrics(obs::Registry* registry);

  /// Called for every message the broker discards (drop-head overflow,
  /// TTL expiry, unroutable publish), with the dropped message and the
  /// reason. Lets observability layers attribute per-observation drops
  /// without the broker knowing anything about payload schemas.
  using DropHook = std::function<void(const Message&, DropReason)>;
  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }

  // --- Admission control (edge backpressure, DESIGN.md §13) -----------
  //
  // A queue's admission gate is consulted BEFORE a publish routes
  // anywhere: if any target queue's gate refuses, the whole publish is
  // shed with kUnavailable — nothing delivered, no sequence burned —
  // exactly as if the broker applied per-channel flow control at the
  // edge. The publisher's existing retry/backoff machinery then re-sends
  // the same batch id, so the no-loss/no-dup invariants close through
  // server-side dedup. With no gates installed the publish path pays a
  // single empty-map check.

  /// Installs (or replaces) the admission gate for `queue`. The gate
  /// returns true to admit, false to shed.
  void set_admission_gate(const std::string& queue,
                          std::function<bool(TimeMs)> gate);
  /// Removes a queue's admission gate (no-op when absent).
  void clear_admission_gate(const std::string& queue);

  /// Arms fault injection: publish may be rejected (kBrokerPublish),
  /// routed-but-unconfirmed (kBrokerAckLost — the at-least-once dup
  /// pressure case), and pull-consumes may transiently return nothing
  /// (kBrokerConsume). Pass nullptr to disarm; when disarmed every check
  /// is a single null test.
  void arm_faults(fault::FaultPlan* plan);

  // --- Durability (DESIGN.md §11) -----------------------------------
  //
  // With a journal attached, every topology mutation is logged (the
  // clients of this broker do not redeclare on reconnect, so recovery
  // must rebuild exchanges/queues/bindings itself — a documented
  // divergence from AMQP, where declarations are client-driven), and
  // durable queues log buffered-message lifecycles: "brk.enq" when a
  // message buffers, "brk.deq" when it leaves for good (pop, ack,
  // nack-drop, TTL expiry, overflow, subscribe drain). A message held
  // unacked (pop_reliable) has no deq record yet, so a crash restores
  // it to its queue — AMQP's at-least-once contract. Plain pop() is
  // auto-ack: the deq is logged at pop time, so a crash right after
  // loses it (use pop_reliable when that matters).

  void attach_journal(durable::Journal* journal) { journal_ = journal; }

  /// Full broker state as one Value: topology, durable-queue messages
  /// (buffered + unacked, which conceptually still belong to their
  /// queue), and the sequence counter.
  Value durable_snapshot() const;
  /// Rebuilds from durable_snapshot() output (crash() first); compiled
  /// routing state is rebuilt immediately.
  void restore_snapshot(const Value& state);
  /// Re-applies one "brk.*" journal record without re-logging.
  void apply_journal_record(const Value& record);
  /// Post-recovery step: flags every buffered durable-queue message
  /// `redelivered` (consumers must treat them as possible duplicates).
  void finish_recovery();

  /// Models the process dying: exchanges, queues, consumers and unacked
  /// deliveries vanish. Sequence/tag counters, stats, metrics, the drop
  /// hook and armed faults survive (they belong to the simulation's
  /// observer, not the dead process); sequences stay monotonic across
  /// incarnations so recovered and new messages never collide.
  void crash();

 private:
  struct Binding {
    std::string key;
    std::string destination;  // exchange or queue name
    bool to_queue = false;
  };
  struct Exchange {
    ExchangeType type = ExchangeType::kTopic;
    std::vector<Binding> bindings;
    // Compiled routing state, kept in sync with `bindings` on every
    // mutation. `trie` serves topic exchanges, `direct` direct exchanges
    // (fanout needs nothing); `cache` memoizes trie walks per routing key.
    TopicTrie trie;
    std::unordered_map<std::string, std::vector<std::uint32_t>> direct;
    RouteCache cache;
  };
  struct Consumer {
    ConsumerTag tag;
    std::function<void(const Message&)> callback;
  };
  struct Queue {
    QueueOptions options;
    std::deque<Message> messages;
    std::vector<Consumer> consumers;
    std::size_t next_consumer = 0;  // round-robin cursor
  };

  /// Shared core of publish()/publish_flat().
  Result<PublishResult> publish_message(const std::string& exchange,
                                        const std::string& routing_key,
                                        Value payload,
                                        std::shared_ptr<const ingest::ObsBatch> flat,
                                        TimeMs now);
  void route(const std::string& exchange_name, const Message& message,
             std::vector<std::string>& visited, std::size_t& deliveries);
  /// Resolves the queues a (exchange, routing_key) publish would reach
  /// (transitively), for the admission pre-pass.
  void collect_queue_targets(const std::string& exchange_name,
                             const std::string& routing_key,
                             std::vector<std::string>& visited,
                             std::vector<std::string>& queues);
  void enqueue(const std::string& queue_name, Queue& q, const Message& message,
               std::size_t& deliveries);
  void log_record(Value record);
  /// Logs "brk.enq"/"brk.deq" when `q` is durable and a journal is
  /// attached.
  void log_enqueue(const std::string& queue_name, const Queue& q,
                   const Message& message);
  void log_dequeue(const std::string& queue_name, const Queue& q,
                   std::uint64_t sequence);
  /// Copies the bindings of `ex` matching `routing_key` into `out`
  /// (consumer callbacks may mutate the topology mid-delivery, so matches
  /// are resolved to copies before any delivery happens).
  void collect_matches(Exchange& ex, const std::string& routing_key,
                       std::vector<Binding>& out);
  /// Rebuilds `ex`'s compiled routing state from its bindings.
  void recompile(Exchange& ex);
  /// Incrementally compiles the binding at `index` (just appended).
  void compile_binding(Exchange& ex, std::uint32_t index);

  struct Unacked {
    std::string queue;
    Message message;
  };

  std::map<std::string, Exchange> exchanges_;
  std::map<std::string, Queue> queues_;
  std::map<ConsumerTag, std::string> consumer_queue_;
  std::map<std::uint64_t, Unacked> unacked_;
  std::uint64_t next_sequence_ = 1;
  std::uint64_t next_delivery_tag_ = 1;
  ConsumerTag next_tag_ = 1;
  fault::FaultPoint publish_fault_;
  fault::FaultPoint ack_lost_fault_;
  fault::FaultPoint consume_fault_;
  BrokerStats stats_;
  DropHook drop_hook_;
  /// Per-queue admission gates; empty in the default topology, so the
  /// publish hot path pays one empty() check. Cleared by crash() (flow
  /// control belongs to the dead process) and reinstalled by the server
  /// during recovery.
  std::map<std::string, std::function<bool(TimeMs)>> admission_gates_;
  durable::Journal* journal_ = nullptr;
  /// Trie-match scratch, reused across publishes (single-threaded; match
  /// results are copied into locals before any consumer callback runs).
  std::vector<std::uint32_t> match_scratch_;
  obs::Sources sources_;
};

}  // namespace mps::broker
