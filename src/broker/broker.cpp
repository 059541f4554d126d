#include "broker/broker.h"

#include <algorithm>
#include <stdexcept>

#include "broker/topic.h"
#include "common/log.h"
#include "durable/journal.h"
#include "ingest/obs_batch.h"
#include "obs/flight_recorder.h"

namespace mps::broker {

namespace {

/// A message as brk.enq records and snapshots carry it: a flat batch as
/// its columns (`b`), a document as `p`.
Value message_to_value(const Message& m) {
  Object v{{"ex", Value(m.exchange)}, {"rk", Value(m.routing_key)}};
  if (m.flat != nullptr) {
    std::string columns;
    ingest::encode_batch(*m.flat, 0, m.flat->size(), columns);
    v.set("b", Value(std::move(columns)));
  } else {
    v.set("p", m.payload);
  }
  v.set("seq", Value(static_cast<std::int64_t>(m.sequence)));
  v.set("at", Value(static_cast<std::int64_t>(m.published_at)));
  return Value(std::move(v));
}

/// The message message_to_value() wrote; throws when `b` does not decode.
Message message_from_value(const Value& v) {
  Message m;
  if (const Value* columns = v.find("b")) {
    m.flat = ingest::decode_batch(columns->as_string());
    if (m.flat == nullptr) throw std::invalid_argument("message: bad columns");
  } else if (const Value* p = v.find("p")) {
    m.payload = *p;
  }
  m.exchange = v.get_string("ex");
  m.routing_key = v.get_string("rk");
  m.sequence = static_cast<std::uint64_t>(v.get_int("seq"));
  m.published_at = static_cast<TimeMs>(v.get_int("at"));
  return m;
}

}  // namespace

const char* exchange_type_name(ExchangeType t) {
  switch (t) {
    case ExchangeType::kDirect: return "direct";
    case ExchangeType::kFanout: return "fanout";
    case ExchangeType::kTopic: return "topic";
  }
  return "?";
}

const char* drop_reason_name(DropReason r) {
  switch (r) {
    case DropReason::kOverflow: return "overflow";
    case DropReason::kExpired: return "expired";
    case DropReason::kUnroutable: return "unroutable";
  }
  return "?";
}

const std::vector<std::uint32_t>* RouteCache::find(const std::string& key) {
  auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return &lru_.front().matches;
}

void RouteCache::put(const std::string& key,
                     const std::vector<std::uint32_t>& matches) {
  if (capacity_ == 0) return;
  auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->matches = matches;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (map_.size() >= capacity_) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
  }
  lru_.push_front(Entry{key, matches});
  map_.emplace(lru_.front().key, lru_.begin());
}

void RouteCache::clear() {
  map_.clear();
  lru_.clear();
}

void Broker::set_metrics(obs::Registry* registry) {
  sources_.detach();
  if (registry == nullptr) return;
  obs::Registry& r = *registry;
  sources_.counter(r, "broker.published", stats_.published);
  sources_.counter(r, "broker.delivered", stats_.delivered);
  sources_.counter(r, "broker.consumed", stats_.consumed);
  sources_.counter(r, "broker.unroutable", stats_.unroutable);
  sources_.counter(r, "broker.dropped_overflow", stats_.dropped_overflow);
  sources_.counter(r, "broker.expired", stats_.expired);
  sources_.counter(r, "broker.route_cache_hits", stats_.route_cache_hits);
  sources_.counter(r, "broker.route_cache_misses", stats_.route_cache_misses);
  sources_.gauge(r, "broker.exchanges",
                 [this] { return static_cast<double>(exchanges_.size()); });
  sources_.gauge(r, "broker.queues",
                 [this] { return static_cast<double>(queues_.size()); });
}

void Broker::arm_faults(fault::FaultPlan* plan) {
  using fault::FaultPoint;
  using fault::FaultSite;
  publish_fault_ = FaultPoint(plan, FaultSite::kBrokerPublish);
  ack_lost_fault_ = FaultPoint(plan, FaultSite::kBrokerAckLost);
  consume_fault_ = FaultPoint(plan, FaultSite::kBrokerConsume);
}

void Broker::log_record(Value record) {
  if (journal_ != nullptr) journal_->append(record);
}

void Broker::log_enqueue(const std::string& queue_name, const Queue& q,
                         const Message& message) {
  if (journal_ == nullptr || !q.options.durable) return;
  journal_->append(Value(Object{{"op", Value("brk.enq")},
                                {"q", Value(queue_name)},
                                {"m", message_to_value(message)}}));
}

void Broker::log_dequeue(const std::string& queue_name, const Queue& q,
                         std::uint64_t sequence) {
  if (journal_ == nullptr || !q.options.durable) return;
  journal_->append(
      Value(Object{{"op", Value("brk.deq")},
                   {"q", Value(queue_name)},
                   {"seq", Value(static_cast<std::int64_t>(sequence))}}));
}

Status Broker::declare_exchange(const std::string& name, ExchangeType type) {
  auto it = exchanges_.find(name);
  if (it != exchanges_.end()) {
    if (it->second.type != type)
      return err(ErrorCode::kConflict,
                 "exchange '" + name + "' exists with type " +
                     exchange_type_name(it->second.type));
    return {};
  }
  log_record(Value(Object{{"op", Value("brk.decl_ex")},
                          {"name", Value(name)},
                          {"type", Value(static_cast<std::int64_t>(type))}}));
  exchanges_[name].type = type;
  return {};
}

Status Broker::delete_exchange(const std::string& name) {
  if (exchanges_.count(name) == 0)
    return err(ErrorCode::kNotFound, "exchange '" + name + "' not found");
  log_record(
      Value(Object{{"op", Value("brk.del_ex")}, {"name", Value(name)}}));
  exchanges_.erase(name);
  // Remove bindings pointing at the deleted exchange.
  for (auto& [_, ex] : exchanges_) {
    if (std::erase_if(ex.bindings, [&](const Binding& b) {
          return !b.to_queue && b.destination == name;
        }) > 0)
      recompile(ex);
  }
  return {};
}

Status Broker::declare_queue(const std::string& name, QueueOptions options) {
  auto it = queues_.find(name);
  if (it != queues_.end()) return {};
  log_record(Value(Object{
      {"op", Value("brk.decl_q")},
      {"name", Value(name)},
      {"max_length", Value(static_cast<std::int64_t>(options.max_length))},
      {"ttl", Value(static_cast<std::int64_t>(options.message_ttl))},
      {"durable", Value(options.durable)}}));
  queues_[name].options = options;
  return {};
}

Status Broker::delete_queue(const std::string& name) {
  auto it = queues_.find(name);
  if (it == queues_.end())
    return err(ErrorCode::kNotFound, "queue '" + name + "' not found");
  // One record covers the queue and its buffered messages (replay of
  // brk.del_q discards them, so no per-message deq is needed).
  log_record(Value(Object{{"op", Value("brk.del_q")}, {"name", Value(name)}}));
  for (const Consumer& c : it->second.consumers) consumer_queue_.erase(c.tag);
  queues_.erase(it);
  for (auto& [_, ex] : exchanges_) {
    if (std::erase_if(ex.bindings, [&](const Binding& b) {
          return b.to_queue && b.destination == name;
        }) > 0)
      recompile(ex);
  }
  return {};
}

Status Broker::bind_exchange(const std::string& src, const std::string& dst,
                             const std::string& binding_key) {
  auto sit = exchanges_.find(src);
  if (sit == exchanges_.end())
    return err(ErrorCode::kNotFound, "source exchange '" + src + "' not found");
  if (exchanges_.count(dst) == 0)
    return err(ErrorCode::kNotFound,
               "destination exchange '" + dst + "' not found");
  if (!valid_binding_pattern(binding_key))
    return err(ErrorCode::kInvalidArgument,
               "invalid binding pattern '" + binding_key + "'");
  for (const Binding& b : sit->second.bindings)
    if (!b.to_queue && b.destination == dst && b.key == binding_key) return {};
  log_record(Value(Object{{"op", Value("brk.bind")},
                          {"src", Value(src)},
                          {"dst", Value(dst)},
                          {"key", Value(binding_key)},
                          {"to_queue", Value(false)}}));
  sit->second.bindings.push_back(Binding{binding_key, dst, false});
  compile_binding(sit->second,
                  static_cast<std::uint32_t>(sit->second.bindings.size() - 1));
  return {};
}

Status Broker::bind_queue(const std::string& src, const std::string& queue,
                          const std::string& binding_key) {
  auto sit = exchanges_.find(src);
  if (sit == exchanges_.end())
    return err(ErrorCode::kNotFound, "source exchange '" + src + "' not found");
  if (queues_.count(queue) == 0)
    return err(ErrorCode::kNotFound, "queue '" + queue + "' not found");
  if (!valid_binding_pattern(binding_key))
    return err(ErrorCode::kInvalidArgument,
               "invalid binding pattern '" + binding_key + "'");
  for (const Binding& b : sit->second.bindings)
    if (b.to_queue && b.destination == queue && b.key == binding_key) return {};
  log_record(Value(Object{{"op", Value("brk.bind")},
                          {"src", Value(src)},
                          {"dst", Value(queue)},
                          {"key", Value(binding_key)},
                          {"to_queue", Value(true)}}));
  sit->second.bindings.push_back(Binding{binding_key, queue, true});
  compile_binding(sit->second,
                  static_cast<std::uint32_t>(sit->second.bindings.size() - 1));
  return {};
}

Status Broker::unbind_exchange(const std::string& src, const std::string& dst,
                               const std::string& binding_key) {
  auto sit = exchanges_.find(src);
  if (sit == exchanges_.end())
    return err(ErrorCode::kNotFound, "source exchange '" + src + "' not found");
  auto& bindings = sit->second.bindings;
  auto it = std::find_if(bindings.begin(), bindings.end(), [&](const Binding& b) {
    return !b.to_queue && b.destination == dst && b.key == binding_key;
  });
  if (it == bindings.end())
    return err(ErrorCode::kNotFound, "binding not found");
  log_record(Value(Object{{"op", Value("brk.unbind")},
                          {"src", Value(src)},
                          {"dst", Value(dst)},
                          {"key", Value(binding_key)},
                          {"to_queue", Value(false)}}));
  bindings.erase(it);
  recompile(sit->second);
  return {};
}

Status Broker::unbind_queue(const std::string& src, const std::string& queue,
                            const std::string& binding_key) {
  auto sit = exchanges_.find(src);
  if (sit == exchanges_.end())
    return err(ErrorCode::kNotFound, "source exchange '" + src + "' not found");
  auto& bindings = sit->second.bindings;
  auto it = std::find_if(bindings.begin(), bindings.end(), [&](const Binding& b) {
    return b.to_queue && b.destination == queue && b.key == binding_key;
  });
  if (it == bindings.end())
    return err(ErrorCode::kNotFound, "binding not found");
  log_record(Value(Object{{"op", Value("brk.unbind")},
                          {"src", Value(src)},
                          {"dst", Value(queue)},
                          {"key", Value(binding_key)},
                          {"to_queue", Value(true)}}));
  bindings.erase(it);
  recompile(sit->second);
  return {};
}

bool Broker::has_exchange(const std::string& name) const {
  return exchanges_.count(name) > 0;
}

bool Broker::has_queue(const std::string& name) const {
  return queues_.count(name) > 0;
}

std::vector<std::string> Broker::exchange_names() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : exchanges_) out.push_back(name);
  return out;
}

std::vector<std::string> Broker::queue_names() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : queues_) out.push_back(name);
  return out;
}

void Broker::compile_binding(Exchange& ex, std::uint32_t index) {
  switch (ex.type) {
    case ExchangeType::kFanout:
      break;  // every binding matches; nothing to compile
    case ExchangeType::kDirect:
      ex.direct[ex.bindings[index].key].push_back(index);
      break;
    case ExchangeType::kTopic:
      ex.trie.add(ex.bindings[index].key, index);
      break;
  }
  ex.cache.clear();
}

void Broker::recompile(Exchange& ex) {
  ex.trie.clear();
  ex.direct.clear();
  ex.cache.clear();
  for (std::uint32_t i = 0; i < ex.bindings.size(); ++i)
    compile_binding(ex, i);
}

void Broker::collect_matches(Exchange& ex, const std::string& routing_key,
                             std::vector<Binding>& out) {
  switch (ex.type) {
    case ExchangeType::kFanout:
      out = ex.bindings;
      return;
    case ExchangeType::kDirect: {
      auto hit = ex.direct.find(routing_key);
      if (hit == ex.direct.end()) return;
      for (std::uint32_t i : hit->second) out.push_back(ex.bindings[i]);
      return;
    }
    case ExchangeType::kTopic: {
      if (const std::vector<std::uint32_t>* cached =
              ex.cache.find(routing_key)) {
        ++stats_.route_cache_hits;
        for (std::uint32_t i : *cached) out.push_back(ex.bindings[i]);
        return;
      }
      ++stats_.route_cache_misses;
      ex.trie.match(routing_key, match_scratch_);
      for (std::uint32_t i : match_scratch_) out.push_back(ex.bindings[i]);
      ex.cache.put(routing_key, match_scratch_);
      return;
    }
  }
}

void Broker::enqueue(const std::string& queue_name, Queue& q,
                     const Message& message, std::size_t& deliveries) {
  ++deliveries;
  ++stats_.delivered;
  if (!q.consumers.empty()) {
    // Push path: hand directly to the next consumer (round-robin). The
    // message never buffers, so durability is the consumer's problem —
    // GoFlow's ingest consumer journals its own state before returning.
    const Consumer& c = q.consumers[q.next_consumer % q.consumers.size()];
    q.next_consumer = (q.next_consumer + 1) % std::max<std::size_t>(q.consumers.size(), 1);
    ++stats_.consumed;
    c.callback(message);
    return;
  }
  // A buffered message keeps its form: a flat batch is journaled
  // (brk.enq) and snapshotted as its columns, and pops flat.
  log_enqueue(queue_name, q, message);
  q.messages.push_back(message);
  if (q.options.max_length > 0 && q.messages.size() > q.options.max_length) {
    Message dropped = std::move(q.messages.front());
    q.messages.pop_front();  // drop-head
    log_dequeue(queue_name, q, dropped.sequence);
    ++stats_.dropped_overflow;
    if (drop_hook_) drop_hook_(dropped, DropReason::kOverflow);
  }
}

void Broker::route(const std::string& exchange_name, const Message& message,
                   std::vector<std::string>& visited,
                   std::size_t& deliveries) {
  // Cycle protection for exchange-to-exchange forwarding.
  if (std::find(visited.begin(), visited.end(), exchange_name) != visited.end())
    return;
  visited.push_back(exchange_name);
  auto it = exchanges_.find(exchange_name);
  if (it == exchanges_.end()) return;
  // Resolve matches to copies before delivering: a consumer callback may
  // declare/bind and invalidate the bindings vector, trie and cache.
  std::vector<Binding> matched;
  collect_matches(it->second, message.routing_key, matched);
  for (const Binding& b : matched) {
    if (b.to_queue) {
      auto qit = queues_.find(b.destination);
      if (qit != queues_.end())
        enqueue(qit->first, qit->second, message, deliveries);
    } else {
      route(b.destination, message, visited, deliveries);
    }
  }
}

void Broker::collect_queue_targets(const std::string& exchange_name,
                                   const std::string& routing_key,
                                   std::vector<std::string>& visited,
                                   std::vector<std::string>& queues) {
  if (std::find(visited.begin(), visited.end(), exchange_name) != visited.end())
    return;
  visited.push_back(exchange_name);
  auto it = exchanges_.find(exchange_name);
  if (it == exchanges_.end()) return;
  std::vector<Binding> matched;
  collect_matches(it->second, routing_key, matched);
  for (const Binding& b : matched) {
    if (b.to_queue)
      queues.push_back(b.destination);
    else
      collect_queue_targets(b.destination, routing_key, visited, queues);
  }
}

void Broker::set_admission_gate(const std::string& queue,
                                std::function<bool(TimeMs)> gate) {
  admission_gates_[queue] = std::move(gate);
}

void Broker::clear_admission_gate(const std::string& queue) {
  admission_gates_.erase(queue);
}

Result<PublishResult> Broker::publish(const std::string& exchange,
                                      const std::string& routing_key,
                                      Value payload, TimeMs now) {
  return publish_message(exchange, routing_key, std::move(payload), nullptr,
                         now);
}

Result<PublishResult> Broker::publish_flat(
    const std::string& exchange, const std::string& routing_key,
    std::shared_ptr<const ingest::ObsBatch> flat, TimeMs now) {
  return publish_message(exchange, routing_key, Value(), std::move(flat), now);
}

Result<PublishResult> Broker::publish_message(
    const std::string& exchange, const std::string& routing_key, Value payload,
    std::shared_ptr<const ingest::ObsBatch> flat, TimeMs now) {
  if (exchanges_.count(exchange) == 0)
    return err(ErrorCode::kNotFound, "exchange '" + exchange + "' not found");
  if (!valid_routing_key(routing_key))
    return err(ErrorCode::kInvalidArgument, "routing key too long");
  // Injected rejection: the broker refuses the publish outright. Nothing
  // is routed and no sequence number is burned, exactly as if the TCP
  // connection died before basic.publish reached the broker.
  if (publish_fault_.should_fail(now)) {
    obs::FlightRecorder::record(obs::FrEvent::kBrokerReject, 0, 0, now);
    return err(ErrorCode::kUnavailable, "injected fault: publish rejected");
  }
  // Admission pre-pass: if any target queue's gate sheds, nothing is
  // routed and no sequence is burned — the publisher's retry/backoff
  // resends the same batch id, and server dedup closes no-dup.
  if (!admission_gates_.empty()) {
    std::vector<std::string> visited;
    std::vector<std::string> targets;
    collect_queue_targets(exchange, routing_key, visited, targets);
    for (const std::string& queue : targets) {
      auto git = admission_gates_.find(queue);
      if (git != admission_gates_.end() && !git->second(now)) {
        obs::FlightRecorder::record(obs::FrEvent::kBrokerReject, 2, 0, now);
        return err(ErrorCode::kUnavailable, "admission control: publish shed");
      }
    }
  }
  Message message;
  message.exchange = exchange;
  message.routing_key = routing_key;
  message.payload = std::move(payload);
  message.flat = std::move(flat);
  message.sequence = next_sequence_++;
  message.published_at = now;
  ++stats_.published;
  std::size_t deliveries = 0;
  std::vector<std::string> visited;
  route(exchange, message, visited, deliveries);
  if (deliveries == 0) {
    ++stats_.unroutable;
    if (drop_hook_) drop_hook_(message, DropReason::kUnroutable);
  }
  // Injected lost confirm: the message WAS routed, but the publisher
  // never learns it — it sees an error and will retry, pushing a
  // duplicate through the at-least-once boundary. This is the fault that
  // exercises server-side idempotent dedup.
  obs::FlightRecorder::record(obs::FrEvent::kBrokerPublish, message.sequence,
                              deliveries, now);
  if (ack_lost_fault_.should_fail(now)) {
    obs::FlightRecorder::record(obs::FrEvent::kBrokerReject, 1, 0, now);
    return err(ErrorCode::kUnavailable, "injected fault: publish confirm lost");
  }
  return PublishResult{deliveries, message.sequence};
}

std::optional<Message> Broker::pop(const std::string& queue) {
  auto it = queues_.find(queue);
  if (it == queues_.end() || it->second.messages.empty()) return std::nullopt;
  // Injected consume stall: basic.get returns empty although the queue
  // has messages. The message stays queued — delayed, never lost.
  if (consume_fault_.should_fail()) return std::nullopt;
  Message m = std::move(it->second.messages.front());
  it->second.messages.pop_front();
  // basic.get with auto-ack: the message is gone for good at pop time.
  log_dequeue(queue, it->second, m.sequence);
  ++stats_.consumed;
  return m;
}

std::optional<Message> Broker::pop(const std::string& queue, TimeMs now) {
  expire_messages(queue, now);
  return pop(queue);
}

std::optional<Delivery> Broker::pop_reliable(const std::string& queue) {
  auto it = queues_.find(queue);
  if (it == queues_.end() || it->second.messages.empty()) return std::nullopt;
  if (consume_fault_.should_fail()) return std::nullopt;
  Delivery delivery;
  delivery.message = std::move(it->second.messages.front());
  it->second.messages.pop_front();
  delivery.delivery_tag = next_delivery_tag_++;
  unacked_[delivery.delivery_tag] = Unacked{queue, delivery.message};
  ++stats_.consumed;
  return delivery;
}

Status Broker::ack(std::uint64_t delivery_tag) {
  auto it = unacked_.find(delivery_tag);
  if (it == unacked_.end())
    return err(ErrorCode::kNotFound, "unknown delivery tag");
  // The enq record has had no matching deq until now (the unacked
  // message would be restored to its queue by a crash); the ack is the
  // moment it leaves durably.
  auto qit = queues_.find(it->second.queue);
  if (qit != queues_.end())
    log_dequeue(it->second.queue, qit->second, it->second.message.sequence);
  unacked_.erase(it);
  return {};
}

Status Broker::nack(std::uint64_t delivery_tag, bool requeue) {
  auto it = unacked_.find(delivery_tag);
  if (it == unacked_.end())
    return err(ErrorCode::kNotFound, "unknown delivery tag");
  if (requeue) {
    auto qit = queues_.find(it->second.queue);
    if (qit != queues_.end()) {
      // No journal record: the enq record still stands, which is
      // exactly "back in the queue" (recovery flags redelivery anyway).
      Message message = std::move(it->second.message);
      message.redelivered = true;
      qit->second.messages.push_front(std::move(message));
    }
  } else {
    auto qit = queues_.find(it->second.queue);
    if (qit != queues_.end())
      log_dequeue(it->second.queue, qit->second, it->second.message.sequence);
  }
  unacked_.erase(it);
  return {};
}

std::size_t Broker::purge_queue(const std::string& queue) {
  auto it = queues_.find(queue);
  if (it == queues_.end()) return 0;
  std::size_t n = it->second.messages.size();
  if (n > 0 && it->second.options.durable)
    log_record(
        Value(Object{{"op", Value("brk.purge")}, {"q", Value(queue)}}));
  it->second.messages.clear();
  return n;
}

std::size_t Broker::expire_messages(const std::string& queue, TimeMs now) {
  auto it = queues_.find(queue);
  if (it == queues_.end()) return 0;
  Queue& q = it->second;
  if (q.options.message_ttl <= 0) return 0;
  std::size_t dropped = 0;
  // Messages are FIFO by published_at from any single producer, but
  // cross-producer order is by delivery; scan from the head while
  // expired (the common case: a stale backlog).
  while (!q.messages.empty() &&
         q.messages.front().published_at + q.options.message_ttl <= now) {
    Message expired = std::move(q.messages.front());
    q.messages.pop_front();
    log_dequeue(queue, q, expired.sequence);
    ++dropped;
    if (drop_hook_) drop_hook_(expired, DropReason::kExpired);
  }
  stats_.expired += dropped;
  return dropped;
}

Result<ConsumerTag> Broker::subscribe(
    const std::string& queue, std::function<void(const Message&)> callback) {
  auto it = queues_.find(queue);
  if (it == queues_.end())
    return err(ErrorCode::kNotFound, "queue '" + queue + "' not found");
  ConsumerTag tag = next_tag_++;
  it->second.consumers.push_back(Consumer{tag, std::move(callback)});
  consumer_queue_[tag] = queue;
  // Drain anything buffered before the consumer arrived. Each drained
  // message is consumed for good (push delivery is auto-ack), so its
  // deq is logged before the callback runs — the callback is expected
  // to journal its own resulting state (log-before-apply end to end).
  Queue& q = it->second;
  while (!q.messages.empty()) {
    Message m = std::move(q.messages.front());
    q.messages.pop_front();
    log_dequeue(queue, q, m.sequence);
    ++stats_.consumed;
    q.consumers.back().callback(m);
  }
  return tag;
}

Status Broker::unsubscribe(ConsumerTag tag) {
  auto it = consumer_queue_.find(tag);
  if (it == consumer_queue_.end())
    return err(ErrorCode::kNotFound, "consumer not found");
  auto qit = queues_.find(it->second);
  if (qit != queues_.end()) {
    std::erase_if(qit->second.consumers,
                  [&](const Consumer& c) { return c.tag == tag; });
    qit->second.next_consumer = 0;
  }
  consumer_queue_.erase(it);
  return {};
}

std::size_t Broker::queue_depth(const std::string& queue) const {
  auto it = queues_.find(queue);
  return it == queues_.end() ? 0 : it->second.messages.size();
}

Value Broker::durable_snapshot() const {
  Array exchanges;
  for (const auto& [name, ex] : exchanges_) {
    Array bindings;
    for (const Binding& b : ex.bindings)
      bindings.push_back(Value(Object{{"key", Value(b.key)},
                                      {"dst", Value(b.destination)},
                                      {"to_queue", Value(b.to_queue)}}));
    exchanges.push_back(
        Value(Object{{"name", Value(name)},
                     {"type", Value(static_cast<std::int64_t>(ex.type))},
                     {"bindings", Value(std::move(bindings))}}));
  }
  Array queues;
  for (const auto& [name, q] : queues_) {
    Object qo{{"name", Value(name)},
              {"max_length",
               Value(static_cast<std::int64_t>(q.options.max_length))},
              {"ttl", Value(static_cast<std::int64_t>(q.options.message_ttl))},
              {"durable", Value(q.options.durable)}};
    if (q.options.durable) {
      // Unacked deliveries still belong to their queue (a crash would
      // requeue them); snapshot them ahead of the buffered backlog, in
      // delivery order (tag order).
      Array messages;
      for (const auto& [tag, u] : unacked_)
        if (u.queue == name) messages.push_back(message_to_value(u.message));
      for (const Message& m : q.messages)
        messages.push_back(message_to_value(m));
      qo.set("messages", Value(std::move(messages)));
    }
    queues.push_back(Value(std::move(qo)));
  }
  return Value(Object{
      {"exchanges", Value(std::move(exchanges))},
      {"queues", Value(std::move(queues))},
      {"next_sequence", Value(static_cast<std::int64_t>(next_sequence_))}});
}

void Broker::restore_snapshot(const Value& state) {
  if (const Value* exchanges = state.find("exchanges")) {
    for (const Value& exv : exchanges->as_array()) {
      Exchange& ex = exchanges_[exv.get_string("name")];
      ex.type = static_cast<ExchangeType>(exv.get_int("type"));
      if (const Value* bindings = exv.find("bindings"))
        for (const Value& bv : bindings->as_array())
          ex.bindings.push_back(Binding{bv.get_string("key"),
                                        bv.get_string("dst"),
                                        bv.get_bool("to_queue")});
      recompile(ex);
    }
  }
  if (const Value* queues = state.find("queues")) {
    for (const Value& qv : queues->as_array()) {
      Queue& q = queues_[qv.get_string("name")];
      q.options.max_length =
          static_cast<std::size_t>(qv.get_int("max_length"));
      q.options.message_ttl = static_cast<DurationMs>(qv.get_int("ttl"));
      q.options.durable = qv.get_bool("durable");
      if (const Value* messages = qv.find("messages"))
        for (const Value& mv : messages->as_array())
          q.messages.push_back(message_from_value(mv));
    }
  }
  std::uint64_t seq =
      static_cast<std::uint64_t>(state.get_int("next_sequence"));
  next_sequence_ = std::max(next_sequence_, seq);
}

void Broker::apply_journal_record(const Value& record) {
  // Replay through the public methods with journaling suppressed, so
  // the apply path and the original path share one implementation.
  durable::Journal* saved = journal_;
  journal_ = nullptr;
  const std::string op = record.get_string("op");
  if (op == "brk.decl_ex") {
    declare_exchange(record.get_string("name"),
                     static_cast<ExchangeType>(record.get_int("type")));
  } else if (op == "brk.del_ex") {
    delete_exchange(record.get_string("name"));
  } else if (op == "brk.decl_q") {
    QueueOptions options;
    options.max_length = static_cast<std::size_t>(record.get_int("max_length"));
    options.message_ttl = static_cast<DurationMs>(record.get_int("ttl"));
    options.durable = record.get_bool("durable");
    declare_queue(record.get_string("name"), options);
  } else if (op == "brk.del_q") {
    delete_queue(record.get_string("name"));
  } else if (op == "brk.bind") {
    if (record.get_bool("to_queue"))
      bind_queue(record.get_string("src"), record.get_string("dst"),
                 record.get_string("key"));
    else
      bind_exchange(record.get_string("src"), record.get_string("dst"),
                    record.get_string("key"));
  } else if (op == "brk.unbind") {
    if (record.get_bool("to_queue"))
      unbind_queue(record.get_string("src"), record.get_string("dst"),
                   record.get_string("key"));
    else
      unbind_exchange(record.get_string("src"), record.get_string("dst"),
                      record.get_string("key"));
  } else if (op == "brk.enq") {
    auto it = queues_.find(record.get_string("q"));
    if (it != queues_.end() && record.find("m") != nullptr) {
      Message m = message_from_value(record.at("m"));
      next_sequence_ = std::max(next_sequence_, m.sequence + 1);
      it->second.messages.push_back(std::move(m));
    }
  } else if (op == "brk.deq") {
    auto it = queues_.find(record.get_string("q"));
    if (it != queues_.end()) {
      std::uint64_t seq = static_cast<std::uint64_t>(record.get_int("seq"));
      auto& messages = it->second.messages;
      for (auto mit = messages.begin(); mit != messages.end(); ++mit)
        if (mit->sequence == seq) {
          messages.erase(mit);
          break;
        }
    }
  } else if (op == "brk.purge") {
    auto it = queues_.find(record.get_string("q"));
    if (it != queues_.end()) it->second.messages.clear();
  }
  journal_ = saved;
}

void Broker::finish_recovery() {
  for (auto& [name, q] : queues_) {
    if (!q.options.durable) continue;
    for (Message& m : q.messages) m.redelivered = true;
  }
}

void Broker::crash() {
  exchanges_.clear();
  queues_.clear();
  consumer_queue_.clear();
  unacked_.clear();
  // Admission gates belong to the dead process's flow control; the
  // server reinstalls its gate during recovery.
  admission_gates_.clear();
}

}  // namespace mps::broker
