#include "obs/span.h"

namespace mps::obs {

const char* hop_name(Hop h) {
  switch (h) {
    case Hop::kSensed: return "sensed";
    case Hop::kBuffered: return "buffered";
    case Hop::kUploaded: return "uploaded";
    case Hop::kRouted: return "routed";
    case Hop::kPersisted: return "persisted";
    case Hop::kAssimilated: return "assimilated";
  }
  return "?";
}

const char* drop_stage_name(DropStage s) {
  switch (s) {
    case DropStage::kNone: return "none";
    case DropStage::kNotShared: return "not_shared";
    case DropStage::kExpiredInBuffer: return "expired_in_buffer";
    case DropStage::kExpiredInBroker: return "expired_in_broker";
    case DropStage::kOverflowInBroker: return "overflow_in_broker";
    case DropStage::kUnroutable: return "unroutable";
    case DropStage::kRejectedByServer: return "rejected_by_server";
    case DropStage::kLostInServerCrash: return "lost_in_server_crash";
    case DropStage::kLostInServerShutdown: return "lost_in_server_shutdown";
  }
  return "?";
}

SpanTracker::SpanTracker(Registry* metrics, std::size_t capacity)
    : capacity_(capacity) {
  if (metrics == nullptr) return;
  sources_.counter(*metrics, "span.started", counts_.started);
  sources_.counter(*metrics, "obs.spans_evicted", counts_.evicted);
  for (std::size_t s = 1; s < kDropStageCount; ++s)
    sources_.counter(*metrics,
                     std::string("span.dropped.") +
                         drop_stage_name(static_cast<DropStage>(s)),
                     counts_.dropped[s]);
  for (std::size_t h = 1; h < kHopCount; ++h)
    hop_histograms_[h] = &metrics->histogram(
        std::string("span.") + hop_name(static_cast<Hop>(h - 1)) + "_to_" +
        hop_name(static_cast<Hop>(h)) + "_ms");
}

void SpanTracker::retire_over_capacity() {
  while (capacity_ != 0 && spans_.size() > capacity_ &&
         closed(spans_.front())) {
    spans_.pop_front();
    ++base_id_;
    ++counts_.evicted;
  }
}

std::uint64_t SpanTracker::begin(TimeMs sensed_at) {
  SpanRecord record;
  record.id = base_id_ + spans_.size();
  record.hops[static_cast<std::size_t>(Hop::kSensed)] = sensed_at;
  spans_.push_back(record);
  retire_over_capacity();
  ++counts_.started;
  return record.id;
}

void SpanTracker::stamp(std::uint64_t id, Hop hop, TimeMs at) {
  if (id < base_id_ || id >= base_id_ + spans_.size()) return;
  SpanRecord& record = spans_[id - base_id_];
  std::size_t h = static_cast<std::size_t>(hop);
  record.hops[h] = at;
  if (h > 0 && hop_histograms_[h] != nullptr &&
      record.hops[h - 1] != SpanRecord::kUnstamped) {
    hop_histograms_[h]->observe(
        static_cast<double>(at - record.hops[h - 1]));
  }
}

void SpanTracker::drop(std::uint64_t id, DropStage stage, TimeMs at) {
  (void)at;  // attribution is by stage; the hop stamps carry the times
  if (id < base_id_ || id >= base_id_ + spans_.size() ||
      stage == DropStage::kNone)
    return;
  SpanRecord& record = spans_[id - base_id_];
  if (record.dropped != DropStage::kNone) return;  // first drop wins
  record.dropped = stage;
  ++counts_.dropped[static_cast<std::size_t>(stage)];
}

const SpanRecord* SpanTracker::find(std::uint64_t id) const {
  if (id < base_id_ || id >= base_id_ + spans_.size()) return nullptr;
  return &spans_[id - base_id_];
}

std::size_t SpanTracker::count_through(Hop hop) const {
  std::size_t n = 0;
  for (const SpanRecord& record : spans_)
    if (record.stamped(hop)) ++n;
  return n;
}

std::vector<std::pair<DropStage, std::uint64_t>> SpanTracker::drop_counts()
    const {
  std::uint64_t counts[kDropStageCount] = {};
  for (const SpanRecord& record : spans_)
    ++counts[static_cast<std::size_t>(record.dropped)];
  std::vector<std::pair<DropStage, std::uint64_t>> out;
  for (std::size_t s = 0; s < kDropStageCount; ++s)
    if (counts[s] > 0) out.emplace_back(static_cast<DropStage>(s), counts[s]);
  return out;
}

std::vector<double> SpanTracker::hop_delays(Hop from, Hop to) const {
  std::vector<double> out;
  for (const SpanRecord& record : spans_) {
    DurationMs d = record.delay(from, to);
    if (d != SpanRecord::kUnstamped) out.push_back(static_cast<double>(d));
  }
  return out;
}

EmpiricalCdf SpanTracker::delay_cdf(Hop from, Hop to) const {
  EmpiricalCdf cdf;
  cdf.add_all(hop_delays(from, to));
  return cdf;
}

void SpanTracker::clear() {
  spans_.clear();
  base_id_ = 1;
}

}  // namespace mps::obs
