// Observation-lifecycle tracing.
//
// An observation's life through the GoFlow pipeline is a fixed sequence of
// hops:
//
//   sensed -> buffered -> uploaded -> routed -> persisted -> assimilated
//
// (capture on the phone, client buffer admission, upload completion at the
// broker edge, broker routing into the ingest queue, document-store write,
// consumption by the assimilation cycle). A SpanTracker stamps each hop
// with the sim-clock time, so per-stage latency breakdowns — including the
// paper's Figure 17 capture-to-server delay CDF — and drop attribution
// (expired in buffer vs. expired in broker vs. rejected by server) all
// fall out of one structure.
//
// Span ids travel inside observation documents (the "span" field, written
// only for traced observations), which is how the client, server and
// assimilation cycle — separate components with no shared state — stamp
// the same record.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/types.h"
#include "obs/metrics.h"

namespace mps::obs {

/// Pipeline hops, in flow order.
enum class Hop {
  kSensed = 0,     ///< captured on the phone (captured_at)
  kBuffered,       ///< admitted to the client's upload buffer
  kUploaded,       ///< transfer completed at the broker edge
  kRouted,         ///< routed by the broker into the ingest queue
  kPersisted,      ///< written to the document store
  kAssimilated,    ///< consumed by an assimilation cycle step
};

inline constexpr std::size_t kHopCount = 6;

const char* hop_name(Hop h);

/// Where a traced observation left the pipeline without completing it.
enum class DropStage {
  kNone = 0,           ///< not dropped (so far)
  kNotShared,          ///< user opted out of sharing; never left the device
  kExpiredInBuffer,    ///< aged out of the client buffer
  kExpiredInBroker,    ///< queue TTL elapsed before consumption
  kOverflowInBroker,   ///< drop-head on a bounded queue
  kUnroutable,         ///< published but matched no queue
  kRejectedByServer,   ///< server discarded it (duplicate batch)
  kLostInServerCrash,  ///< in a pending batch when the server died unrecovered
  kLostInServerShutdown,  ///< in a pending batch at final server shutdown
};

inline constexpr std::size_t kDropStageCount = 9;

const char* drop_stage_name(DropStage s);

/// One observation's trace: a timestamp per hop plus drop attribution.
struct SpanRecord {
  /// Sentinel for a hop that has not been stamped.
  static constexpr TimeMs kUnstamped = -1;

  std::uint64_t id = 0;
  TimeMs hops[kHopCount] = {kUnstamped, kUnstamped, kUnstamped,
                            kUnstamped, kUnstamped, kUnstamped};
  DropStage dropped = DropStage::kNone;

  bool stamped(Hop h) const {
    return hops[static_cast<std::size_t>(h)] != kUnstamped;
  }
  TimeMs at(Hop h) const { return hops[static_cast<std::size_t>(h)]; }

  /// Delay between two stamped hops; kUnstamped when either is missing.
  DurationMs delay(Hop from, Hop to) const {
    if (!stamped(from) || !stamped(to)) return kUnstamped;
    return at(to) - at(from);
  }
};

/// Allocates and stamps spans. When constructed with a Registry, each
/// consecutive-hop latency feeds a `span.<from>_to_<to>_ms` histogram and
/// the tracker's own drop counts read as `span.dropped.<stage>` counters,
/// so the registry's /metrics export carries the per-stage breakdown for
/// free.
///
/// Memory is bounded: the tracker keeps at most `capacity` span records.
/// When a new span would exceed it, *closed* spans (dropped, or stamped
/// persisted — the pipeline's terminal durable hop) are retired FIFO from
/// the front; live ids stay contiguous in [first_id(), last_id()]. Open
/// (in-flight) spans are never evicted, so the window can transiently
/// exceed capacity under a burst of in-flight observations — loss
/// accounting is never sacrificed for the bound. Stamps arriving for an
/// already-retired id (e.g. a late assimilation pass) are ignored; the
/// cumulative registry counters still see them via `obs.spans_evicted`.
class SpanTracker {
 public:
  /// Default retained-span bound: generous enough that eviction only
  /// engages on deployment-scale runs (~a million in-flight lifecycles).
  static constexpr std::size_t kDefaultCapacity = 1u << 20;

  explicit SpanTracker(Registry* metrics = nullptr,
                       std::size_t capacity = kDefaultCapacity);

  /// Starts a span stamped kSensed at `sensed_at`; returns its id (> 0).
  std::uint64_t begin(TimeMs sensed_at);

  /// Stamps `hop` at `at`. Unknown/zero ids are ignored (payloads from
  /// untraced producers carry no span).
  void stamp(std::uint64_t id, Hop hop, TimeMs at);

  /// Marks the span dropped at `stage`. The first drop wins.
  void drop(std::uint64_t id, DropStage stage, TimeMs at);

  /// Live (retained) spans.
  std::size_t size() const { return spans_.size(); }
  /// Spans ever started, including retired ones.
  std::uint64_t total_started() const { return base_id_ + spans_.size() - 1; }
  /// Closed spans retired to honor the capacity bound.
  std::uint64_t evicted() const { return base_id_ - 1; }
  /// Smallest retained id; first_id() > last_id() when empty.
  std::uint64_t first_id() const { return base_id_; }
  /// Largest retained id (== total_started()).
  std::uint64_t last_id() const { return base_id_ + spans_.size() - 1; }

  /// Adjusts the retained-span bound (0 = unbounded). Shrinking takes
  /// effect as closed spans retire on subsequent begin() calls.
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }
  std::size_t capacity() const { return capacity_; }

  /// Null for unknown ids — including ids already retired.
  const SpanRecord* find(std::uint64_t id) const;

  /// Spans that reached `hop`.
  std::size_t count_through(Hop hop) const;

  /// Drop attribution: per-stage counts (kNone = still alive or complete).
  std::vector<std::pair<DropStage, std::uint64_t>> drop_counts() const;

  /// All (from -> to) delays in milliseconds across spans with both stamps.
  std::vector<double> hop_delays(Hop from, Hop to) const;

  /// Empirical CDF of (from -> to) delays — Figure 17 is
  /// delay_cdf(Hop::kSensed, Hop::kRouted).
  EmpiricalCdf delay_cdf(Hop from, Hop to) const;

  /// Drops all recorded spans (ids restart from 1).
  void clear();

 private:
  bool closed(const SpanRecord& r) const {
    return r.dropped != DropStage::kNone || r.stamped(Hop::kPersisted);
  }
  void retire_over_capacity();

  std::deque<SpanRecord> spans_;
  std::uint64_t base_id_ = 1;  ///< id of spans_.front()
  std::size_t capacity_ = kDefaultCapacity;
  /// Cumulative counts clear() keeps, registered as span.started,
  /// obs.spans_evicted and span.dropped.<stage>.
  struct Counts {
    std::uint64_t started = 0;
    std::uint64_t evicted = 0;
    std::uint64_t dropped[kDropStageCount] = {};
  };
  Counts counts_;
  // Hoisted histogram handles (hot path: one stamp per observation per hop).
  LatencyHistogram* hop_histograms_[kHopCount] = {};  // [h] = (h-1) -> h
  Sources sources_;
};

}  // namespace mps::obs
