// Unified metrics registry: the middleware's measurement plane.
//
// Every headline result of the paper is a measurement of the middleware
// itself (delay CDFs, battery drain vs buffering, participation shares),
// so the reproduction needs a first-class way to observe itself. This
// module provides named counters, gauges and latency histograms behind a
// registry with snapshot/reset semantics and text + JSON exporters.
//
// One counter per fact: a component counts its own activity in its own
// fields (the stats() structs) and registers those fields, and the sizes
// it already holds, as read-time sources (obs::Sources). The registry
// sums every source of a name whenever it is read, so the hot path writes
// nothing but the component's own field. Counters that no component owns
// (bench layer timers, the exec pool's mirror_into) still increment the
// registry's Counter directly; histograms always live in the registry.
// No locks, no atomics: the middleware runs inside the single-threaded
// discrete-event simulation, like the docstore.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/value.h"

namespace mps::obs {

class Counter;
class Gauge;

namespace detail {
/// One counter field a component registered: owned by the component's
/// Sources, listed by the Counter it feeds. `counter` is null once the
/// registry is gone.
struct CounterLink {
  Counter* counter = nullptr;
  const std::uint64_t* field = nullptr;
  std::uint64_t base = 0;  ///< *field when attached or at the last reset
  std::size_t slot = 0;    ///< index in counter->links_
};
/// One size view a component registered, listed by its Gauge.
struct GaugeLink {
  Gauge* gauge = nullptr;
  std::function<double()> read;
  std::size_t slot = 0;  ///< index in gauge->links_
};
}  // namespace detail

/// Monotonic event counter: its own increments plus what every attached
/// source counted since it attached (or since the last reset()).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;
  ~Counter();

  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const;
  /// Zeroes what the counter reports; sources are rebased, never written.
  void reset();

 private:
  friend class Sources;
  /// Direct increments plus the final counts of detached sources.
  std::uint64_t value_ = 0;
  std::vector<detail::CounterLink*> links_;
};

/// Point-in-time numeric value (queue depths, RMS diagnostics, ...): the
/// value last set plus the sum of every attached view, so a size gauge
/// reads the total over the live instances that register it.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;
  ~Gauge();

  void set(double v) { value_ = v; }
  void add(double d) { value_ += d; }
  double value() const;
  /// Zeroes the set value; views keep reporting the live sizes.
  void reset() { value_ = 0.0; }

 private:
  friend class Sources;
  double value_ = 0.0;
  std::vector<detail::GaugeLink*> links_;
};

/// Fixed-bucket latency histogram over durations in milliseconds.
///
/// Buckets are defined by strictly increasing upper edges; a sample lands
/// in the first bucket whose edge is >= the sample, or in the implicit
/// overflow bucket past the last edge. The default edges are log-spaced
/// from 1 ms to 24 h — wide enough for both broker routing times and the
/// multi-hour store-and-forward delays of Figure 17.
class LatencyHistogram {
 public:
  LatencyHistogram() : LatencyHistogram(default_latency_edges_ms()) {}
  explicit LatencyHistogram(std::vector<double> edges);

  /// Records one duration sample (milliseconds).
  void observe(double ms);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

  std::size_t bucket_count() const { return counts_.size(); }
  /// Upper edge of bucket i; the last bucket's edge is +infinity.
  double bucket_edge(std::size_t i) const;
  std::uint64_t bucket(std::size_t i) const { return counts_[i]; }

  /// Approximate q-quantile (q in [0,1]) with linear interpolation inside
  /// the containing bucket. Samples in the overflow bucket report the last
  /// finite edge. Returns 0 when empty.
  double quantile(double q) const;

  void reset();

  /// The shared default edge set (log-spaced, 1 ms .. 24 h).
  static const std::vector<double>& default_latency_edges_ms();

 private:
  std::vector<double> edges_;            // strictly increasing upper edges
  std::vector<std::uint64_t> counts_;    // edges_.size() + 1 (overflow last)
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Point-in-time copy of one histogram, for exporters and dashboards.
struct HistogramSnapshot {
  std::vector<double> edges;
  std::vector<std::uint64_t> buckets;  ///< edges.size() + 1, overflow last
  std::uint64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Point-in-time copy of a whole registry. Entries are sorted by name so
/// exports are deterministic.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// Line-oriented text export, one metric per line:
  ///   counter broker.published 42
  ///   gauge docstore.documents 10
  ///   histogram client.delivery_delay_ms count=5 mean=24.6 p50=... p90=...
  std::string to_text() const;

  /// JSON export: {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  Value to_json() const;
};

/// Owns named metrics. Metric objects are created on first access (like
/// docstore collections) and stay valid for the registry's lifetime.
/// Reading a counter or gauge (value(), snapshot(), the exporters) sums
/// its sources at that moment.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The counter/gauge/histogram with this name, created if needed.
  /// Redundant `edges` on an existing histogram are ignored.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LatencyHistogram& histogram(const std::string& name);
  LatencyHistogram& histogram(const std::string& name,
                              std::vector<double> edges);

  bool has_counter(const std::string& name) const;
  bool has_gauge(const std::string& name) const;
  bool has_histogram(const std::string& name) const;

  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Copies the current values of every metric.
  MetricsSnapshot snapshot() const;

  /// Zeroes every counter, set gauge value and histogram (names and
  /// objects survive — held references stay valid). Counter sources are
  /// rebased, so no component state changes. The phase-delta primitive
  /// for benches.
  void reset();

  /// snapshot() followed by reset(), as one call.
  MetricsSnapshot snapshot_and_reset();

  std::string export_text() const { return snapshot().to_text(); }
  Value export_json() const { return snapshot().to_json(); }

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

/// The read-time sources one component registered with a registry:
/// counter fields it already maintains and sizes it already holds.
///
/// A counter source contributes what its field counted while attached.
/// Detaching — detach(), attaching again, or destroying the Sources —
/// folds that count into the registry's Counter, so totals never go
/// backwards; registry and component may be destroyed in either order. A
/// copy starts detached, because the registered addresses belong to the
/// original, and assigning to a Sources detaches it. Declare it after the
/// fields it reads, so it detaches before they are destroyed; a value
/// type assigned while attached declares it before its integer counters
/// instead, so the detach reads them before they are overwritten.
class Sources {
 public:
  Sources() = default;
  Sources(const Sources&) {}
  Sources& operator=(const Sources&) {
    detach();
    return *this;
  }
  ~Sources() { detach(); }

  /// Feeds `field` into counter `name` from its current value on. The
  /// field must keep its address and never decrease while attached.
  void counter(Registry& registry, const std::string& name,
               const std::uint64_t& field);

  /// Adds `read()` to gauge `name` on every read while attached.
  void gauge(Registry& registry, const std::string& name,
             std::function<double()> read);

  /// Detaches every source, folding the counters' counts into the
  /// registry (a no-op for a registry already destroyed).
  void detach();

 private:
  std::vector<std::unique_ptr<detail::CounterLink>> counters_;
  std::vector<std::unique_ptr<detail::GaugeLink>> gauges_;
};

}  // namespace mps::obs
