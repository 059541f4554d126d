#include "obs/metrics.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/strings.h"
#include "common/types.h"

namespace mps::obs {

namespace {

// Unlinks `link` from `links` in O(1): the last link takes its slot.
template <typename Link>
void unlink(std::vector<Link*>& links, Link* link) {
  Link* last = links.back();
  links[link->slot] = last;
  last->slot = link->slot;
  links.pop_back();
}

}  // namespace

// --- Counter, Gauge ---------------------------------------------------------

Counter::~Counter() {
  for (detail::CounterLink* link : links_) link->counter = nullptr;
}

std::uint64_t Counter::value() const {
  std::uint64_t total = value_;
  for (const detail::CounterLink* link : links_)
    total += *link->field - link->base;
  return total;
}

void Counter::reset() {
  value_ = 0;
  for (detail::CounterLink* link : links_) link->base = *link->field;
}

Gauge::~Gauge() {
  for (detail::GaugeLink* link : links_) link->gauge = nullptr;
}

double Gauge::value() const {
  double total = value_;
  for (const detail::GaugeLink* link : links_) total += link->read();
  return total;
}

// --- Sources ----------------------------------------------------------------

void Sources::counter(Registry& registry, const std::string& name,
                      const std::uint64_t& field) {
  Counter& c = registry.counter(name);
  auto link = std::make_unique<detail::CounterLink>(
      detail::CounterLink{&c, &field, field, c.links_.size()});
  c.links_.push_back(link.get());
  counters_.push_back(std::move(link));
}

void Sources::gauge(Registry& registry, const std::string& name,
                    std::function<double()> read) {
  Gauge& g = registry.gauge(name);
  auto link = std::make_unique<detail::GaugeLink>(
      detail::GaugeLink{&g, std::move(read), g.links_.size()});
  g.links_.push_back(link.get());
  gauges_.push_back(std::move(link));
}

void Sources::detach() {
  for (const auto& link : counters_) {
    if (link->counter == nullptr) continue;
    link->counter->value_ += *link->field - link->base;
    unlink(link->counter->links_, link.get());
  }
  for (const auto& link : gauges_)
    if (link->gauge != nullptr) unlink(link->gauge->links_, link.get());
  counters_.clear();
  gauges_.clear();
}

// --- LatencyHistogram -------------------------------------------------------

const std::vector<double>& LatencyHistogram::default_latency_edges_ms() {
  static const std::vector<double> kEdges = {
      1.0,
      5.0,
      10.0,
      50.0,
      100.0,
      500.0,
      static_cast<double>(seconds(1)),
      static_cast<double>(seconds(10)),
      static_cast<double>(minutes(1)),
      static_cast<double>(minutes(5)),
      static_cast<double>(minutes(15)),
      static_cast<double>(minutes(30)),
      static_cast<double>(hours(1)),
      static_cast<double>(hours(2)),
      static_cast<double>(hours(6)),
      static_cast<double>(hours(24)),
  };
  return kEdges;
}

LatencyHistogram::LatencyHistogram(std::vector<double> edges)
    : edges_(std::move(edges)) {
  if (edges_.empty())
    throw std::invalid_argument("LatencyHistogram: edges must be non-empty");
  for (std::size_t i = 1; i < edges_.size(); ++i)
    if (edges_[i] <= edges_[i - 1])
      throw std::invalid_argument(
          "LatencyHistogram: edges must be strictly increasing");
  counts_.assign(edges_.size() + 1, 0);
}

void LatencyHistogram::observe(double ms) {
  // Binary search over a handful of edges: the hot-path cost is a few
  // comparisons plus two adds.
  std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(edges_.begin(), edges_.end(), ms) - edges_.begin());
  ++counts_[bucket];
  ++count_;
  sum_ += ms;
}

double LatencyHistogram::bucket_edge(std::size_t i) const {
  if (i < edges_.size()) return edges_[i];
  return std::numeric_limits<double>::infinity();
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  double target = q * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    double before = static_cast<double>(seen);
    seen += counts_[i];
    if (static_cast<double>(seen) < target) continue;
    if (i >= edges_.size()) return edges_.back();  // overflow bucket
    double lo = i == 0 ? 0.0 : edges_[i - 1];
    double hi = edges_[i];
    double within = (target - before) / static_cast<double>(counts_[i]);
    return lo + within * (hi - lo);
  }
  return edges_.back();
}

void LatencyHistogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
}

// --- MetricsSnapshot --------------------------------------------------------

std::string MetricsSnapshot::to_text() const {
  std::string out;
  for (const auto& [name, value] : counters)
    out += "counter " + name + " " + std::to_string(value) + "\n";
  for (const auto& [name, value] : gauges)
    out += "gauge " + name + " " + format("%g", value) + "\n";
  for (const auto& [name, h] : histograms) {
    out += "histogram " + name + " count=" + std::to_string(h.count) +
           format(" mean=%.3f p50=%.3f p90=%.3f p99=%.3f", h.mean, h.p50,
                  h.p90, h.p99) +
           "\n";
  }
  return out;
}

Value MetricsSnapshot::to_json() const {
  Object counters_obj;
  for (const auto& [name, value] : counters)
    counters_obj.set(name, Value(static_cast<std::int64_t>(value)));
  Object gauges_obj;
  for (const auto& [name, value] : gauges) gauges_obj.set(name, Value(value));
  Object histograms_obj;
  for (const auto& [name, h] : histograms) {
    Array buckets;
    buckets.reserve(h.buckets.size());
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      Object bucket;
      // The overflow bucket's edge is +inf, which JSON cannot carry.
      if (i < h.edges.size())
        bucket.set("le", Value(h.edges[i]));
      else
        bucket.set("le", Value("+inf"));
      bucket.set("count", Value(static_cast<std::int64_t>(h.buckets[i])));
      buckets.push_back(Value(std::move(bucket)));
    }
    histograms_obj.set(
        name, Value(Object{{"count", Value(static_cast<std::int64_t>(h.count))},
                           {"sum", Value(h.sum)},
                           {"mean", Value(h.mean)},
                           {"p50", Value(h.p50)},
                           {"p90", Value(h.p90)},
                           {"p99", Value(h.p99)},
                           {"buckets", Value(std::move(buckets))}}));
  }
  return Value(Object{{"counters", Value(std::move(counters_obj))},
                      {"gauges", Value(std::move(gauges_obj))},
                      {"histograms", Value(std::move(histograms_obj))}});
}

// --- Registry ---------------------------------------------------------------

Counter& Registry::counter(const std::string& name) {
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  return *it->second;
}

Gauge& Registry::gauge(const std::string& name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  return *it->second;
}

LatencyHistogram& Registry::histogram(const std::string& name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(name, std::make_unique<LatencyHistogram>()).first;
  return *it->second;
}

LatencyHistogram& Registry::histogram(const std::string& name,
                                      std::vector<double> edges) {
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_
             .emplace(name,
                      std::make_unique<LatencyHistogram>(std::move(edges)))
             .first;
  return *it->second;
}

bool Registry::has_counter(const std::string& name) const {
  return counters_.count(name) > 0;
}
bool Registry::has_gauge(const std::string& name) const {
  return gauges_.count(name) > 0;
}
bool Registry::has_histogram(const std::string& name) const {
  return histograms_.count(name) > 0;
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_)
    snap.counters.emplace_back(name, c->value());
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) snap.gauges.emplace_back(name, g->value());
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.edges.assign(h->bucket_count() - 1, 0.0);
    for (std::size_t i = 0; i + 1 < h->bucket_count(); ++i)
      hs.edges[i] = h->bucket_edge(i);
    hs.buckets.assign(h->bucket_count(), 0);
    for (std::size_t i = 0; i < h->bucket_count(); ++i)
      hs.buckets[i] = h->bucket(i);
    hs.count = h->count();
    hs.sum = h->sum();
    hs.mean = h->mean();
    hs.p50 = h->quantile(0.5);
    hs.p90 = h->quantile(0.9);
    hs.p99 = h->quantile(0.99);
    snap.histograms.emplace_back(name, std::move(hs));
  }
  return snap;
}

void Registry::reset() {
  for (auto& [_, c] : counters_) c->reset();
  for (auto& [_, g] : gauges_) g->reset();
  for (auto& [_, h] : histograms_) h->reset();
}

MetricsSnapshot Registry::snapshot_and_reset() {
  MetricsSnapshot snap = snapshot();
  reset();
  return snap;
}

}  // namespace mps::obs
