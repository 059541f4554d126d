#include "fault/fault.h"

#include <algorithm>
#include <cmath>

#include "obs/flight_recorder.h"

namespace mps::fault {

const char* fault_site_name(FaultSite s) {
  switch (s) {
    case FaultSite::kBrokerPublish:
      return "broker_publish";
    case FaultSite::kBrokerAckLost:
      return "broker_ack_lost";
    case FaultSite::kBrokerConsume:
      return "broker_consume";
    case FaultSite::kDocstoreInsert:
      return "docstore_insert";
    case FaultSite::kDocstoreUpdate:
      return "docstore_update";
    case FaultSite::kClientCrash:
      return "client_crash";
    case FaultSite::kNetFlap:
      return "net_flap";
    case FaultSite::kAssimStall:
      return "assim_stall";
    case FaultSite::kSensorFail:
      return "sensor_fail";
    case FaultSite::kAdmissionShed:
      return "admission_shed";
    case FaultSite::kNetDropConn:
      return "net_drop_conn";
    case FaultSite::kNetTruncateFrame:
      return "net_truncate_frame";
  }
  return "unknown";
}

FaultPlan::FaultPlan(std::uint64_t seed) : seed_(seed) {
  // Each site gets a private stream so adding consultations at one site
  // never perturbs the decisions seen by another.
  Rng root(seed);
  for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
    sites_[i].rng =
        root.child(fault_site_name(static_cast<FaultSite>(i)));
  }
}

void FaultPlan::set_probability(FaultSite site, double p) {
  sites_[static_cast<std::size_t>(site)].probability =
      std::clamp(p, 0.0, 1.0);
}

double FaultPlan::probability(FaultSite site) const {
  return sites_[static_cast<std::size_t>(site)].probability;
}

void FaultPlan::add_window(FaultSite site, TimeMs from, TimeMs until) {
  if (until <= from) return;
  sites_[static_cast<std::size_t>(site)].windows.emplace_back(from, until);
}

void FaultPlan::fail_next(FaultSite site, std::uint64_t n) {
  sites_[static_cast<std::size_t>(site)].fail_next += n;
}

bool FaultPlan::decide(FaultSite site, bool have_now, TimeMs now) {
  auto idx = static_cast<std::size_t>(site);
  Site& s = sites_[idx];
  ++checked_[idx];

  bool fail = false;
  if (s.fail_next > 0) {
    --s.fail_next;
    fail = true;
  }
  if (!fail && !s.windows.empty()) {
    if (!have_now && clock_) {
      now = clock_();
      have_now = true;
    }
    if (have_now) {
      for (const auto& [from, until] : s.windows) {
        if (now >= from && now < until) {
          fail = true;
          break;
        }
      }
    }
  }
  // The Bernoulli draw happens unconditionally so the decision stream is
  // a pure function of (seed, consultation index) — scripting a window
  // on top of a probabilistic profile does not reshuffle later draws.
  bool coin = s.rng.bernoulli(s.probability);
  fail = fail || coin;

  if (fail) {
    ++injected_[idx];
    obs::FlightRecorder::record(obs::FrEvent::kFaultInject, idx,
                                injected_[idx], have_now ? now : -1);
  }
  return fail;
}

bool FaultPlan::should_fail(FaultSite site) {
  return decide(site, /*have_now=*/false, 0);
}

bool FaultPlan::should_fail(FaultSite site, TimeMs now) {
  return decide(site, /*have_now=*/true, now);
}

std::vector<FaultPlan::CrashEvent> FaultPlan::crash_schedule(
    std::string_view device, TimeMs horizon) const {
  std::vector<CrashEvent> events;
  if (crash_rate_per_day <= 0.0 || horizon <= 0) return events;
  Rng rng = Rng(seed_).child("crash").child(fnv1a64(device));
  // Poisson arrivals: exponential inter-crash gaps with the configured
  // daily rate. A crash during another crash's downtime is meaningless,
  // so arrivals resume after the previous downtime ends.
  double mean_gap_ms = static_cast<double>(days(1)) / crash_rate_per_day;
  TimeMs t = 0;
  while (true) {
    t += static_cast<TimeMs>(std::max(1.0, rng.exponential_mean(mean_gap_ms)));
    if (t >= horizon) break;
    auto down = static_cast<DurationMs>(std::max(
        1.0, rng.exponential_mean(static_cast<double>(crash_downtime_mean))));
    events.push_back({t, down});
    t += down;
  }
  return events;
}

std::vector<std::pair<TimeMs, TimeMs>> FaultPlan::flap_windows(
    std::string_view device, TimeMs horizon) const {
  std::vector<std::pair<TimeMs, TimeMs>> windows;
  if (flap_rate_per_day <= 0.0 || horizon <= 0) return windows;
  Rng rng = Rng(seed_).child("flap").child(fnv1a64(device));
  double mean_gap_ms = static_cast<double>(days(1)) / flap_rate_per_day;
  TimeMs t = 0;
  while (true) {
    t += static_cast<TimeMs>(std::max(1.0, rng.exponential_mean(mean_gap_ms)));
    if (t >= horizon) break;
    auto len = static_cast<DurationMs>(std::max(
        1.0, rng.exponential_mean(static_cast<double>(flap_duration_mean))));
    TimeMs end = std::min<TimeMs>(t + len, horizon);
    windows.emplace_back(t, end);
    t = end;  // keeps windows disjoint by construction
  }
  return windows;
}

void FaultPlan::kill_server_at(TimeMs at, DurationMs down_for) {
  if (at < 0 || down_for <= 0) return;
  scripted_server_kills_.push_back({at, down_for});
}

std::vector<FaultPlan::CrashEvent> FaultPlan::server_kill_schedule(
    TimeMs horizon) const {
  std::vector<CrashEvent> events = scripted_server_kills_;
  if (server_kill_rate_per_day > 0.0 && horizon > 0) {
    Rng rng = Rng(seed_).child("server-kill");
    double mean_gap_ms =
        static_cast<double>(days(1)) / server_kill_rate_per_day;
    TimeMs t = 0;
    while (true) {
      t += static_cast<TimeMs>(
          std::max(1.0, rng.exponential_mean(mean_gap_ms)));
      if (t >= horizon) break;
      auto down = static_cast<DurationMs>(std::max(
          1.0,
          rng.exponential_mean(static_cast<double>(server_downtime_mean))));
      events.push_back({t, down});
      t += down;
    }
  }
  std::sort(events.begin(), events.end(),
            [](const CrashEvent& a, const CrashEvent& b) { return a.at < b.at; });
  // Downtimes must not overlap: a kill scheduled while the server is
  // already down is pushed past the recovery point.
  std::vector<CrashEvent> merged;
  TimeMs up_at = 0;
  for (CrashEvent ev : events) {
    if (ev.at < up_at) ev.at = up_at;
    if (ev.at >= horizon && horizon > 0) continue;
    merged.push_back(ev);
    up_at = ev.at + ev.down_for;
  }
  return merged;
}

std::vector<FaultPlan::CrashEvent> FaultPlan::shard_kill_schedule(
    std::uint32_t shard, TimeMs horizon) const {
  std::vector<CrashEvent> events;
  if (shard_kill_rate_per_day <= 0.0 || horizon <= 0) return events;
  Rng rng = Rng(seed_).child("shard-kill").child(shard);
  double mean_gap_ms = static_cast<double>(days(1)) / shard_kill_rate_per_day;
  TimeMs t = 0;
  while (true) {
    t += static_cast<TimeMs>(std::max(1.0, rng.exponential_mean(mean_gap_ms)));
    if (t >= horizon) break;
    auto down = static_cast<DurationMs>(std::max(
        1.0, rng.exponential_mean(static_cast<double>(shard_downtime_mean))));
    events.push_back({t, down});
    t += down;  // a dead primary cannot die again before failover
  }
  return events;
}

std::vector<FaultPlan::RebalanceEvent> FaultPlan::rebalance_schedule(
    TimeMs horizon) const {
  std::vector<RebalanceEvent> events;
  if (rebalance_rate_per_day <= 0.0 || horizon <= 0) return events;
  Rng rng = Rng(seed_).child("rebalance");
  double mean_gap_ms = static_cast<double>(days(1)) / rebalance_rate_per_day;
  TimeMs t = 0;
  while (true) {
    t += static_cast<TimeMs>(std::max(1.0, rng.exponential_mean(mean_gap_ms)));
    if (t >= horizon) break;
    // The slot draw happens here (not at apply time) so the schedule is a
    // pure function of the seed regardless of fleet size; callers reduce
    // it mod their live map.
    events.push_back({t, static_cast<std::uint32_t>(rng.uniform_int(0, 255))});
  }
  return events;
}

FaultPlan FaultPlan::none() {
  FaultPlan plan(0);
  plan.profile_name_ = "none";
  return plan;
}

FaultPlan FaultPlan::lossy_network(std::uint64_t seed) {
  FaultPlan plan(seed);
  plan.profile_name_ = "lossy-network";
  plan.set_probability(FaultSite::kBrokerPublish, 0.2);
  plan.set_probability(FaultSite::kBrokerAckLost, 0.05);
  plan.set_probability(FaultSite::kBrokerConsume, 0.1);
  plan.set_probability(FaultSite::kDocstoreInsert, 0.1);
  plan.set_probability(FaultSite::kDocstoreUpdate, 0.05);
  plan.flap_rate_per_day = 4.0;
  plan.flap_duration_mean = minutes(45);
  return plan;
}

FaultPlan FaultPlan::crashy_client(std::uint64_t seed) {
  FaultPlan plan(seed);
  plan.profile_name_ = "crashy-client";
  plan.crash_rate_per_day = 3.0;
  plan.crash_downtime_mean = minutes(30);
  plan.set_probability(FaultSite::kDocstoreInsert, 0.02);
  return plan;
}

FaultPlan FaultPlan::server_kill(std::uint64_t seed) {
  FaultPlan plan(seed);
  plan.profile_name_ = "server-kill";
  plan.server_kill_rate_per_day = 6.0;
  plan.server_downtime_mean = minutes(10);
  return plan;
}

FaultPlan FaultPlan::server_kill_lossy(std::uint64_t seed) {
  FaultPlan plan = lossy_network(seed);
  plan.profile_name_ = "server-kill-lossy";
  plan.server_kill_rate_per_day = 4.0;
  plan.server_downtime_mean = minutes(10);
  return plan;
}

FaultPlan FaultPlan::lossy_network_shed(std::uint64_t seed) {
  FaultPlan plan = lossy_network(seed);
  plan.profile_name_ = "lossy-network-shed";
  plan.set_probability(FaultSite::kAdmissionShed, 0.05);
  return plan;
}

FaultPlan FaultPlan::shard_kill(std::uint64_t seed) {
  FaultPlan plan(seed);
  plan.profile_name_ = "shard-kill";
  plan.shard_kill_rate_per_day = 6.0;
  plan.shard_downtime_mean = minutes(10);
  plan.rebalance_rate_per_day = 8.0;
  return plan;
}

FaultPlan FaultPlan::shard_kill_lossy(std::uint64_t seed) {
  FaultPlan plan = lossy_network(seed);
  plan.profile_name_ = "shard-kill-lossy";
  plan.shard_kill_rate_per_day = 4.0;
  plan.shard_downtime_mean = minutes(10);
  plan.rebalance_rate_per_day = 6.0;
  return plan;
}

FaultPlan FaultPlan::profile(std::string_view name, std::uint64_t seed) {
  if (name == "none") {
    // Inert, but carries the sweep seed so per-seed reports line up.
    FaultPlan plan(seed);
    plan.profile_name_ = "none";
    return plan;
  }
  if (name == "lossy-network") return lossy_network(seed);
  if (name == "crashy-client") return crashy_client(seed);
  if (name == "server-kill") return server_kill(seed);
  if (name == "server-kill-lossy") return server_kill_lossy(seed);
  if (name == "lossy-network-shed") return lossy_network_shed(seed);
  if (name == "shard-kill") return shard_kill(seed);
  if (name == "shard-kill-lossy") return shard_kill_lossy(seed);
  throw std::invalid_argument("unknown fault profile: " + std::string(name));
}

const std::vector<std::string>& FaultPlan::profile_names() {
  static const std::vector<std::string> names = {
      "none", "lossy-network", "crashy-client", "lossy-network-shed"};
  return names;
}

const std::vector<std::string>& FaultPlan::shard_profile_names() {
  static const std::vector<std::string> names = {"shard-kill",
                                                 "shard-kill-lossy"};
  return names;
}

void FaultPlan::set_metrics(obs::Registry* registry) {
  sources_.detach();
  if (registry == nullptr) return;
  for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
    const std::string site = fault_site_name(static_cast<FaultSite>(i));
    sources_.counter(*registry, "fault.injected." + site, injected_[i]);
    sources_.counter(*registry, "fault.checked." + site, checked_[i]);
  }
}

std::uint64_t FaultPlan::total_injected() const {
  std::uint64_t total = 0;
  for (std::uint64_t n : injected_) total += n;
  return total;
}

DurationMs backoff_delay(int attempt, DurationMs base, DurationMs max_backoff,
                         double jitter, Rng& rng) {
  if (attempt < 1) attempt = 1;
  // base * 2^(attempt-1), saturating well before the shift overflows.
  double raw = static_cast<double>(base) *
               std::pow(2.0, static_cast<double>(attempt - 1));
  double capped = std::min(raw, static_cast<double>(max_backoff));
  double scale = 1.0 + rng.uniform(-jitter, jitter);
  auto delay = static_cast<DurationMs>(capped * scale);
  return std::max<DurationMs>(1, delay);
}

}  // namespace mps::fault
