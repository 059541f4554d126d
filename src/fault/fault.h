// Deterministic, seed-driven fault injection.
//
// The paper's central "do" is that MPS middleware must survive a hostile
// edge: devices vanish for hours, uploads die mid-batch and the
// store-and-forward buffer is the only thing between a flaky 3G link and
// data loss. This module lets a run *schedule* that hostility: a
// FaultPlan decides — as a pure function of (seed, call sequence, sim
// clock) — when the broker rejects a publish, when a docstore write
// fails transiently, when a device's radio flaps beyond the connectivity
// model and when a client process crashes and restarts. Injection points
// in broker/docstore/client/net/crowd consult the plan through the
// narrow FaultPoint handle, which is a single null-pointer check when no
// plan is armed — the fast paths pay nothing in clean runs.
//
// Determinism: every per-operation decision draws from a per-site RNG
// stream derived from the plan seed, and every per-device schedule
// (crash times, flap windows) from a (seed, device-id) child stream, so
// a chaos run replays bit-for-bit and a failing seed is a bug report.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "obs/metrics.h"

namespace mps::fault {

/// Where a fault can be injected.
enum class FaultSite {
  kBrokerPublish = 0,  ///< broker rejects the publish (nothing routed)
  kBrokerAckLost,      ///< publish routed, but the confirm is lost — the
                       ///< caller sees an error and retries (dup pressure)
  kBrokerConsume,      ///< pull-consume (pop/pop_reliable) returns nothing
  kDocstoreInsert,     ///< Collection::insert throws TransientError
  kDocstoreUpdate,     ///< Collection::update_many throws TransientError
  kClientCrash,        ///< device process dies (schedule, not per-op)
  kNetFlap,            ///< extra connectivity down windows (schedule)
  kAssimStall,         ///< assimilation cycle skips a step
  kSensorFail,         ///< sensor read produces nothing (crowd generator)
  kAdmissionShed,      ///< server admission control sheds the publish
  kNetDropConn,        ///< net server drops the connection pre-dispatch
  kNetTruncateFrame,   ///< net client sends a frame prefix, then dies
};

inline constexpr std::size_t kFaultSiteCount = 12;

const char* fault_site_name(FaultSite s);

/// Thrown by docstore write paths when a transient fault fires. Callers
/// on durability-critical paths (server ingest) catch it and retry with
/// backoff; everything else lets it propagate as a test failure.
class TransientError : public std::runtime_error {
 public:
  TransientError(FaultSite site, const std::string& what)
      : std::runtime_error(what), site_(site) {}
  FaultSite site() const { return site_; }

 private:
  FaultSite site_;
};

/// A deterministic schedule of faults. Built either from a seeded RNG
/// (probabilities + churn rates) or an explicit script (windows,
/// fail-next-N), or both. Single-threaded, like the simulation it runs
/// inside.
class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed = 0);

  // --- Scripting ---------------------------------------------------------

  /// Per-operation failure probability at `site` (Bernoulli on a
  /// site-private RNG stream, so adding checks at one site never changes
  /// another site's decisions).
  void set_probability(FaultSite site, double p);
  double probability(FaultSite site) const;

  /// Always fail inside [from, until) — an outage window. Only consulted
  /// when the caller supplies a time (or a clock is attached).
  void add_window(FaultSite site, TimeMs from, TimeMs until);

  /// The next `n` consultations at `site` fail unconditionally (exact
  /// scripting for unit tests).
  void fail_next(FaultSite site, std::uint64_t n);

  /// Clock used by time-window checks when the caller cannot supply a
  /// time (the docstore has no clock of its own). Typically
  /// `plan.set_clock([&sim]{ return sim.now(); })`.
  void set_clock(std::function<TimeMs()> clock) { clock_ = std::move(clock); }

  // --- Device churn schedules -------------------------------------------

  /// Crash/restart churn: each device crashes ~`crash_rate_per_day`
  /// times per day and stays down for an exponential downtime.
  double crash_rate_per_day = 0.0;
  DurationMs crash_downtime_mean = minutes(10);

  /// Radio flaps beyond the connectivity model: extra forced-down
  /// windows per device.
  double flap_rate_per_day = 0.0;
  DurationMs flap_duration_mean = minutes(30);

  struct CrashEvent {
    TimeMs at = 0;
    DurationMs down_for = 0;
  };

  /// The crash schedule for one device over [0, horizon) — a pure
  /// function of (plan seed, device id).
  std::vector<CrashEvent> crash_schedule(std::string_view device,
                                         TimeMs horizon) const;

  /// Extra forced-disconnection windows for one device, sorted and
  /// disjoint — punched out of its ConnectivityTrace.
  std::vector<std::pair<TimeMs, TimeMs>> flap_windows(std::string_view device,
                                                      TimeMs horizon) const;

  // --- Server kill schedules (DESIGN.md §11) -----------------------------

  /// Middleware-host churn: the server process (broker + docstore +
  /// GoFlow server) is killed ~`server_kill_rate_per_day` times per day
  /// and recovered after an exponential downtime. Driven by
  /// core::ServerLifecycle via the study runner.
  double server_kill_rate_per_day = 0.0;
  DurationMs server_downtime_mean = minutes(5);

  /// Scripts one exact kill (on top of any rate-driven schedule) — the
  /// recovery-equivalence tests kill at chosen points.
  void kill_server_at(TimeMs at, DurationMs down_for);

  /// The merged (scripted + rate-driven) server kill schedule over
  /// [0, horizon), sorted with downtimes non-overlapping. A pure
  /// function of the plan seed.
  std::vector<CrashEvent> server_kill_schedule(TimeMs horizon) const;

  // --- Shard fleet schedules (DESIGN.md §16) -----------------------------

  /// Fleet churn: each shard's primary is killed ~`shard_kill_rate_per_day`
  /// times per day and fails over to its mirrored follower disk after an
  /// exponential downtime. Each shard draws from its own (seed, shard)
  /// child stream, so adding a shard never reshuffles another's kills.
  double shard_kill_rate_per_day = 0.0;
  DurationMs shard_downtime_mean = minutes(5);

  /// The kill schedule for one shard over [0, horizon) — a pure function
  /// of (plan seed, shard index), mirroring server_kill_schedule.
  std::vector<CrashEvent> shard_kill_schedule(std::uint32_t shard,
                                              TimeMs horizon) const;

  /// Control-plane churn: hash slots are moved between shards
  /// ~`rebalance_rate_per_day` times per day while ingest is running.
  double rebalance_rate_per_day = 0.0;

  struct RebalanceEvent {
    TimeMs at = 0;
    std::uint32_t slot = 0;  ///< hash slot to move (mod the live map)
  };

  /// The fleet-wide rebalance schedule over [0, horizon), sorted. A pure
  /// function of the plan seed.
  std::vector<RebalanceEvent> rebalance_schedule(TimeMs horizon) const;

  // --- Consultation (the hot path) --------------------------------------

  /// Should the current operation at `site` fail? Consumes one decision
  /// from the site's stream. Uses the attached clock (if any) for window
  /// checks.
  bool should_fail(FaultSite site);

  /// Same, with the caller's notion of now for window checks.
  bool should_fail(FaultSite site, TimeMs now);

  // --- Profiles ----------------------------------------------------------

  /// No faults at all (armed but inert; useful as a sweep baseline).
  static FaultPlan none();

  /// A hostile network: publishes rejected, confirms lost, consumes
  /// stalled, docstore writes transiently failing, radios flapping.
  static FaultPlan lossy_network(std::uint64_t seed);

  /// Devices that crash several times a day and restart with their
  /// store-and-forward buffer intact.
  static FaultPlan crashy_client(std::uint64_t seed);

  /// The middleware host itself dies and recovers several times a day;
  /// everything else is healthy (isolates the durability layer).
  static FaultPlan server_kill(std::uint64_t seed);

  /// Server kills on top of a lossy network — recovery racing retries,
  /// duplicates and transient store failures all at once.
  static FaultPlan server_kill_lossy(std::uint64_t seed);

  /// lossy_network plus random admission sheds at the ingest edge —
  /// backpressure racing a hostile network (DESIGN.md §13).
  static FaultPlan lossy_network_shed(std::uint64_t seed);

  /// Shard primaries die and fail over to their followers several times
  /// a day, and slots rebalance under ingest; the network is otherwise
  /// healthy (isolates replication + migration, DESIGN.md §16).
  static FaultPlan shard_kill(std::uint64_t seed);

  /// Shard kills and rebalances on top of a lossy network — failover and
  /// slot moves racing retries, duplicates and transient store failures.
  static FaultPlan shard_kill_lossy(std::uint64_t seed);

  /// Profile by name ("none", "lossy-network", "crashy-client",
  /// "server-kill", "server-kill-lossy", "lossy-network-shed",
  /// "shard-kill", "shard-kill-lossy"); throws std::invalid_argument on
  /// anything else.
  static FaultPlan profile(std::string_view name, std::uint64_t seed);

  /// Names accepted by profile(), in sweep order.
  static const std::vector<std::string>& profile_names();

  /// The fleet-chaos profiles, in sweep order. Kept out of
  /// profile_names() so single-server sweeps don't silently pick up
  /// profiles that need a ShardFleet to mean anything.
  static const std::vector<std::string>& shard_profile_names();

  const std::string& profile_name() const { return profile_name_; }
  std::uint64_t seed() const { return seed_; }

  // --- Observability ----------------------------------------------------

  /// Registers the per-site counts with `registry` as
  /// "fault.injected.<site>" and "fault.checked.<site>" counters. A copy
  /// of the plan starts detached. Pass nullptr to detach.
  void set_metrics(obs::Registry* registry);

  /// Faults injected / consultations made at `site` since construction.
  std::uint64_t injected(FaultSite site) const {
    return injected_[static_cast<std::size_t>(site)];
  }
  std::uint64_t checked(FaultSite site) const {
    return checked_[static_cast<std::size_t>(site)];
  }

  /// Total injections across all sites.
  std::uint64_t total_injected() const;

 private:
  struct Site {
    double probability = 0.0;
    std::uint64_t fail_next = 0;
    std::vector<std::pair<TimeMs, TimeMs>> windows;
    Rng rng{0};
  };

  bool decide(FaultSite site, bool have_now, TimeMs now);

  std::uint64_t seed_ = 0;
  std::string profile_name_ = "custom";
  std::vector<CrashEvent> scripted_server_kills_;
  Site sites_[kFaultSiteCount];
  /// Ahead of the counts it reads: assigning a plan detaches it (folding
  /// the old counts into the registry) before the counts are overwritten.
  obs::Sources sources_;
  std::uint64_t injected_[kFaultSiteCount] = {};
  std::uint64_t checked_[kFaultSiteCount] = {};
  std::function<TimeMs()> clock_;
};

/// The handle a component holds: one (plan, site) pair. Default-built it
/// is disarmed, and every query is a single null-pointer test — the
/// fast-path cost of compiling fault injection into the middleware.
class FaultPoint {
 public:
  FaultPoint() = default;
  FaultPoint(FaultPlan* plan, FaultSite site) : plan_(plan), site_(site) {}

  bool armed() const { return plan_ != nullptr; }

  /// Consults the plan (no-op false when disarmed).
  bool should_fail() const {
    return plan_ != nullptr && plan_->should_fail(site_);
  }
  bool should_fail(TimeMs now) const {
    return plan_ != nullptr && plan_->should_fail(site_, now);
  }

  FaultSite site() const { return site_; }

 private:
  FaultPlan* plan_ = nullptr;
  FaultSite site_ = FaultSite::kBrokerPublish;
};

/// Exponential backoff with deterministic jitter: attempt 1 waits
/// ~`base`, doubling each attempt, capped at `max_backoff`, with a
/// multiplicative jitter of +/- `jitter` drawn from `rng`. The standard
/// retry pacing for every fault-recovery path in the middleware.
DurationMs backoff_delay(int attempt, DurationMs base, DurationMs max_backoff,
                         double jitter, Rng& rng);

}  // namespace mps::fault
