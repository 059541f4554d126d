#include "study/study.h"

#include <algorithm>

#include "common/log.h"
#include "shard/fleet.h"

namespace mps::study {

StudyRunner::StudyRunner(const crowd::Population& population,
                         StudyConfig config, sim::Simulation& sim,
                         broker::Broker& broker, core::GoFlowServer& server)
    : population_(population),
      config_(std::move(config)),
      sim_(sim),
      broker_(broker),
      server_(server),
      ambient_(config_.ambient) {
  setup_accounts();
}

void StudyRunner::setup_accounts() {
  if (config_.shard_fleet != nullptr) {
    // The identical registration sequence on every shard: tokens are a
    // pure function of the server's auth RNG, so all nodes mint the same
    // admin/client tokens and a device's credentials work wherever its
    // slot lands after a rebalance. Node 0 is the constructor's server_.
    shard::ShardFleet& fleet = *config_.shard_fleet;
    for (std::uint32_t i = 0; i < fleet.size(); ++i) {
      core::GoFlowServer& srv = fleet.node(i).server();
      auto registration = srv.register_app(config_.app).value_or_throw();
      std::string token =
          srv.register_account(registration.admin_token, config_.app,
                               "study-fleet", core::Role::kClient)
              .value_or_throw();
      if (i == 0) {
        admin_token_ = registration.admin_token;
        client_token_ = token;
      } else if (registration.admin_token != admin_token_ ||
                 token != client_token_) {
        throw std::logic_error(
            "StudyRunner: shard registration diverged — fleet nodes must "
            "start from identical server state");
      }
    }
    return;
  }
  auto registration = server_.register_app(config_.app).value_or_throw();
  admin_token_ = registration.admin_token;
  client_token_ = server_
                      .register_account(admin_token_, config_.app,
                                        "study-fleet", core::Role::kClient)
                      .value_or_throw();
}

std::vector<const client::GoFlowClient*> StudyRunner::clients() const {
  std::vector<const client::GoFlowClient*> out;
  out.reserve(devices_.size());
  for (const Device& d : devices_) out.push_back(d.client.get());
  return out;
}

void StudyRunner::build_device(const crowd::UserProfile& profile) {
  auto channels =
      server_.login_client(client_token_, config_.app, profile.id)
          .value_or_throw();
  if (config_.shard_fleet != nullptr) {
    // Every shard learns every client (same sequence -> same exchange
    // name), so a rebalance never strands a device on a shard that has
    // never heard of it. Node 0 already logged it in above.
    shard::ShardFleet& fleet = *config_.shard_fleet;
    for (std::uint32_t i = 1; i < fleet.size(); ++i)
      fleet.node(i)
          .server()
          .login_client(client_token_, config_.app, profile.id)
          .value_or_throw();
  }

  phone::PhoneConfig pc;
  const phone::DeviceModelSpec* model = phone::find_model(profile.model);
  if (model == nullptr) return;
  pc.model = *model;
  pc.user = profile.id;
  pc.seed = profile.seed;
  pc.technology = profile.technology;
  pc.connectivity = config_.connectivity;
  pc.horizon = days(config_.duration_days) + hours(1);
  pc.start_battery_fraction = 1.0;
  if (config_.faults != nullptr)
    pc.forced_down_windows =
        config_.faults->flap_windows(profile.id, pc.horizon);

  Device device;
  device.profile = &profile;
  device.phone = std::make_unique<phone::Phone>(pc);

  client::ClientConfig cc;
  cc.app = config_.app;
  cc.client_id = profile.id;
  cc.exchange = channels.exchange;
  cc.version = config_.version;
  cc.buffer_size = config_.buffer_size;
  cc.sense_period = config_.sense_period;
  cc.share = profile.shares;
  if (config_.faults != nullptr) cc.retry_seed = config_.faults->seed();
  cc.batch_pool = &pool_;
  if (config_.shard_fleet != nullptr) {
    // The router at the ingest edge: consulted per publish, so a slot
    // move between attempts redirects the very next upload (including
    // the retry of a batch whose ack was lost on the old owner — the
    // migrated dedup keys absorb it there).
    shard::ShardFleet* fleet = config_.shard_fleet;
    std::string id = profile.id;
    cc.broker_route = [fleet, id]() { return &fleet->broker_for(id); };
  }

  // Socket mode: a per-device NetClient over loopback. Each device owns
  // its transport (the pending-outbox retry protocol is per-connection),
  // all pointed at the one study server; the pump callback drives the
  // server's event loop from inside the client's exchange, so a round
  // trip completes within the device's own sim event and the event
  // schedule is identical to in-process mode.
  if (config_.net_server != nullptr) {
    net::NetServer* srv = config_.net_server;
    net::NetClientConfig nc;
    nc.port = srv->port();
    nc.client_id = profile.id;
    device.transport = std::make_unique<net::NetClient>(sim_, std::move(nc));
    device.transport->set_pump([srv] { srv->pump(); });
    if (config_.faults != nullptr) device.transport->arm_faults(config_.faults);
    if (config_.metrics != nullptr)
      device.transport->set_metrics(config_.metrics);
    cc.transport = device.transport.get();
  }

  // Ambient and position track the user's simulated life.
  Rng ambient_rng = Rng(profile.seed).child("study-ambient");
  const crowd::UserProfile* p = &profile;
  crowd::AmbientModel* ambient = &ambient_;
  auto ambient_fn = [ambient, ambient_rng](TimeMs t) mutable {
    return ambient->sample(t, ambient_rng);
  };
  auto position_fn = [p](TimeMs t) { return crowd::user_position(*p, t); };

  device.client = std::make_unique<client::GoFlowClient>(
      sim_, broker_, *device.phone, std::move(cc), std::move(ambient_fn),
      std::move(position_fn));
  if (config_.metrics != nullptr) device.client->set_metrics(config_.metrics);
  if (config_.tracer != nullptr) device.client->set_tracer(config_.tracer);
  devices_.push_back(std::move(device));
}

void StudyRunner::schedule_user_activity(Device& device) {
  const crowd::UserProfile& profile = *device.profile;
  TimeMs horizon = days(config_.duration_days);
  TimeMs from = std::min(profile.active_from, horizon);
  TimeMs until = std::min(profile.active_until, horizon);
  if (from >= until) return;

  std::int64_t first_day = day_index(from);
  std::int64_t last_day = day_index(std::max<TimeMs>(until - 1, 0));
  client::GoFlowClient* goflow = device.client.get();

  for (std::int64_t day = first_day; day <= last_day; ++day) {
    TimeMs planner_at = std::max<TimeMs>(day * days(1), from);
    sim_.at(planner_at, [this, goflow, &profile, day, from, until] {
      // Plan one day of activity: per hour, Poisson-many opportunistic
      // and manual measurements weighted by the user's diurnal profile.
      Rng rng = Rng(profile.seed)
                    .child("study-day")
                    .child(static_cast<std::uint64_t>(day));
      TimeMs day_start = day * days(1);
      for (int hour = 0; hour < 24; ++hour) {
        double w = profile.hourly_weight[static_cast<std::size_t>(hour)];
        auto schedule_kind = [&](double per_day, phone::SensingMode mode) {
          int n = rng.poisson(per_day * w);
          for (int i = 0; i < n; ++i) {
            TimeMs t = day_start + hours(hour) +
                       static_cast<TimeMs>(rng.uniform() *
                                           static_cast<double>(hours(1)));
            if (t < from || t >= until) continue;
            sim_.at(t, [goflow, mode] { goflow->sense_now(mode); });
          }
        };
        schedule_kind(profile.obs_per_day, phone::SensingMode::kOpportunistic);
        schedule_kind(profile.manual_per_day, phone::SensingMode::kManual);
        if (day_start >= config_.journey_release) {
          int journeys = rng.poisson(profile.journeys_per_day * w);
          for (int j = 0; j < journeys; ++j) {
            TimeMs start = day_start + hours(hour);
            DurationMs spacing =
                seconds(static_cast<std::int64_t>(rng.uniform(20, 90)));
            for (int k = 0; k < profile.journey_length; ++k) {
              TimeMs t = start + spacing * k;
              if (t < from || t >= until) continue;
              sim_.at(t, [goflow] {
                goflow->sense_now(phone::SensingMode::kJourney);
              });
            }
          }
        }
      }
    });
  }
}

void StudyRunner::schedule_device_churn(Device& device) {
  TimeMs horizon = days(config_.duration_days);
  client::GoFlowClient* goflow = device.client.get();
  for (const fault::FaultPlan::CrashEvent& ev :
       config_.faults->crash_schedule(device.profile->id, horizon)) {
    sim_.at(ev.at, [goflow] { goflow->crash(); });
    sim_.at(ev.at + ev.down_for, [goflow] { goflow->restart(); });
  }
}

void StudyRunner::schedule_server_churn() {
  TimeMs horizon = days(config_.duration_days);
  core::ServerLifecycle* lc = config_.lifecycle;
  // The net server (when present) dies and returns with the middleware
  // host, inside the *same* sim events — socket mode must schedule
  // exactly the events the in-process oracle schedules, or insertion-id
  // tie-breaks diverge and byte equivalence is lost.
  net::NetServer* ns = config_.net_server;
  for (const fault::FaultPlan::CrashEvent& ev :
       config_.faults->server_kill_schedule(horizon)) {
    sim_.at(ev.at, [lc, ns] {
      lc->crash();
      if (ns != nullptr) ns->crash();
    });
    sim_.at(ev.at + ev.down_for, [lc, ns] {
      lc->recover();
      if (ns != nullptr) ns->recover().throw_if_error();
    });
  }
}

void StudyRunner::schedule_fleet_churn() {
  TimeMs horizon = days(config_.duration_days);
  shard::ShardFleet* fleet = config_.shard_fleet;
  // Per-shard kill/failover churn: each shard draws from its own child
  // stream, so fleets of different sizes replay each shard identically.
  for (std::uint32_t i = 0; i < fleet->size(); ++i) {
    for (const fault::FaultPlan::CrashEvent& ev :
         config_.faults->shard_kill_schedule(i, horizon)) {
      sim_.at(ev.at, [fleet, i] {
        if (!fleet->node(i).down()) fleet->node(i).kill();
      });
      sim_.at(ev.at + ev.down_for, [fleet, i] {
        if (fleet->node(i).down()) fleet->node(i).fail_over();
      });
    }
  }
  // Slot rebalances racing ingest; a move whose endpoint is down is
  // refused inside rebalance() and counted as skipped.
  for (const fault::FaultPlan::RebalanceEvent& ev :
       config_.faults->rebalance_schedule(horizon)) {
    std::uint32_t slot = ev.slot % shard::kHashSlots;
    sim_.at(ev.at, [fleet, slot] { fleet->rebalance_next(slot); });
  }
}

void StudyRunner::schedule_snapshots() {
  TimeMs horizon = days(config_.duration_days);
  core::ServerLifecycle* lc = config_.lifecycle;
  shard::ShardFleet* fleet = config_.shard_fleet;
  for (TimeMs t = config_.snapshot_period; t < horizon;
       t += config_.snapshot_period) {
    if (fleet != nullptr) {
      // Fleet snapshots bound each failover's WAL replay.
      sim_.at(t, [fleet] { fleet->snapshot_all(); });
    } else {
      sim_.at(t, [lc] { lc->snapshot(); });  // no-op while down
    }
  }
}

StudyReport StudyRunner::run() {
  if (ran_) throw std::logic_error("StudyRunner::run: already ran");
  ran_ = true;

  if (config_.faults != nullptr) {
    config_.faults->set_clock([this] { return sim_.now(); });
    if (config_.shard_fleet != nullptr) {
      // Every shard's broker, store and ingest gate consults the one
      // plan — node 0 is the constructor's broker_/server_.
      shard::ShardFleet& fleet = *config_.shard_fleet;
      for (std::uint32_t i = 0; i < fleet.size(); ++i) {
        fleet.node(i).broker().arm_faults(config_.faults);
        fleet.node(i).db().arm_faults(config_.faults);
        fleet.node(i).server().arm_faults(config_.faults);
      }
    } else {
      broker_.arm_faults(config_.faults);
      server_.database().arm_faults(config_.faults);
      // Admission-shed chaos: the server's ingest gate consults the plan.
      server_.arm_faults(config_.faults);
    }
    if (config_.metrics != nullptr)
      config_.faults->set_metrics(config_.metrics);
  }
  if (config_.metrics != nullptr) pool_.set_metrics(config_.metrics);
  if (config_.net_server != nullptr) {
    // Must be listening before build_device captures the port.
    if (!config_.net_server->listening())
      config_.net_server->start().throw_if_error();
    if (config_.faults != nullptr)
      config_.net_server->arm_faults(config_.faults);
    if (config_.metrics != nullptr)
      config_.net_server->set_metrics(config_.metrics);
  }

  devices_.reserve(population_.users().size());
  for (const crowd::UserProfile& profile : population_.users())
    build_device(profile);
  for (Device& device : devices_) {
    schedule_user_activity(device);
    if (config_.faults != nullptr) schedule_device_churn(device);
  }
  if (config_.faults != nullptr && config_.lifecycle != nullptr)
    schedule_server_churn();
  if (config_.faults != nullptr && config_.shard_fleet != nullptr)
    schedule_fleet_churn();
  if ((config_.lifecycle != nullptr || config_.shard_fleet != nullptr) &&
      config_.snapshot_period > 0)
    schedule_snapshots();

  TimeMs horizon = days(config_.duration_days);
  sim_.run_until(horizon);
  // Drain in-flight transfers (uploads started before the horizon) and,
  // under chaos, pending backoff retries.
  sim_.run_until(horizon + config_.drain);
  // A kill close to the horizon can leave the server mid-downtime after
  // the drain; the books must close against a recovered store.
  if (config_.lifecycle != nullptr && config_.lifecycle->down()) {
    config_.lifecycle->recover();
    if (config_.net_server != nullptr && !config_.net_server->listening())
      config_.net_server->recover().throw_if_error();
  }
  // Same for the fleet: any shard still mid-failover is promoted now.
  if (config_.shard_fleet != nullptr) config_.shard_fleet->fail_over_all_down();

  // Chaos ends with the study: disarm the shared infrastructure so
  // post-run operation (REST jobs, exports — which have no retry path)
  // doesn't keep hitting injected faults.
  if (config_.faults != nullptr) {
    if (config_.shard_fleet != nullptr) {
      shard::ShardFleet& fleet = *config_.shard_fleet;
      for (std::uint32_t i = 0; i < fleet.size(); ++i) {
        fleet.node(i).broker().arm_faults(nullptr);
        fleet.node(i).db().arm_faults(nullptr);
        fleet.node(i).server().arm_faults(nullptr);
      }
    } else {
      broker_.arm_faults(nullptr);
      server_.database().arm_faults(nullptr);
      server_.arm_faults(nullptr);
    }
    if (config_.net_server != nullptr) {
      config_.net_server->arm_faults(nullptr);
      for (Device& device : devices_)
        if (device.transport != nullptr) device.transport->arm_faults(nullptr);
    }
  }

  StudyReport report;
  report.devices = devices_.size();
  // Per-device aggregation: pure reads of per-client counters after the
  // sim stopped, so chunks reduce independently; integer sums make the
  // fold order irrelevant (identical report with or without an executor).
  StudyReport device_sums = exec::parallel_reduce(
      config_.executor, devices_.size(), StudyReport{},
      [&](std::size_t begin, std::size_t end) {
        StudyReport partial;
        for (std::size_t i = begin; i < end; ++i) {
          const Device& device = devices_[i];
          const client::ClientStats& stats = device.client->stats();
          partial.observations_recorded += stats.observations_recorded;
          partial.uploads += stats.uploads;
          partial.deferred_uploads += stats.deferred_uploads;
          partial.buffered_unsent += device.client->buffered();
          partial.in_flight_unsent += device.client->in_flight_count();
          partial.crashes += stats.crashes;
          partial.restarts += stats.restarts;
          partial.publish_failures += stats.publish_failures;
          partial.upload_retries += stats.upload_retries;
          partial.retry_giveups += stats.retry_giveups;
        }
        return partial;
      },
      [](StudyReport a, const StudyReport& b) {
        a.observations_recorded += b.observations_recorded;
        a.uploads += b.uploads;
        a.deferred_uploads += b.deferred_uploads;
        a.buffered_unsent += b.buffered_unsent;
        a.in_flight_unsent += b.in_flight_unsent;
        a.crashes += b.crashes;
        a.restarts += b.restarts;
        a.publish_failures += b.publish_failures;
        a.upload_retries += b.upload_retries;
        a.retry_giveups += b.retry_giveups;
        return a;
      });
  report.observations_recorded = device_sums.observations_recorded;
  report.uploads = device_sums.uploads;
  report.deferred_uploads = device_sums.deferred_uploads;
  report.buffered_unsent = device_sums.buffered_unsent;
  report.in_flight_unsent = device_sums.in_flight_unsent;
  report.crashes = device_sums.crashes;
  report.restarts = device_sums.restarts;
  report.publish_failures = device_sums.publish_failures;
  report.upload_retries = device_sums.upload_retries;
  report.retry_giveups = device_sums.retry_giveups;
  if (config_.faults != nullptr)
    report.faults_injected = config_.faults->total_injected();
  if (config_.lifecycle != nullptr) {
    report.server_kills = config_.lifecycle->crashes();
    report.server_recoveries = config_.lifecycle->recoveries();
  }
  if (config_.shard_fleet != nullptr) {
    // Server-side books are the union across the fleet: a client's
    // documents live on exactly one shard, so plain sums (and a Welford
    // merge for the delay stream) are the single-server numbers.
    shard::ShardFleet& fleet = *config_.shard_fleet;
    RunningStats delay;
    for (std::uint32_t i = 0; i < fleet.size(); ++i) {
      core::GoFlowServer& srv = fleet.node(i).server();
      report.pending_server_batches += srv.pending_ingest_batches();
      report.duplicate_observations += srv.duplicate_observations();
      report.server_kills += fleet.node(i).lifecycle().crashes();
      report.server_recoveries += fleet.node(i).lifecycle().recoveries();
      report.shard_failovers += fleet.node(i).failovers();
      auto analytics = srv.analytics(config_.app);
      if (analytics.ok()) {
        report.observations_stored += analytics.value().observations_stored;
        delay.merge(analytics.value().delay_stats);
      }
    }
    report.mean_delay_ms = delay.mean();
    report.shard_rebalances = fleet.rebalances();
    report.shard_rebalances_skipped = fleet.rebalances_skipped();
  } else {
    report.pending_server_batches = server_.pending_ingest_batches();
    report.duplicate_observations = server_.duplicate_observations();
    auto analytics = server_.analytics(config_.app);
    if (analytics.ok()) {
      report.observations_stored = analytics.value().observations_stored;
      report.mean_delay_ms = analytics.value().delay_stats.mean();
    }
  }
  return report;
}

}  // namespace mps::study
