// City deployment: operate the whole study like the Paris team did.
//
// Spins up the middleware, replays a scaled fleet for two virtual weeks
// through StudyRunner (every observation travels the real
// client->broker->server path), then plays the operator: drives the
// REST-based GoFlow API (Figure 2) to inspect analytics, run the standard
// background jobs, and export data — exactly the workflow behind the
// paper's evaluation section.
//
// Build & run:  cmake --build build && ./build/examples/city_deployment
//
// Chaos mode replays the same deployment under a deterministic fault
// profile and proves the no-loss invariants at the end:
//   ./build/examples/city_deployment --chaos=lossy-network --seed=7
//   ./build/examples/city_deployment --chaos=crashy-client
//   ./build/examples/city_deployment --chaos=server-kill        # host dies + recovers
//   ./build/examples/city_deployment --chaos=server-kill-lossy  # + hostile network
//
// Telemetry exports:
//   --trace=trace.json        Chrome trace_event file (load in Perfetto /
//                             about://tracing): span lifecycles per hop
//                             plus the flight-recorder event timeline.
//   --telemetry=series.jsonl  one JSON line per closed telemetry window
//                             (rates + rolling p50/p95/p99), the same
//                             data GET /metrics/series serves.
//
// Network serving plane (DESIGN.md §14):
//   --net=loopback            every device publishes over a real loopback
//                             socket through the epoll NetServer instead
//                             of the in-process hand-off. The stored
//                             state is byte-identical either way (the
//                             equivalence suite pins it); combines with
//                             --chaos=... to take the listener down with
//                             every server kill.
//
// Sharded serving plane (DESIGN.md §16):
//   --shards=N                partition the deployment across N replicated
//                             shard nodes; every client hashes to one of
//                             256 slots and its publishes route to the
//                             owning shard's broker. Combine with the
//                             fleet chaos profiles to kill primaries and
//                             migrate slots mid-study:
//   ./build/examples/city_deployment --shards=3 --chaos=shard-kill
//   ./build/examples/city_deployment --shards=3 --chaos=shard-kill-lossy
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "common/strings.h"
#include "core/recovery.h"
#include "core/rest_api.h"
#include "core/standard_jobs.h"
#include "durable/storage.h"
#include "fault/fault.h"
#include "net/net_server.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace_export.h"
#include "shard/fleet.h"
#include "study/invariants.h"
#include "study/study.h"

using namespace mps;

int main(int argc, char** argv) {
  std::string chaos_profile;
  std::string trace_path;
  std::string telemetry_path;
  std::string net_mode;
  std::uint64_t seed = 7;
  std::uint32_t shards = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--chaos=", 8) == 0) {
      chaos_profile = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = static_cast<std::uint32_t>(
          std::strtoul(argv[i] + 9, nullptr, 10));
      if (shards < 1 || shards > 64) {
        std::fprintf(stderr, "--shards must be in [1, 64]\n");
        return 2;
      }
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--telemetry=", 12) == 0) {
      telemetry_path = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--net=", 6) == 0) {
      net_mode = argv[i] + 6;
      if (net_mode != "loopback" && net_mode != "none") {
        std::fprintf(stderr, "unknown --net mode '%s' (loopback|none)\n",
                     net_mode.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--chaos=none|lossy-network|crashy-client|"
                   "server-kill|server-kill-lossy|shard-kill|"
                   "shard-kill-lossy] [--seed=N] [--shards=N] "
                   "[--net=loopback] [--trace=FILE] [--telemetry=FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  const bool fleet_mode = shards > 1;
  if (starts_with(chaos_profile, "shard-kill") && !fleet_mode) {
    std::fprintf(stderr, "--chaos=%s needs a fleet: pass --shards=2 or more\n",
                 chaos_profile.c_str());
    return 2;
  }
  if (fleet_mode && starts_with(chaos_profile, "server-kill")) {
    std::fprintf(stderr,
                 "--shards uses per-shard journals; use --chaos=shard-kill "
                 "instead of %s\n",
                 chaos_profile.c_str());
    return 2;
  }
  if (fleet_mode && net_mode == "loopback") {
    std::fprintf(stderr,
                 "--net=loopback fronts a single server; it does not combine "
                 "with --shards yet\n");
    return 2;
  }
  // --- Infrastructure + fleet ------------------------------------------
  sim::Simulation sim;
  broker::Broker broker;
  docstore::Database db;
  core::GoFlowServer server(sim, broker, db);

  // One registry observes every layer; one tracker follows each
  // observation's sensed->...->assimilated lifecycle across them.
  obs::Registry registry;
  obs::SpanTracker tracker(&registry);
  broker.set_metrics(&registry);
  db.set_metrics(&registry);
  server.set_metrics(&registry);
  server.set_tracer(&tracker);

  // --shards=N: the same deployment partitioned across a replicated
  // fleet (DESIGN.md §16). Every client hashes to a slot, every slot to
  // a shard; the single-server stack above stays as the plumbing
  // StudyRunner's constructor wants but all traffic routes per publish
  // through the fleet. One registry still observes everything.
  std::unique_ptr<shard::ShardFleet> fleet;
  if (fleet_mode) {
    shard::FleetConfig fleet_config;
    fleet_config.shards = shards;
    fleet_config.metrics = &registry;
    fleet = std::make_unique<shard::ShardFleet>(sim, fleet_config);
    for (std::uint32_t s = 0; s < fleet->size(); ++s)
      fleet->node(s).server().set_tracer(&tracker);
    std::printf("fleet: %u shards, %u hash slots, per-shard WAL shipping "
                "armed\n",
                fleet->size(), shard::kHashSlots);
  }

  // Windowed telemetry plane: half-day windows over the two-week run,
  // sampled by the same sim hook that prints the ops report below, and
  // queryable live at GET /metrics/series.
  obs::TimeSeriesConfig series_config;
  series_config.bucket_width = hours(12);
  obs::TimeSeries series(registry, series_config);
  // With a fleet, shard 0's API serves the series (the registry behind it
  // is fleet-wide anyway).
  (fleet ? fleet->node(0).server() : server).set_timeseries(&series);
  std::ofstream telemetry_out;
  if (!telemetry_path.empty()) {
    telemetry_out.open(telemetry_path);
    if (!telemetry_out.is_open()) {
      std::fprintf(stderr, "cannot open --telemetry file %s\n",
                   telemetry_path.c_str());
      return 2;
    }
    series.set_sink(
        [&telemetry_out](const std::string& line) {
          telemetry_out << line << "\n";
        });
  }

  crowd::PopulationConfig pop_config;
  pop_config.seed = seed;
  pop_config.device_scale = 0.03;  // ~65 devices
  pop_config.obs_scale = 0.1;
  pop_config.horizon = days(14);
  crowd::Population population = crowd::Population::generate(pop_config);

  study::StudyConfig study_config;
  study_config.seed = seed;
  study_config.duration_days = 14;
  study_config.journey_release = days(10);  // journey mode ships mid-study
  study_config.metrics = &registry;
  study_config.tracer = &tracker;
  if (fleet) {
    study_config.shard_fleet = fleet.get();
    study_config.snapshot_period = hours(6);  // bounds each failover's replay
  }

  // --net=loopback: the fleet publishes over real sockets through the
  // epoll server; the registry (declared above) outlives it.
  net::NetServer net_server(sim, broker);
  if (net_mode == "loopback") {
    net_server.set_metrics(&registry);
    study_config.net_server = &net_server;
    std::printf("net: loopback sockets armed (every upload crosses the "
                "wire)\n");
  }

  // Chaos mode: arm a deterministic fault profile. Same profile + same
  // seed replays the exact fault schedule, so any invariant violation
  // printed below is a reproducible bug report.
  fault::FaultPlan faults = fault::FaultPlan::none();
  // The server-kill profiles need a durable substrate to recover from:
  // WAL + snapshots on the in-memory storage env (DESIGN.md §11). Only
  // built when asked for — attaching a journal puts every run on the
  // log-before-apply path.
  durable::MemStorageEnv storage;
  std::unique_ptr<core::ServerLifecycle> lifecycle;
  if (!chaos_profile.empty() && chaos_profile != "none") {
    faults = fault::FaultPlan::profile(chaos_profile, seed);
    faults.set_metrics(&registry);
    study_config.faults = &faults;
    if (starts_with(chaos_profile, "server-kill")) {
      lifecycle = std::make_unique<core::ServerLifecycle>(
          storage, sim, broker, db, server, durable::JournalConfig{},
          &registry);
      study_config.lifecycle = lifecycle.get();
      study_config.snapshot_period = hours(6);
    }
    std::printf("chaos: profile %s armed with seed %llu\n",
                faults.profile_name().c_str(),
                static_cast<unsigned long long>(seed));
  }

  study::StudyRunner runner(population, study_config, sim,
                            fleet ? fleet->node(0).broker() : broker,
                            fleet ? fleet->node(0).server() : server);

  // Daily ops report, straight off the sim clock: the hook fires at every
  // virtual 48-h boundary while the study runs.
  sim.set_metrics_hook(hours(48), [&](TimeMs now) {
    series.sample(now);
    std::printf("  [day %2lld] recorded=%llu uploaded=%llu stored=%llu "
                "spans=%llu\n",
                static_cast<long long>(now / days(1)),
                static_cast<unsigned long long>(
                    registry.counter("client.recorded").value()),
                static_cast<unsigned long long>(
                    registry.counter("client.observations_uploaded").value()),
                static_cast<unsigned long long>(
                    registry.counter("server.observations_stored").value()),
                static_cast<unsigned long long>(
                    registry.counter("span.started").value()));
  });

  std::printf("running a %zu-device fleet for %d virtual days...\n",
              population.users().size(), study_config.duration_days);
  study::StudyReport report = runner.run();
  sim.clear_metrics_hook();
  series.flush(sim.now());
  std::printf("recorded %llu observations; %llu stored server-side; "
              "%llu still on devices\n\n",
              static_cast<unsigned long long>(report.observations_recorded),
              static_cast<unsigned long long>(report.observations_stored),
              static_cast<unsigned long long>(report.buffered_unsent));

  if (study_config.net_server != nullptr) {
    const net::NetServerStats& ns = net_server.stats();
    std::printf("wire: %llu connections accepted, %llu publish frames "
                "(%llu rejected), %llu bytes in / %llu out\n\n",
                static_cast<unsigned long long>(ns.accepted),
                static_cast<unsigned long long>(ns.publishes),
                static_cast<unsigned long long>(ns.frame_rejects),
                static_cast<unsigned long long>(ns.bytes_in),
                static_cast<unsigned long long>(ns.bytes_out));
  }

  if (fleet) {
    std::printf("fleet: %llu failovers, %llu rebalances (%llu skipped while "
                "a shard was down), %llu WAL records mirrored to followers\n\n",
                static_cast<unsigned long long>(report.shard_failovers),
                static_cast<unsigned long long>(report.shard_rebalances),
                static_cast<unsigned long long>(
                    report.shard_rebalances_skipped),
                static_cast<unsigned long long>(
                    registry.counter("shard.shipped_records").value()));
  }

  if (study_config.faults != nullptr) {
    std::printf("chaos outcome: %llu faults injected, %llu crashes, "
                "%llu publish failures, %llu upload retries, "
                "%llu duplicates deduplicated\n",
                static_cast<unsigned long long>(report.faults_injected),
                static_cast<unsigned long long>(report.crashes),
                static_cast<unsigned long long>(report.publish_failures),
                static_cast<unsigned long long>(report.upload_retries),
                static_cast<unsigned long long>(report.duplicate_observations));
    if (report.server_kills > 0)
      std::printf("  server killed %llu times, recovered %llu times "
                  "(%llu WAL records replayed, %llu snapshots)\n",
                  static_cast<unsigned long long>(report.server_kills),
                  static_cast<unsigned long long>(report.server_recoveries),
                  static_cast<unsigned long long>(
                      registry.counter("durable.replayed_records").value()),
                  static_cast<unsigned long long>(
                      registry.counter("durable.snapshots").value()));
    std::vector<core::GoFlowServer*> servers;
    if (fleet) {
      for (std::uint32_t s = 0; s < fleet->size(); ++s)
        servers.push_back(&fleet->node(s).server());
    } else {
      servers.push_back(&server);
    }
    study::InvariantReport inv =
        study::check_invariants(tracker, servers, runner.clients());
    std::printf("invariants: %s\n  %s\n\n", inv.ok() ? "OK" : "VIOLATED",
                inv.to_json().c_str());
    if (!inv.ok()) return 1;
  }

  // --- Operate via the REST API -----------------------------------------
  // In fleet mode shard 0 answers; every shard serves the same API
  // against its own partition (registration replays identically on all
  // of them, so the admin token opens any shard).
  if (fleet)
    std::printf("REST below operates shard 0 of %u\n\n", fleet->size());
  core::GoFlowRestApi api(fleet ? fleet->node(0).server() : server);
  api.register_job_type("per-model-counts",
                        core::job_per_model_counts("soundcity"));
  api.register_job_type("provider-shares",
                        core::job_provider_shares("soundcity"));
  api.register_job_type("delay-stats", core::job_delay_stats("soundcity"));
  const std::string& admin = runner.admin_token();

  core::RestResponse analytics =
      api.handle({"GET", "/apps/soundcity/analytics", admin, Value(), {}});
  std::printf("GET /apps/soundcity/analytics -> %d\n  %s\n\n", analytics.status,
              analytics.body.to_json().c_str());

  core::RestResponse localized = api.handle(
      {"GET", "/apps/soundcity/observations/count", admin, Value(),
       {{"localized", "true"}, {"max_accuracy", "100"}}});
  std::printf("GET .../observations/count?localized=true&max_accuracy=100 -> "
              "count=%lld\n\n",
              static_cast<long long>(localized.body.get_int("count")));

  for (const char* job_type :
       {"per-model-counts", "provider-shares", "delay-stats"}) {
    core::RestResponse submitted = api.handle(
        {"POST", "/apps/soundcity/jobs", admin,
         Value(Object{{"type", Value(job_type)}}), {}});
    sim.run();  // let the job execute
    core::RestResponse info = api.handle(
        {"GET", "/jobs/" + submitted.body.get_string("job"), admin, Value(), {}});
    std::printf("job %-18s -> %s\n", job_type,
                info.body.at("result").to_json().c_str());
  }

  // --- Export a sample for the data-assimilation team ---------------------
  core::RestResponse exported = api.handle(
      {"GET", "/apps/soundcity/observations/export", admin, Value(),
       {{"provider", "gps"}, {"limit", "3"}}});
  std::printf("\nGPS sample export:\n%s\n",
              exported.body.get_string("json").c_str());

  // --- Observability: one endpoint, the whole pipeline --------------------
  core::RestResponse metrics =
      api.handle({"GET", "/metrics", admin, Value(), {}});
  std::printf("\nGET /metrics -> %d (%zu counters, %zu histograms)\n",
              metrics.status, metrics.body.find("counters")->as_object().size(),
              metrics.body.find("histograms")->as_object().size());

  core::RestResponse series_resp =
      api.handle({"GET", "/metrics/series", admin, Value(), {}});
  std::printf("GET /metrics/series -> %d (%lld windows of %lldh, p95 "
              "capture->server %.0fs)\n",
              series_resp.status,
              static_cast<long long>(series_resp.body.get_int("windows_closed")),
              static_cast<long long>(
                  series_resp.body.get_int("bucket_width_ms") / hours(1)),
              series.rolling_quantile("span.uploaded_to_routed_ms", 0.95) /
                  1000.0);

  std::printf("\npipeline dashboard:\n");
  bench::print_metrics_dashboard(registry.snapshot());

  std::printf("\ndrop attribution (traced observations):\n");
  for (const auto& [stage, count] : tracker.drop_counts())
    std::printf("  %-20s %llu\n", obs::drop_stage_name(stage),
                static_cast<unsigned long long>(count));
  std::printf("end-to-end: %zu of %zu spans persisted; capture->server "
              "median %.0fs\n",
              tracker.count_through(obs::Hop::kPersisted), tracker.size(),
              tracker.delay_cdf(obs::Hop::kSensed, obs::Hop::kRouted).empty()
                  ? 0.0
                  : tracker.delay_cdf(obs::Hop::kSensed, obs::Hop::kRouted)
                            .quantile(0.5) /
                        1000.0);

  if (!trace_path.empty()) {
    if (obs::write_trace_file(trace_path, &tracker,
                              &obs::FlightRecorder::instance())) {
      std::printf("trace written to %s (open in Perfetto or "
                  "chrome://tracing)\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write --trace file %s\n",
                   trace_path.c_str());
      return 1;
    }
  }
  return 0;
}
