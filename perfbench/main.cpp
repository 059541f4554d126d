// Study-replay program: one replay of the crowd study through the serving
// configuration given on the command line, in a fresh process.
//
//   perfbench_replay --workload clean_inproc --seed 7 --device-scale 0.03
//       --target-obs 10000 --days 14 [--profile server-kill --journaled 1]
//       [--shards 3] [--socket 1] [--snapshot-hours 6]
//       [--mode timed|traced|bare] [--digest 1] [--trace-out spans.json]
//
// It prints one JSON object on stdout: set-up and kernel wall times,
// observations recorded and stored, peak bytes per stored observation,
// the wall time of every recovery, the latency of every operator read,
// the invariant audit and the registry counters. run.py aggregates many
// such replays into the benchmark's metrics.
//
// Modes:
//   timed   what the end-to-end metrics come from: a t=0 marker event
//           ends set-up, and recover events are bracketed by marker
//           events at the same virtual instant;
//   traced  additionally brackets kills and snapshots, records one span
//           per virtual hour and replays the stored batches layer by
//           layer afterwards (replay.cpp);
//   bare    no bench-owned events at all (the non-perturbation
//           reference: its --digest must equal the traced run's).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "core/recovery.h"
#include "core/rest_api.h"
#include "durable/storage.h"
#include "fault/fault.h"
#include "net/net_server.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "perfbench.h"
#include "phone/device_catalog.h"
#include "shard/fleet.h"
#include "study/invariants.h"
#include "study/study.h"

using namespace mps;
using perfbench::Clock;
using perfbench::Span;
using perfbench::Workload;
using perfbench::seconds_between;

namespace {

enum class Mode { kTimed, kTraced, kBare };

/// Operator read-mix queries after every replay.
constexpr int kReads = 100;
/// Crash/recover cycles after a replay that has no recoveries of its own:
/// with ten replays a run pools 100 samples, so its p90 has ten above it.
constexpr int kDrills = 10;
/// The fault plan's seed. The kill schedule is part of the workload, like
/// its profile, and only the population varies with --seed: a recovery's
/// cost depends on when the kill lands, and drawing the schedule per seed
/// doubled the replay-to-replay spread of recovery times.
constexpr std::uint64_t kFaultSeed = 7;

bool parse_args(int argc, char** argv, Workload& w, Mode& mode, bool& digest,
                std::string& trace_out) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") w.name = v;
    else if (key == "--seed") w.seed = std::strtoull(v, nullptr, 10);
    else if (key == "--device-scale") w.device_scale = std::strtod(v, nullptr);
    else if (key == "--target-obs") w.target_obs = std::strtod(v, nullptr);
    else if (key == "--days") w.days = std::atoi(v);
    else if (key == "--profile") w.profile = v;
    else if (key == "--journaled") w.journaled = std::atoi(v) != 0;
    else if (key == "--shards") w.shards = static_cast<std::uint32_t>(std::atoi(v));
    else if (key == "--socket") w.socket = std::atoi(v) != 0;
    else if (key == "--snapshot-hours") w.snapshot_hours = std::atoi(v);
    else if (key == "--digest") digest = std::atoi(v) != 0;
    else if (key == "--trace-out") trace_out = v;
    else if (key == "--mode") {
      const std::string m = v;
      if (m == "timed") mode = Mode::kTimed;
      else if (m == "traced") mode = Mode::kTraced;
      else if (m == "bare") mode = Mode::kBare;
      else return false;
    } else {
      return false;
    }
  }
  if ((argc - 1) % 2 != 0) return false;
  if (w.days < 1 || w.shards < 1 || w.shards > 64 || w.target_obs <= 0)
    return false;
  if (w.journaled && w.shards > 1) return false;
  if (w.socket && w.shards > 1) return false;
  return true;
}

/// The observation scale at which the seed's population is expected to
/// store `w.target_obs` opportunistic observations: per-user rates are
/// linear in the scale and every other draw is independent of it, so the
/// workload's input size does not swing with which heavy users a seed
/// happens to draw, or whether they opt in to sharing.
double calibrated_obs_scale(const Workload& w) {
  crowd::PopulationConfig probe;
  probe.seed = w.seed;
  probe.device_scale = w.device_scale;
  probe.obs_scale = 1.0;
  probe.horizon = days(w.days);
  const crowd::Population population = crowd::Population::generate(probe);
  double expected = 0.0;
  for (const crowd::UserProfile& u : population.users())
    if (u.shares) expected += u.obs_per_day * u.active_days();
  if (expected <= 0.0) throw std::runtime_error("population stores nothing");
  return w.target_obs / expected;
}

/// Refuses numbers from a build the compiler did not optimise.
bool optimised_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  const std::string bt = PERFBENCH_BUILD_TYPE;
  return bt == "Release" || bt == "RelWithDebInfo";
#else
  return false;
#endif
}

/// Order-sensitive FNV-1a digest of every stored observation document,
/// node by node: equal digests mean byte-identical observation stores.
std::uint64_t store_digest(
    const std::vector<const docstore::Collection*>& collections) {
  std::uint64_t h = fnv1a64("perfbench-store");
  for (const docstore::Collection* c : collections) {
    c->for_each([&h](const docstore::Document& doc) {
      const std::string json = doc.to_json();
      h = (h ^ fnv1a64(json)) * 0x100000001b3ULL;
    });
  }
  return h;
}

Value number_object(const std::map<std::string, double>& m) {
  Object o;
  for (const auto& [k, v] : m) o.set(k, Value(v));
  return Value(std::move(o));
}

Value number_array(const std::vector<double>& values) {
  Array a;
  a.reserve(values.size());
  for (double v : values) a.push_back(Value(v));
  return Value(std::move(a));
}

/// Chrome trace_event file of the bench-owned spans.
bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  Array events;
  for (const Span& span : spans)
    events.push_back(Value(Object{{"name", Value(span.name)},
                                  {"ph", Value("X")},
                                  {"pid", Value(std::int64_t{1})},
                                  {"tid", Value(std::int64_t{1})},
                                  {"ts", Value(span.start_us)},
                                  {"dur", Value(span.dur_us)}}));
  std::ofstream f(path);
  f << Value(Object{{"traceEvents", Value(std::move(events))}}).to_json()
    << "\n";
  return f.good();
}

/// The operator read mix: one closed-loop client cycling through
/// analytics, a filtered count, two model/provider/time-window queries
/// and a limited export, with parameters drawn from the workload seed.
/// The window query takes the middle two fifths of the mix, so the median
/// falls inside one kind of query rather than in the gap between two.
core::RestRequest read_request(int i, Rng& rng, const std::string& admin,
                               int days_run) {
  static const char* const kProviders[] = {"gps", "network", "fused"};
  const auto& catalog = phone::top20_catalog();
  const std::string model =
      catalog[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(catalog.size()) - 1))]
          .id;
  const std::string provider =
      kProviders[static_cast<std::size_t>(rng.uniform_int(0, 2))];
  const TimeMs from = static_cast<TimeMs>(
      rng.uniform() * static_cast<double>(days(days_run)));
  const TimeMs until = from + hours(rng.uniform_int(6, 48));
  switch (i % 5) {
    case 0:
      return {"GET", "/apps/soundcity/analytics", admin, Value(), {}};
    case 1:
      return {"GET", "/apps/soundcity/observations/count", admin, Value(),
              {{"model", model},
               {"localized", "true"},
               {"max_accuracy", std::to_string(rng.uniform_int(20, 500))}}};
    case 2:
    case 3:
      return {"GET", "/apps/soundcity/observations", admin, Value(),
              {{"model", model},
               {"provider", provider},
               {"from", std::to_string(from)},
               {"until", std::to_string(until)}}};
    default:
      return {"GET", "/apps/soundcity/observations/export", admin, Value(),
              {{"provider", provider},
               {"limit", std::to_string(rng.uniform_int(10, 100))}}};
  }
}

int run(const Workload& w, Mode mode, bool want_digest,
        const std::string& trace_out) {
  const Clock::time_point epoch = Clock::now();
  std::vector<Span> spans;
  auto add_span = [&](std::string name, Clock::time_point a,
                      Clock::time_point b) {
    spans.push_back({std::move(name),
                     std::chrono::duration<double, std::micro>(a - epoch).count(),
                     std::chrono::duration<double, std::micro>(b - a).count()});
  };
  const bool traced = mode == Mode::kTraced;
  const std::uint64_t rss_before = perfbench::vm_rss_bytes();

  // --- Set-up: population, serving plane, runner ----------------------
  const Clock::time_point t_generate = Clock::now();
  crowd::PopulationConfig pop_config;
  pop_config.seed = w.seed;
  pop_config.device_scale = w.device_scale;
  pop_config.obs_scale = w.obs_scale;
  pop_config.horizon = days(w.days);
  const crowd::Population population =
      crowd::Population::generate(pop_config);
  const Clock::time_point t_construct = Clock::now();

  sim::Simulation sim;
  obs::Registry registry;
  obs::SpanTracker tracker(&registry);
  broker::Broker broker;
  docstore::Database db;
  core::GoFlowServer server(sim, broker, db);
  broker.set_metrics(&registry);
  db.set_metrics(&registry);
  server.set_metrics(&registry);
  server.set_tracer(&tracker);

  study::StudyConfig config;
  config.seed = w.seed;
  config.duration_days = w.days;
  config.journey_release = days(w.days) * 2 / 3;
  config.metrics = &registry;
  config.tracer = &tracker;

  std::unique_ptr<shard::ShardFleet> fleet;
  if (w.shards > 1) {
    shard::FleetConfig fleet_config;
    fleet_config.shards = w.shards;
    fleet_config.metrics = &registry;
    fleet = std::make_unique<shard::ShardFleet>(sim, fleet_config);
    for (std::uint32_t s = 0; s < fleet->size(); ++s) {
      fleet->node(s).broker().set_metrics(&registry);
      fleet->node(s).db().set_metrics(&registry);
      fleet->node(s).server().set_metrics(&registry);
      fleet->node(s).server().set_tracer(&tracker);
    }
    config.shard_fleet = fleet.get();
    config.snapshot_period = hours(w.snapshot_hours);
  }

  net::NetServer net_server(sim, broker);
  if (w.socket) {
    net_server.set_metrics(&registry);
    config.net_server = &net_server;
  }

  fault::FaultPlan faults = fault::FaultPlan::none();
  if (w.profile != "none") {
    faults = fault::FaultPlan::profile(w.profile, kFaultSeed);
    faults.set_metrics(&registry);
    config.faults = &faults;
  }
  durable::MemStorageEnv storage;
  std::unique_ptr<core::ServerLifecycle> lifecycle;
  if (w.journaled) {
    lifecycle = std::make_unique<core::ServerLifecycle>(
        storage, sim, broker, db, server, durable::JournalConfig{}, &registry);
    config.lifecycle = lifecycle.get();
    config.snapshot_period = hours(w.snapshot_hours);
  }

  std::vector<core::GoFlowServer*> servers;
  if (fleet) {
    for (std::uint32_t s = 0; s < fleet->size(); ++s)
      servers.push_back(&fleet->node(s).server());
  } else {
    servers.push_back(&server);
  }

  const Clock::time_point t_build = Clock::now();
  study::StudyRunner runner(population, config, sim,
                            fleet ? fleet->node(0).broker() : broker,
                            *servers[0]);

  // --- Bench-owned events ---------------------------------------------
  // Each is scheduled before the runner schedules anything, so at equal
  // virtual times it fires first; a bracket's closer is scheduled from
  // inside the opener, so it fires after the runner's event at that
  // instant. Neither touches the study.
  Clock::time_point t_first{};
  std::vector<double> recover_ms;
  std::vector<double> snapshot_ms;
  std::vector<double> kill_ms;
  auto bracket = [&](TimeMs at, const char* name, std::vector<double>* out) {
    sim.at(at, [&sim, &add_span, at, name, out] {
      const Clock::time_point open = Clock::now();
      sim.at(at, [&add_span, open, name, out] {
        const Clock::time_point close = Clock::now();
        out->push_back(
            std::chrono::duration<double, std::milli>(close - open).count());
        add_span(name, open, close);
      });
    });
  };
  const TimeMs horizon = days(w.days);
  if (mode != Mode::kBare) {
    sim.at(0, [&t_first] { t_first = Clock::now(); });
    if (lifecycle && config.faults != nullptr) {
      for (const auto& ev : faults.server_kill_schedule(horizon)) {
        if (traced) bracket(ev.at, "kill", &kill_ms);
        bracket(ev.at + ev.down_for, "recover", &recover_ms);
      }
    }
    if (traced && config.snapshot_period > 0) {
      for (TimeMs t = config.snapshot_period; t < horizon;
           t += config.snapshot_period)
        bracket(t, fleet ? "snapshot_all" : "snapshot", &snapshot_ms);
    }
  }
  std::vector<Clock::time_point> hour_marks;
  if (traced)
    sim.set_metrics_hook(hours(1), [&hour_marks](TimeMs) {
      hour_marks.push_back(Clock::now());
    });

  // --- Kernel ------------------------------------------------------------
  const study::StudyReport report = runner.run();
  const Clock::time_point t_end = Clock::now();
  sim.clear_metrics_hook();

  std::map<std::string, double> out;
  std::map<std::string, double> counters;
  if (mode != Mode::kBare) {
    out["generate_s"] = seconds_between(t_generate, t_construct);
    out["build_s"] = seconds_between(t_build, t_first);
    out["setup_s"] = seconds_between(t_generate, t_first);
    out["kernel_s"] = seconds_between(t_first, t_end);
    add_span("crowd.generate", t_generate, t_construct);
    add_span("construct", t_construct, t_build);
    add_span("study.build", t_build, t_first);
    add_span("kernel", t_first, t_end);
    Clock::time_point prev = t_first;
    for (std::size_t h = 0; h < hour_marks.size(); ++h) {
      add_span("hour", prev, hour_marks[h]);
      prev = hour_marks[h];
    }
  }

  // --- Output check -------------------------------------------------------
  const study::InvariantReport inv =
      study::check_invariants(tracker, servers, runner.clients());
  const std::uint64_t not_shared =
      registry.has_counter("client.dropped_not_shared")
          ? registry.counter("client.dropped_not_shared").value()
          : 0;
  // On-device observations come from the audit, which counts only those
  // not yet stored: the report's in-flight count also holds a batch the
  // server stored whose ack the lossy network dropped.
  const std::uint64_t accounted = report.observations_stored + inv.on_device +
                                  not_shared + inv.in_server;
  const bool books_closed = report.observations_recorded == accounted;
  const std::uint64_t hwm = perfbench::vm_hwm_bytes();

  counters["sim.events"] = static_cast<double>(sim.executed());
  // Wall time of the bracketed kill/recover/snapshot events in the kernel.
  double events_ms = 0.0;
  for (const std::vector<double>* v : {&recover_ms, &kill_ms, &snapshot_ms})
    for (double x : *v) events_ms += x;

  std::vector<const docstore::Collection*> collections;
  for (core::GoFlowServer* s : servers)
    collections.push_back(&s->database().collection("observations"));

  std::string digest_hex;
  if (want_digest) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, store_digest(collections));
    digest_hex = buf;
  }

  // --- Operator read mix on the cold store --------------------------------
  // On a fleet each query goes to every node and the whole fan-out is one
  // read: the operator's view of the study spans all shards.
  std::vector<double> read_ms;
  std::uint64_t read_failed = 0;
  {
    std::vector<std::unique_ptr<core::GoFlowRestApi>> apis;
    for (core::GoFlowServer* s : servers)
      apis.push_back(std::make_unique<core::GoFlowRestApi>(*s));
    Rng rng = Rng(w.seed).child("perfbench-reads");
    read_ms.reserve(kReads);
    for (int i = 0; i < kReads; ++i) {
      const core::RestRequest request =
          read_request(i, rng, runner.admin_token(), w.days);
      bool all_ok = true;
      const Clock::time_point a = Clock::now();
      for (const auto& api : apis) all_ok &= api->handle(request).status == 200;
      const Clock::time_point b = Clock::now();
      read_ms.push_back(std::chrono::duration<double, std::milli>(b - a).count());
      if (!all_ok) ++read_failed;
    }
  }
  // Every registry counter and gauge, named as the registry names it, read
  // after the read mix (which drives the docstore planner) and before the
  // drill (which is not the study).
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  for (const auto& [name, value] : snapshot.counters)
    counters[name] = static_cast<double>(value);
  for (const auto& [name, value] : snapshot.gauges) counters[name] = value;

  // --- Recovery drill (configurations without in-run recoveries) ---------
  // A fresh ServerLifecycle snapshots the final store when it attaches, so
  // each crash/recover restores that snapshot; a fleet node fails over.
  if (!w.journaled && !traced) {
    durable::MemStorageEnv drill_env;
    std::unique_ptr<core::ServerLifecycle> drill;
    if (!fleet)
      drill = std::make_unique<core::ServerLifecycle>(drill_env, sim, broker,
                                                      db, server);
    for (int i = 0; i < kDrills; ++i) {
      if (fleet) {
        shard::ShardNode& node =
            fleet->node(static_cast<std::uint32_t>(i) % fleet->size());
        node.kill();
        const Clock::time_point a = Clock::now();
        node.fail_over();
        recover_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - a).count());
      } else {
        drill->crash();
        const Clock::time_point a = Clock::now();
        drill->recover();
        recover_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - a).count());
      }
    }
  }

  // --- Layer replay (traced runs) -----------------------------------------
  std::map<std::string, double> layers;
  if (traced) {
    const std::vector<perfbench::ReplayBatch> batches =
        perfbench::regroup(collections);
    perfbench::replay_layers(w, population, collections, batches, layers,
                             spans, epoch);
    if (!snapshot_ms.empty()) {
      std::vector<double> sorted = snapshot_ms;
      std::sort(sorted.begin(), sorted.end());
      layers[fleet ? "shard.snapshot_all_p50_ms" : "durable.snapshot_p50_ms"] =
          sorted[sorted.size() / 2];
    }
    layers["time.events_s"] = events_ms / 1000.0;
  }
  if (!trace_out.empty() && !write_spans(trace_out, spans)) {
    std::fprintf(stderr, "perfbench_replay: cannot write %s\n",
                 trace_out.c_str());
    return 1;
  }

  // --- Report -------------------------------------------------------------
  const double stored = static_cast<double>(report.observations_stored);
  out["recorded"] = static_cast<double>(report.observations_recorded);
  out["stored"] = stored;
  out["bytes_per_obs"] =
      stored > 0 ? static_cast<double>(hwm - std::min(hwm, rss_before)) / stored
                 : 0.0;
  out["lost"] = static_cast<double>(inv.lost);
  out["duplicated"] = static_cast<double>(inv.duplicate_spans_stored);
  out["reordered"] = static_cast<double>(inv.order_violations);
  out["read_failed"] = static_cast<double>(read_failed);

  const Value result(Object{
      {"workload", Value(w.name)},
      {"ok", Value(inv.ok() && books_closed)},
      {"books_closed", Value(books_closed)},
      {"digest", Value(digest_hex)},
      {"values", number_object(out)},
      {"counters", number_object(counters)},
      {"layers", number_object(layers)},
      {"recover_ms", number_array(recover_ms)},
      {"read_ms", number_array(read_ms)},
      {"provenance",
       Value(Object{{"build_type", Value(PERFBENCH_BUILD_TYPE)},
                    {"compiler", Value(PERFBENCH_CXX_ID " " __VERSION__)},
                    {"flags", Value(PERFBENCH_CXX_FLAGS)},
                    {"nproc", Value(static_cast<std::int64_t>(
                                  std::thread::hardware_concurrency()))}})}});
  std::printf("%s\n", result.to_json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Workload w;
  Mode mode = Mode::kTimed;
  bool digest = false;
  std::string trace_out;
  if (!parse_args(argc, argv, w, mode, digest, trace_out)) {
    std::fprintf(stderr, "perfbench_replay: bad arguments (see main.cpp)\n");
    return 2;
  }
  if (!optimised_build()) {
    std::fprintf(stderr,
                 "perfbench_replay: refusing to measure an unoptimised "
                 "build (build type '%s')\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  try {
    w.obs_scale = calibrated_obs_scale(w);
    return run(w, mode, digest, trace_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_replay: %s\n", e.what());
    return 1;
  }
}
