// Registry coverage audit: after a full chaos run with the durability
// substrate wired and the fleet publishing over loopback sockets, the
// registry export must carry every metric family the telemetry plane
// promises — durable.*, exec.*, retry.*, fault.*, net.* — and both
// exporters must be deterministic (sorted by name, identical across
// repeated export calls). The registry reads the components' own
// counters, so it must agree with their stats(), keep the counts of
// components destroyed before the read, and survive either side being
// destroyed first.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/value.h"
#include "core/recovery.h"
#include "durable/storage.h"
#include "exec/sweep.h"
#include "fault/fault.h"
#include "net/net_server.h"
#include "obs/metrics.h"
#include "study/invariants.h"
#include "study/study.h"

namespace mps::study {
namespace {

/// The chaos run's components, alive, for checks against their stats().
struct Wired {
  const broker::Broker& broker;
  const docstore::Database& db;
  const net::NetServer& net_server;
  const fault::FaultPlan& plan;
  const StudyRunner& runner;
};

// One small kill-chaos run wiring every subsystem into `registry`;
// `inspect` sees the components after the run, before they are destroyed.
void run_wired_chaos(obs::Registry& registry,
                     const std::function<void(const Wired&)>& inspect = {}) {
  sim::Simulation sim;
  broker::Broker broker;
  docstore::Database db;
  broker.set_metrics(&registry);
  db.set_metrics(&registry);
  core::GoFlowServer server(sim, broker, db);
  obs::SpanTracker tracer(&registry);
  server.set_metrics(&registry);
  server.set_tracer(&tracer);

  // Socket mode, so the net.* families land in the same export. The
  // registry (the caller's) outlives the server: ~NetServer closes its
  // connections, which bumps the disconnect counter.
  net::NetServer net_server(sim, broker);
  net_server.set_metrics(&registry);

  durable::MemStorageEnv env;
  core::ServerLifecycle lifecycle(env, sim, broker, db, server, {}, &registry);

  fault::FaultPlan plan = fault::FaultPlan::profile("server-kill-lossy", 5);

  crowd::PopulationConfig pc;
  pc.seed = 5;
  pc.device_scale = 0.005;
  pc.obs_scale = 0.02;
  pc.horizon = days(2);
  crowd::Population pop = crowd::Population::generate(pc);

  StudyConfig sc;
  sc.seed = 5;
  sc.duration_days = 1;
  sc.metrics = &registry;
  sc.tracer = &tracer;
  sc.faults = &plan;
  sc.lifecycle = &lifecycle;
  sc.snapshot_period = hours(6);
  sc.drain = hours(1);
  sc.net_server = &net_server;

  StudyRunner runner(pop, sc, sim, broker, server);
  runner.run();
  if (inspect) inspect(Wired{broker, db, net_server, plan, runner});

  // The sweep/executor layer mirrors its stats explicitly.
  exec::SweepExecutor sweep(2);
  sweep.run(4, [](std::size_t) {});
  sweep.mirror_into(registry);
}

/// The parity set: each name's total over every instance's stats().
std::map<std::string, std::uint64_t> stats_totals(const Wired& w) {
  std::map<std::string, std::uint64_t> t;
  t["broker.published"] = w.broker.stats().published;
  t["net.frames_in"] = w.net_server.stats().frames_in;
  for (const std::string& name : w.db.collection_names())
    t["docstore.inserts"] +=
        w.db.find_collection(name)->stats().total_inserts;
  for (const client::GoFlowClient* c : w.runner.clients()) {
    t["client.recorded"] += c->stats().observations_recorded;
    t["net.client_resends"] += c->config().transport->stats().resends;
  }
  for (std::size_t i = 0; i < fault::kFaultSiteCount; ++i) {
    const auto site = static_cast<fault::FaultSite>(i);
    t[std::string("fault.injected.") + fault::fault_site_name(site)] =
        w.plan.injected(site);
  }
  return t;
}

bool any_starts_with(const std::vector<std::string>& names,
                     const std::string& prefix) {
  for (const std::string& n : names)
    if (n.rfind(prefix, 0) == 0) return true;
  return false;
}

TEST(RegistryAudit, ChaosRunExportsEveryMetricFamily) {
  obs::Registry registry;
  run_wired_chaos(registry);

  obs::MetricsSnapshot snap = registry.snapshot();
  std::vector<std::string> names;
  for (const auto& [name, v] : snap.counters) names.push_back(name);
  for (const auto& [name, v] : snap.gauges) names.push_back(name);
  for (const auto& [name, v] : snap.histograms) names.push_back(name);

  // The families the telemetry plane documents. A wiring regression that
  // silently detaches one of them fails here, not in a dashboard.
  for (const char* prefix :
       {"durable.", "exec.", "retry.", "fault.", "broker.", "server.",
        "client.", "span.", "obs.", "ingest.", "net."}) {
    EXPECT_TRUE(any_starts_with(names, prefix))
        << "no metric with prefix " << prefix << " in the export";
  }

  // Specific load-bearing metrics the tooling reads by exact name.
  EXPECT_TRUE(registry.has_counter("durable.wal_appends"));
  EXPECT_TRUE(registry.has_counter("durable.replayed_records"));
  // What a snapshot costs (DESIGN.md §11): bytes written by every
  // snapshot, the newest one's size and the segments it lists.
  EXPECT_TRUE(registry.has_counter("durable.snapshot_bytes_written"));
  EXPECT_GT(registry.counter("durable.snapshot_bytes_written").value(), 0u);
  EXPECT_TRUE(registry.has_gauge("durable.snapshot_bytes"));
  EXPECT_TRUE(registry.has_gauge("durable.snapshot_segments"));
  EXPECT_TRUE(registry.has_counter("retry.client_upload"));
  EXPECT_TRUE(registry.has_counter("obs.spans_evicted"));
  EXPECT_TRUE(registry.has_gauge("exec.sweep_runs"));
  // Ingest fast path & admission control (DESIGN.md §13).
  EXPECT_TRUE(registry.has_counter("server.admission_shed"));
  EXPECT_TRUE(registry.has_counter("server.admission_accepted"));
  EXPECT_TRUE(registry.has_counter("ingest.arena_created"));
  EXPECT_TRUE(registry.has_gauge("ingest.arena_high_water_bytes"));
  // The stored form (DESIGN.md §13): rows still held as batch columns.
  EXPECT_TRUE(registry.has_gauge("docstore.lazy_rows"));
  EXPECT_TRUE(registry.has_counter("fault.checked.admission_shed"));
  // Network serving plane (DESIGN.md §14): both ends of the socket.
  EXPECT_TRUE(registry.has_counter("net.accepted"));
  EXPECT_TRUE(registry.has_counter("net.frame_rejects"));
  EXPECT_TRUE(registry.has_counter("net.publishes"));
  EXPECT_TRUE(registry.has_counter("net.client_connects"));
  EXPECT_TRUE(registry.has_counter("net.client_resends"));
  EXPECT_TRUE(registry.has_gauge("net.connections"));
}

TEST(RegistryAudit, ExportsAreSortedAndDeterministic) {
  obs::Registry registry;
  registry.counter("z.last").inc();
  registry.counter("a.first").inc(2);
  registry.counter("m.middle").inc(3);
  registry.gauge("g.b").set(1.0);
  registry.gauge("g.a").set(2.0);
  registry.histogram("h.x").observe(5.0);

  obs::MetricsSnapshot snap = registry.snapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i)
    EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);
  for (std::size_t i = 1; i < snap.gauges.size(); ++i)
    EXPECT_LT(snap.gauges[i - 1].first, snap.gauges[i].first);

  // Same registry, same values -> byte-identical exports, both formats.
  EXPECT_EQ(registry.export_text(), registry.export_text());
  EXPECT_EQ(registry.export_json().to_json(),
            registry.export_json().to_json());

  // The text export lists counters in sorted order.
  std::string text = registry.export_text();
  EXPECT_LT(text.find("a.first"), text.find("m.middle"));
  EXPECT_LT(text.find("m.middle"), text.find("z.last"));

  // The JSON export round-trips with the same values.
  Value parsed = Value::parse_json(registry.export_json().to_json());
  EXPECT_EQ(parsed.at("counters").get_int("a.first", 0), 2);
  EXPECT_DOUBLE_EQ(parsed.at("gauges").get_double("g.a", 0.0), 2.0);
}

TEST(RegistryAudit, CountersEqualComponentStatsAndOutliveComponents) {
  obs::Registry registry;
  std::map<std::string, std::uint64_t> totals;
  run_wired_chaos(registry, [&](const Wired& w) {
    totals = stats_totals(w);
    for (const auto& [name, total] : totals)
      EXPECT_EQ(registry.counter(name).value(), total) << name;
  });
  ASSERT_GT(totals["net.client_resends"], 0u);
  ASSERT_GT(totals["fault.injected.broker_publish"], 0u);
  // Every client, NetClient, broker and plan is gone now: the registry
  // kept what each counted.
  for (const auto& [name, total] : totals)
    EXPECT_EQ(registry.counter(name).value(), total) << name;
}

TEST(RegistryAudit, ResetZeroesReadsWithoutTouchingComponentStats) {
  obs::Registry registry;
  run_wired_chaos(registry, [&](const Wired& w) {
    const std::map<std::string, std::uint64_t> before = stats_totals(w);
    registry.reset();
    for (const auto& [name, value] : registry.snapshot().counters)
      EXPECT_EQ(value, 0u) << name;
    EXPECT_EQ(stats_totals(w), before);
  });
}

// Either side may go first: a registry destroyed before its components
// leaves them nothing to touch on their way out.
TEST(RegistryAudit, RegistryDestroyedBeforeItsComponents) {
  sim::Simulation sim;
  broker::Broker broker;
  docstore::Database db;
  core::GoFlowServer server(sim, broker, db);
  durable::MemStorageEnv env;
  fault::FaultPlan plan = fault::FaultPlan::lossy_network(3);
  auto registry = std::make_unique<obs::Registry>();
  obs::SpanTracker tracer(registry.get());
  broker.set_metrics(registry.get());
  db.set_metrics(registry.get());
  server.set_metrics(registry.get());
  plan.set_metrics(registry.get());
  core::ServerLifecycle lifecycle(env, sim, broker, db, server, {},
                                  registry.get());
  server.register_app("app").value_or_throw();
  plan.should_fail(fault::FaultSite::kBrokerPublish);
  tracer.begin(0);
  ASSERT_GT(registry->counter("broker.published").value() +
                registry->counter("docstore.inserts").value(),
            0u);
  registry = nullptr;  // the registry goes first
  lifecycle.crash();  // destroys the journal and its WAL: their sources detach
  db.set_metrics(nullptr);
  plan.should_fail(fault::FaultSite::kBrokerPublish);
  tracer.begin(0);
}

}  // namespace
}  // namespace mps::study
