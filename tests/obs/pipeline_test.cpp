// Observability across the real pipeline: spans stamped by client, broker
// drop hook, server ingest and assimilation must (a) reproduce the
// Figure-17 delay CDF that the bench computes from DeliveryRecords and
// (b) attribute drops to the stage that caused them, while the shared
// registry serves one /metrics document for the whole deployment.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "assim/cycle.h"
#include "client/goflow_client.h"
#include "core/goflow_server.h"
#include "core/rest_api.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace mps {
namespace {

class PipelineObservabilityTest : public ::testing::Test {
 protected:
  PipelineObservabilityTest() : server(sim, broker, db), tracker(&registry) {
    broker.set_metrics(&registry);
    db.set_metrics(&registry);
    server.set_metrics(&registry);
    server.set_tracer(&tracker);

    auto reg = server.register_app("soundcity").value_or_throw();
    admin_token = reg.admin_token;
    client_token = server
                       .register_account(admin_token, "soundcity", "field",
                                         core::Role::kClient)
                       .value_or_throw();
  }

  struct Device {
    std::unique_ptr<phone::Phone> phone;
    std::unique_ptr<client::GoFlowClient> goflow;
  };

  Device make_device(const std::string& id, std::size_t buffer_size,
                     bool share = true) {
    auto channels =
        server.login_client(client_token, "soundcity", id).value_or_throw();
    phone::PhoneConfig pc;
    pc.model = phone::top20_catalog().front();
    pc.user = id;
    pc.seed = 7;
    pc.connectivity = net::ConnectivityParams::always_connected();
    pc.horizon = days(3);
    Device d;
    d.phone = std::make_unique<phone::Phone>(pc);
    client::ClientConfig cc =
        client::ClientConfig::v1_3(id, channels.exchange, buffer_size);
    cc.share = share;
    d.goflow = std::make_unique<client::GoFlowClient>(
        sim, broker, *d.phone, cc, [](TimeMs) { return 62.0; },
        [](TimeMs) { return std::pair<double, double>{5000.0, 5000.0}; });
    d.goflow->set_metrics(&registry);
    d.goflow->set_tracer(&tracker);
    return d;
  }

  sim::Simulation sim;
  broker::Broker broker;
  docstore::Database db;
  core::GoFlowServer server;
  obs::Registry registry;
  obs::SpanTracker tracker;
  std::string admin_token;
  std::string client_token;
};

TEST_F(PipelineObservabilityTest, SpanDelaysMatchDeliveryRecords) {
  Device d = make_device("mob1", 10);
  d.goflow->start();
  sim.run_until(hours(6));

  // The bench's Figure-17 input: per-observation DeliveryRecord delays.
  const auto& deliveries = d.goflow->deliveries();
  ASSERT_GT(deliveries.size(), 0u);
  std::vector<double> expected;
  expected.reserve(deliveries.size());
  for (const auto& record : deliveries)
    expected.push_back(static_cast<double>(record.delay()));
  std::sort(expected.begin(), expected.end());

  // The span view of the same observations: sensed -> uploaded.
  std::vector<double> traced =
      tracker.hop_delays(obs::Hop::kSensed, obs::Hop::kUploaded);
  std::sort(traced.begin(), traced.end());
  ASSERT_EQ(traced.size(), expected.size());
  for (std::size_t i = 0; i < traced.size(); ++i)
    EXPECT_DOUBLE_EQ(traced[i], expected[i]) << "sample " << i;

  // The broker publishes at the delivery time, so sensed -> routed is the
  // same distribution (the CDF the paper plots as capture-to-server).
  EmpiricalCdf span_cdf = tracker.delay_cdf(obs::Hop::kSensed, obs::Hop::kRouted);
  EmpiricalCdf bench_cdf;
  bench_cdf.add_all(expected);
  ASSERT_EQ(span_cdf.size(), bench_cdf.size());
  for (double q : {0.1, 0.5, 0.9, 0.99})
    EXPECT_DOUBLE_EQ(span_cdf.quantile(q), bench_cdf.quantile(q)) << "q=" << q;
}

TEST_F(PipelineObservabilityTest, EveryHopIsStampedThroughTheStack) {
  Device d = make_device("mob1", 5);
  d.goflow->start();
  sim.run_until(hours(1));

  std::size_t persisted = tracker.count_through(obs::Hop::kPersisted);
  EXPECT_EQ(persisted, server.total_observations());
  EXPECT_GT(persisted, 0u);

  // Per-hop ordering holds on every completed span.
  for (std::uint64_t id = 1; id <= tracker.size(); ++id) {
    const obs::SpanRecord* record = tracker.find(id);
    ASSERT_NE(record, nullptr);
    if (!record->stamped(obs::Hop::kPersisted)) continue;
    EXPECT_LE(record->at(obs::Hop::kSensed), record->at(obs::Hop::kBuffered));
    EXPECT_LE(record->at(obs::Hop::kBuffered), record->at(obs::Hop::kUploaded));
    // Broker publish happens at the upload completion time.
    EXPECT_EQ(record->at(obs::Hop::kUploaded), record->at(obs::Hop::kRouted));
    EXPECT_LE(record->at(obs::Hop::kRouted), record->at(obs::Hop::kPersisted));
  }
}

TEST_F(PipelineObservabilityTest, AssimilationStampsFinalHop) {
  Device d = make_device("mob1", 1);
  d.goflow->start();
  sim.run_until(hours(1));

  // Pull the stored window back out and run one analysis step over it.
  core::ObservationFilter filter;
  filter.app = "soundcity";
  auto docs = server.query_observations(admin_token, filter).value_or_throw();
  ASSERT_GT(docs.size(), 0u);
  std::vector<phone::Observation> window;
  for (const Value& doc : docs)
    window.push_back(phone::Observation::from_document(doc));

  assim::CycleConfig cc;
  cc.step = hours(1);
  assim::AssimilationCycle cycle(
      [](TimeMs) { return assim::Grid(4, 4, 10000.0, 10000.0, 50.0); }, 0, cc);
  cycle.set_metrics(&registry);
  cycle.set_tracer(&tracker);
  assim::CycleStep step = cycle.advance(window);

  EXPECT_EQ(tracker.count_through(obs::Hop::kAssimilated), window.size());
  EXPECT_EQ(registry.counter("assim.steps").value(), 1u);
  EXPECT_EQ(registry.counter("assim.observations_used").value(),
            step.observations_used);
  EXPECT_GT(registry.histogram("assim.cycle_ms").count(), 0u);

  // With the cycle wired into the shared registry, GET /metrics now carries
  // broker + client + docstore + assimilation metrics in one document.
  core::GoFlowRestApi api(server);
  core::RestRequest request;
  request.method = "GET";
  request.path = "/metrics";
  core::RestResponse response = api.handle(request);
  ASSERT_EQ(response.status, 200);
  const Value* counters = response.body.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->get_int("assim.steps"), 1);
  EXPECT_GT(counters->get_int("broker.published"), 0);
  EXPECT_GT(counters->get_int("client.recorded"), 0);
  EXPECT_GT(counters->get_int("docstore.inserts"), 0);
  EXPECT_DOUBLE_EQ(
      response.body.find("gauges")->get_double("assim.innovation_rms"),
      registry.gauge("assim.innovation_rms").value());
}

TEST_F(PipelineObservabilityTest, MetricsEndpointServesOneDocument) {
  Device d = make_device("mob1", 5);
  d.goflow->start();
  sim.run_until(hours(2));
  // Exercise the docstore query path too.
  core::ObservationFilter filter;
  filter.app = "soundcity";
  server.query_observations(admin_token, filter).value_or_throw();

  core::GoFlowRestApi api(server);
  core::RestRequest request;
  request.method = "GET";
  request.path = "/metrics";
  core::RestResponse response = api.handle(request);
  ASSERT_EQ(response.status, 200);

  // One document carries broker, client, docstore and server metrics.
  const Value* counters = response.body.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GT(counters->get_int("broker.published"), 0);
  EXPECT_GT(counters->get_int("broker.consumed"), 0);
  EXPECT_GT(counters->get_int("client.recorded"), 0);
  EXPECT_GT(counters->get_int("client.uploads"), 0);
  EXPECT_GT(counters->get_int("docstore.inserts"), 0);
  EXPECT_GT(counters->get_int("docstore.plans_indexed"), 0);
  EXPECT_GT(counters->get_int("server.batches_ingested"), 0);
  EXPECT_GT(counters->get_int("span.started"), 0);
  const Value* gauges = response.body.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_GT(gauges->get_double("docstore.documents"), 0.0);
  EXPECT_GT(gauges->get_double("broker.queues"), 0.0);
  const Value* histograms = response.body.find("histograms");
  ASSERT_NE(histograms, nullptr);
  ASSERT_NE(histograms->find("client.delivery_delay_ms"), nullptr);
  EXPECT_GT(histograms->find("client.delivery_delay_ms")->get_int("count"), 0);
  ASSERT_NE(histograms->find("server.ingest_delay_ms"), nullptr);

  // Text form on request.
  request.query["format"] = "text";
  response = api.handle(request);
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.body.get_string("text").find("counter broker.published"),
            std::string::npos);
}

TEST_F(PipelineObservabilityTest, MetricsEndpointUnavailableWithoutRegistry) {
  server.set_metrics(nullptr);
  core::GoFlowRestApi api(server);
  core::RestRequest request;
  request.method = "GET";
  request.path = "/metrics";
  EXPECT_EQ(api.handle(request).status, 503);
}

TEST_F(PipelineObservabilityTest, NotSharedDropsAreAttributed) {
  Device d = make_device("private1", 5, /*share=*/false);
  d.goflow->sense_now(phone::SensingMode::kManual);
  EXPECT_EQ(tracker.size(), 1u);
  EXPECT_EQ(tracker.find(1)->dropped, obs::DropStage::kNotShared);
  EXPECT_EQ(registry.counter("span.dropped.not_shared").value(), 1u);
  EXPECT_EQ(broker.stats().published, 0u);
}

TEST_F(PipelineObservabilityTest, BrokerExpiryAndOverflowAreAttributed) {
  // A side queue with a short TTL and a tiny bound, fed by the app
  // exchange: batches land both here and in the ingest queue.
  broker::QueueOptions options;
  options.message_ttl = minutes(1);
  options.max_length = 1;
  broker.declare_queue("slow-consumer", options).throw_if_error();
  broker.bind_queue("app.soundcity", "slow-consumer", "#").throw_if_error();

  Device d = make_device("mob1", 1);
  d.goflow->sense_now(phone::SensingMode::kManual);
  sim.run();
  std::uint64_t first = 1;  // the only span so far
  ASSERT_EQ(tracker.size(), 1u);
  EXPECT_TRUE(tracker.find(first)->stamped(obs::Hop::kPersisted));

  // A second batch overflows the bounded queue: the *first* batch is the
  // drop-head victim (its ingest-queue copy already completed the
  // pipeline; the side-queue copy records the drop). The second batch
  // then ages out via TTL.
  d.goflow->sense_now(phone::SensingMode::kManual);
  sim.run();
  EXPECT_EQ(tracker.find(first)->dropped, obs::DropStage::kOverflowInBroker);

  sim.run_until(sim.now() + minutes(5));
  broker.expire_messages("slow-consumer", sim.now());
  const obs::SpanRecord* second = tracker.find(2);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->dropped, obs::DropStage::kExpiredInBroker);
  EXPECT_EQ(registry.counter("broker.expired").value(), 1u);
  EXPECT_EQ(registry.counter("broker.dropped_overflow").value(), 1u);
}

TEST_F(PipelineObservabilityTest, DuplicateBatchesAreRejectedByServer) {
  Device d = make_device("mob1", 1);
  d.goflow->sense_now(phone::SensingMode::kManual);
  sim.run();
  ASSERT_EQ(server.total_observations(), 1u);

  // Replay the stored batch: at-least-once redelivery with the same
  // batch_id. The span of the redelivered copy is attributed to the
  // server's idempotence check.
  core::ObservationFilter filter;
  filter.app = "soundcity";
  auto docs = server.query_observations(admin_token, filter).value_or_throw();
  ASSERT_EQ(docs.size(), 1u);
  std::uint64_t replay_span = tracker.begin(sim.now());
  Object obs_doc;
  obs_doc.set("captured_at", Value(sim.now()));
  obs_doc.set("span", Value(static_cast<std::int64_t>(replay_span)));
  Value batch(Object{
      {"app", Value("soundcity")},
      {"client", Value("mob1")},
      {"batch_id", Value("mob1#1")},  // first batch's id -> duplicate
      {"observations", Value(Array{Value(std::move(obs_doc))})}});
  broker
      .publish(server.config().goflow_exchange, "soundcity.obs.mob1",
               std::move(batch), sim.now())
      .value_or_throw();

  EXPECT_EQ(server.duplicate_batches(), 1u);
  EXPECT_EQ(server.total_observations(), 1u);
  EXPECT_EQ(tracker.find(replay_span)->dropped,
            obs::DropStage::kRejectedByServer);
  EXPECT_EQ(registry.counter("server.duplicate_batches").value(), 1u);
  EXPECT_EQ(registry.counter("span.dropped.rejected_by_server").value(), 1u);
}

TEST_F(PipelineObservabilityTest, UnroutablePublishesAreAttributed) {
  broker.declare_exchange("dead-end", broker::ExchangeType::kTopic)
      .throw_if_error();
  std::uint64_t span = tracker.begin(0);
  Object obs_doc;
  obs_doc.set("captured_at", Value(static_cast<std::int64_t>(0)));
  obs_doc.set("span", Value(static_cast<std::int64_t>(span)));
  Value batch(
      Object{{"observations", Value(Array{Value(std::move(obs_doc))})}});
  broker.publish("dead-end", "nowhere", std::move(batch), 0).value_or_throw();
  EXPECT_EQ(tracker.find(span)->dropped, obs::DropStage::kUnroutable);
  EXPECT_EQ(registry.counter("broker.unroutable").value(), 1u);
}

TEST_F(PipelineObservabilityTest, SimHookSnapshotsPeriodically) {
  Device d = make_device("mob1", 5);
  d.goflow->start();
  std::vector<TimeMs> fired;
  sim.set_metrics_hook(hours(1), [&](TimeMs t) {
    fired.push_back(t);
    registry.snapshot();  // a registry read at a period boundary
  });
  sim.run_until(hours(6));
  ASSERT_EQ(fired.size(), 6u);
  for (std::size_t i = 0; i < fired.size(); ++i)
    EXPECT_EQ(fired[i], static_cast<TimeMs>(hours(1) * (i + 1)));
  sim.clear_metrics_hook();
  sim.run_until(hours(8));
  EXPECT_EQ(fired.size(), 6u);
}

}  // namespace
}  // namespace mps
