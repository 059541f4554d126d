// Edge admission control: the ingest queue's gate sheds publishes at
// the broker edge when the server's pending backlog exceeds the bound
// (or the kAdmissionShed fault fires), and the client's existing
// backoff machinery turns a shed into a delayed, deduplicated retry —
// never a loss, never a duplicate.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "client/goflow_client.h"
#include "core/goflow_server.h"
#include "docstore/database.h"
#include "fault/fault.h"

namespace mps::ingest {
namespace {

class AdmissionTest : public ::testing::Test {
 protected:
  void build_server(core::ServerConfig cfg = {}) {
    server = std::make_unique<core::GoFlowServer>(sim, broker, db, cfg);
    auto reg = server->register_app("soundcity").value_or_throw();
    client_token = server
                       ->register_account(reg.admin_token, "soundcity", "u1",
                                          core::Role::kClient)
                       .value_or_throw();
  }

  Value batch(const std::string& client, int batch_no, TimeMs captured) {
    Object obs;
    obs.set("user", Value("u1"));
    obs.set("model", Value("GT-I9300"));
    obs.set("captured_at", Value(captured));
    obs.set("spl", Value(60.0));
    obs.set("mode", Value("opportunistic"));
    obs.set("activity", Value("still"));
    Array arr;
    arr.push_back(Value(std::move(obs)));
    return Value(Object{
        {"app", Value("soundcity")},
        {"client", Value(client)},
        {"batch_id", Value(client + "#" + std::to_string(batch_no))},
        {"sent_at", Value(sim.now())},
        {"observations", Value(std::move(arr))}});
  }

  Status publish(const std::string& client, int batch_no) {
    auto channels =
        server->login_client(client_token, "soundcity", client)
            .value_or_throw();
    auto r = broker.publish(channels.exchange, "soundcity.obs." + client,
                            batch(client, batch_no, sim.now()), sim.now());
    if (!r.ok()) return err(r.error().code, r.error().message);
    return {};
  }

  sim::Simulation sim;
  broker::Broker broker;
  docstore::Database db;
  std::unique_ptr<core::GoFlowServer> server;
  std::string client_token;
};

TEST_F(AdmissionTest, BacklogBoundShedsAtTheEdge) {
  core::ServerConfig cfg;
  cfg.admission_max_pending = 1;
  build_server(cfg);

  // Pin the first batch in the pending set: its insert keeps failing
  // transiently, so it waits out backoff as accepted-but-unstored work.
  fault::FaultPlan plan(1);
  plan.set_clock([this] { return sim.now(); });
  db.collection("observations").arm_faults(&plan);
  plan.fail_next(fault::FaultSite::kDocstoreInsert, 3);

  EXPECT_TRUE(publish("c1", 1).ok());
  EXPECT_EQ(server->pending_ingest_batches(), 1u);

  // The backlog is at the bound: the next publish is shed at the edge —
  // kUnavailable, nothing routed, nothing stored, nothing duplicated.
  Status shed = publish("c1", 2);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.error().code, ErrorCode::kUnavailable);
  EXPECT_EQ(server->admission_sheds(), 1u);
  EXPECT_EQ(broker.queue_depth("goflow.ingest"), 0u);

  // Backoff retries drain the stuck batch; capacity frees up and the
  // shed batch goes through on its retry, exactly once.
  sim.run_until(minutes(2));
  EXPECT_EQ(server->pending_ingest_batches(), 0u);
  EXPECT_TRUE(publish("c1", 2).ok());
  EXPECT_EQ(server->total_observations(), 2u);
  EXPECT_EQ(server->duplicate_batches(), 0u);
  EXPECT_GT(server->admission_accepted(), 0u);
}

TEST_F(AdmissionTest, DisabledBoundNeverSheds) {
  build_server();  // admission_max_pending = 0: no gate installed
  fault::FaultPlan plan(1);
  plan.set_clock([this] { return sim.now(); });
  db.collection("observations").arm_faults(&plan);
  plan.fail_next(fault::FaultSite::kDocstoreInsert, 50);
  EXPECT_TRUE(publish("c1", 1).ok());
  EXPECT_TRUE(publish("c1", 2).ok());
  EXPECT_TRUE(publish("c1", 3).ok());
  EXPECT_EQ(server->pending_ingest_batches(), 3u);
  EXPECT_EQ(server->admission_sheds(), 0u);
}

TEST_F(AdmissionTest, ShedFeedsClientBackoffWithoutLossOrDup) {
  build_server();
  obs::Registry registry;
  server->set_metrics(&registry);

  // Random shed on the first gate consult only; everything else clean.
  fault::FaultPlan plan(7);
  plan.set_clock([this] { return sim.now(); });
  plan.fail_next(fault::FaultSite::kAdmissionShed, 1);
  server->arm_faults(&plan);

  auto channels =
      server->login_client(client_token, "soundcity", "c1").value_or_throw();

  phone::PhoneConfig pc;
  pc.model = phone::top20_catalog().front();
  pc.user = "u1";
  pc.seed = 7;
  pc.connectivity = net::ConnectivityParams::always_connected();
  pc.horizon = days(1);
  phone::Phone phone(pc);

  client::ClientConfig cc =
      client::ClientConfig::v1_3("c1", channels.exchange, 1);
  cc.retry_seed = 7;
  client::GoFlowClient client(
      sim, broker, phone, std::move(cc), [](TimeMs) { return 55.0; },
      [](TimeMs) { return std::pair<double, double>{10.0, 10.0}; });
  client.start();
  // First (and only) upload at ~5min: shed at the edge, retried ~30s on.
  sim.run_until(minutes(8));

  EXPECT_EQ(server->admission_sheds(), 1u);
  EXPECT_EQ(client.stats().publish_failures, 1u);
  EXPECT_GE(client.stats().upload_retries, 1u);
  // The retried batch carried the same batch_id: stored exactly once.
  EXPECT_EQ(server->total_observations(), client.stats().observations_uploaded);
  EXPECT_EQ(server->duplicate_batches(), 0u);
  EXPECT_EQ(server->duplicate_observations(), 0u);

  // The shed is visible to dashboards under the promised family.
  bool found = false;
  for (const auto& [name, value] : registry.snapshot().counters) {
    if (name == "server.admission_shed") {
      found = true;
      EXPECT_EQ(value, 1.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(AdmissionTest, ServerCrashDropsTheGate) {
  core::ServerConfig cfg;
  cfg.admission_max_pending = 1;
  build_server(cfg);

  fault::FaultPlan plan(1);
  plan.set_clock([this] { return sim.now(); });
  db.collection("observations").arm_faults(&plan);
  plan.fail_next(fault::FaultSite::kDocstoreInsert, 1000);

  // Tokens don't survive the crash below: resolve the channel up front.
  auto channels =
      server->login_client(client_token, "soundcity", "c1").value_or_throw();
  EXPECT_TRUE(publish("c1", 1).ok());
  EXPECT_FALSE(publish("c1", 2).ok());

  // Flow control belongs to the live process: after the server dies the
  // broker must stop consulting its gate (publishes buffer for later).
  server->crash();
  EXPECT_TRUE(broker
                  .publish(channels.exchange, "soundcity.obs.c1",
                           batch("c1", 3, sim.now()), sim.now())
                  .ok());
  EXPECT_EQ(broker.queue_depth("goflow.ingest"), 1u);
}

TEST_F(AdmissionTest, DisarmingFaultsRemovesTheGate) {
  build_server();
  fault::FaultPlan plan(3);
  plan.set_probability(fault::FaultSite::kAdmissionShed, 1.0);
  server->arm_faults(&plan);
  ASSERT_FALSE(publish("c1", 1).ok());
  server->arm_faults(nullptr);
  EXPECT_TRUE(publish("c1", 2).ok());
  EXPECT_EQ(server->total_observations(), 1u);
}

}  // namespace
}  // namespace mps::ingest
