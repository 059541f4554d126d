#include "core/goflow_server.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/strings.h"
#include "phone/observation.h"

namespace mps::core {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : server(sim, broker, db) {
    auto reg = server.register_app("soundcity", {"user"}).value_or_throw();
    admin_token = reg.admin_token;
    client_token = server
                       .register_account(admin_token, "soundcity", "alice",
                                         Role::kClient)
                       .value_or_throw();
  }

  /// Publishes an observation batch the way the mobile client does.
  void publish_batch(const ClientId& client, std::vector<Value> observations,
                     TimeMs received_at = 1000) {
    Array arr;
    for (Value& v : observations) arr.push_back(std::move(v));
    Value batch(Object{{"app", Value("soundcity")},
                       {"client", Value(client)},
                       {"observations", Value(std::move(arr))}});
    auto channels =
        server.login_client(client_token, "soundcity", client).value_or_throw();
    broker
        .publish(channels.exchange, "soundcity.obs." + client, std::move(batch),
                 received_at)
        .value_or_throw();
  }

  static Value obs_doc(const char* user, const char* model, double spl,
                       TimeMs captured, const char* provider = nullptr,
                       double accuracy = 30.0) {
    Object o;
    o.set("user", Value(user));
    o.set("model", Value(model));
    o.set("captured_at", Value(captured));
    o.set("spl", Value(spl));
    o.set("mode", Value("opportunistic"));
    o.set("activity", Value("still"));
    if (provider != nullptr) {
      o.set("location", Value(Object{{"provider", Value(provider)},
                                     {"x", Value(10.0)},
                                     {"y", Value(20.0)},
                                     {"accuracy", Value(accuracy)}}));
    }
    return Value(std::move(o));
  }

  sim::Simulation sim;
  broker::Broker broker;
  docstore::Database db;
  GoFlowServer server;
  std::string admin_token;
  std::string client_token;
};

TEST_F(ServerTest, RegisterAppIdempotenceAndConflicts) {
  EXPECT_FALSE(server.register_app("soundcity").ok());
  EXPECT_TRUE(server.register_app("airquality").ok());
  EXPECT_FALSE(server.register_app("").ok());
}

TEST_F(ServerTest, AccountRolesEnforced) {
  // Client tokens cannot create accounts.
  auto r = server.register_account(client_token, "soundcity", "bob",
                                   Role::kClient);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kForbidden);

  // Manager can add clients but not managers.
  std::string manager_token =
      server.register_account(admin_token, "soundcity", "mgr", Role::kManager)
          .value_or_throw();
  EXPECT_TRUE(server
                  .register_account(manager_token, "soundcity", "bob",
                                    Role::kClient)
                  .ok());
  EXPECT_FALSE(server
                   .register_account(manager_token, "soundcity", "mgr2",
                                     Role::kManager)
                   .ok());
}

TEST_F(ServerTest, DuplicateAccountConflicts) {
  auto r =
      server.register_account(admin_token, "soundcity", "alice", Role::kClient);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kConflict);
}

TEST_F(ServerTest, RemoveAccountRequiresAdmin) {
  EXPECT_FALSE(server.remove_account(client_token, "soundcity", "alice").ok());
  EXPECT_TRUE(server.remove_account(admin_token, "soundcity", "alice").ok());
  EXPECT_FALSE(server.remove_account(admin_token, "soundcity", "alice").ok());
}

TEST_F(ServerTest, TokenRole) {
  EXPECT_EQ(server.token_role(admin_token), Role::kAdmin);
  EXPECT_EQ(server.token_role(client_token), Role::kClient);
  EXPECT_FALSE(server.token_role("bogus").has_value());
}

TEST_F(ServerTest, CrossAppTokenForbidden) {
  server.register_app("other").value_or_throw();
  auto r = server.login_client(client_token, "other", "mob1");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kForbidden);
}

TEST_F(ServerTest, LoginCreatesFigure3Topology) {
  auto channels =
      server.login_client(client_token, "soundcity", "mob1").value_or_throw();
  EXPECT_TRUE(broker.has_exchange(channels.exchange));
  EXPECT_TRUE(broker.has_queue(channels.queue));
  // Publishing through the client exchange reaches the ingest pipeline.
  Value batch(Object{{"app", Value("soundcity")},
                     {"client", Value("mob1")},
                     {"observations",
                      Value(Array{obs_doc("alice", "LGE NEXUS 5", 50, 10)})}});
  broker.publish(channels.exchange, "soundcity.obs.mob1", std::move(batch), 500)
      .value_or_throw();
  EXPECT_EQ(server.total_observations(), 1u);
}

TEST_F(ServerTest, LogoutTearsDownChannels) {
  auto channels =
      server.login_client(client_token, "soundcity", "mob1").value_or_throw();
  EXPECT_TRUE(server.logout_client(client_token, "soundcity", "mob1").ok());
  EXPECT_FALSE(broker.has_exchange(channels.exchange));
  EXPECT_FALSE(broker.has_queue(channels.queue));
}

TEST_F(ServerTest, IngestStoresEnrichedDocuments) {
  publish_batch("mob1", {obs_doc("alice", "LGE NEXUS 5", 52.5, 100, "gps", 8.0)},
                2500);
  auto& col = db.collection("observations");
  ASSERT_EQ(col.size(), 1u);
  std::vector<Value> docs = col.find(docstore::Query::all());
  const Value& doc = docs[0];
  EXPECT_EQ(doc.get_string("app"), "soundcity");
  EXPECT_EQ(doc.get_string("client"), "mob1");
  EXPECT_EQ(doc.get_int("received_at"), 2500);
  EXPECT_EQ(doc.get_int("delay_ms"), 2400);
}

// _id is a storage-local handle: an observation that carries one, as a
// string that would shadow a generated id or as a non-string the docstore
// rejects, is stored under an id of the store's own.
TEST_F(ServerTest, PublisherSuppliedIdIsIgnored) {
  for (const Value& planted : {Value("observations-2"), Value(5)}) {
    SCOPED_TRACE(planted.to_json());
    sim::Simulation s_sim;
    broker::Broker s_broker;
    docstore::Database s_db;
    GoFlowServer s_server(s_sim, s_broker, s_db);
    const std::string admin =
        s_server.register_app("soundcity").value_or_throw().admin_token;
    auto channels =
        s_server.login_client(admin, "soundcity", "c1").value_or_throw();
    for (int i = 0; i < 3; ++i) {
      Value o = obs_doc("alice", "GT-I9300", 50.0 + i, 100 + i);
      if (i == 0) o.as_object().set("_id", planted);
      Value batch(Object{{"app", Value("soundcity")},
                         {"client", Value("c1")},
                         {"batch_id", Value("c1#" + std::to_string(i))},
                         {"observations", Value(Array{std::move(o)})}});
      EXPECT_TRUE(s_broker
                      .publish(channels.exchange, "soundcity.obs.c1",
                               std::move(batch), 1000 + i)
                      .ok());
    }
    EXPECT_EQ(s_server.pending_ingest_batches(), 0u);
    std::set<std::string> ids;
    std::size_t docs = 0;
    s_db.collection("observations").for_each([&](const Value& d) {
      ++docs;
      ids.insert(d.get_string("_id"));
    });
    EXPECT_EQ(docs, 3u);
    EXPECT_EQ(ids.size(), 3u);
    EXPECT_EQ(s_db.collection("observations").size(), 3u);
  }
}

TEST_F(ServerTest, QueryFilters) {
  publish_batch("mob1",
                {obs_doc("alice", "LGE NEXUS 5", 52, 100, "gps", 8.0),
                 obs_doc("alice", "LGE NEXUS 5", 58, 200, "network", 40.0),
                 obs_doc("alice", "SONY D5803", 61, 300),
                 obs_doc("alice", "SONY D5803", 63, 400, "network", 250.0)});
  ObservationFilter filter;
  filter.app = "soundcity";

  EXPECT_EQ(server.count_observations(admin_token, filter).value_or_throw(), 4u);

  filter.localized_only = true;
  EXPECT_EQ(server.count_observations(admin_token, filter).value_or_throw(), 3u);

  filter.max_accuracy_m = 100.0;
  EXPECT_EQ(server.count_observations(admin_token, filter).value_or_throw(), 2u);

  filter.provider = "gps";
  EXPECT_EQ(server.count_observations(admin_token, filter).value_or_throw(), 1u);

  ObservationFilter by_model;
  by_model.app = "soundcity";
  by_model.model = "SONY D5803";
  EXPECT_EQ(server.count_observations(admin_token, by_model).value_or_throw(),
            2u);

  ObservationFilter window;
  window.app = "soundcity";
  window.from = 150;
  window.until = 350;
  EXPECT_EQ(server.count_observations(admin_token, window).value_or_throw(), 2u);
}

TEST_F(ServerTest, QuerySortedAndLimited) {
  publish_batch("mob1", {obs_doc("a", "M", 1, 300), obs_doc("a", "M", 2, 100),
                         obs_doc("a", "M", 3, 200)});
  ObservationFilter filter;
  filter.app = "soundcity";
  filter.limit = 2;
  auto docs = server.query_observations(admin_token, filter).value_or_throw();
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_EQ(docs[0].get_int("captured_at"), 100);
  EXPECT_EQ(docs[1].get_int("captured_at"), 200);
}

TEST_F(ServerTest, QueryRequiresValidToken) {
  ObservationFilter filter;
  filter.app = "soundcity";
  EXPECT_FALSE(server.query_observations("bad", filter).ok());
  EXPECT_FALSE(server.count_observations("bad", filter).ok());
}

TEST_F(ServerTest, OpenDataStripsPrivateFieldsForForeignApps) {
  publish_batch("mob1", {obs_doc("alice", "LGE NEXUS 5", 52, 100, "gps")});
  auto other = server.register_app("airquality").value_or_throw();
  ObservationFilter filter;
  filter.app = "soundcity";
  // Foreign app: "user" (declared private at registration) is stripped.
  auto foreign =
      server.query_observations(other.admin_token, filter).value_or_throw();
  ASSERT_EQ(foreign.size(), 1u);
  EXPECT_EQ(foreign[0].find("user"), nullptr);
  EXPECT_NE(foreign[0].find("spl"), nullptr);
  // Owner app keeps everything.
  auto own = server.query_observations(admin_token, filter).value_or_throw();
  EXPECT_NE(own[0].find("user"), nullptr);
}

TEST_F(ServerTest, ExportJsonIsParsableArray) {
  publish_batch("mob1", {obs_doc("alice", "LGE NEXUS 5", 52, 100),
                         obs_doc("alice", "LGE NEXUS 5", 53, 200)});
  ObservationFilter filter;
  filter.app = "soundcity";
  std::string json = server.export_json(admin_token, filter).value_or_throw();
  Value parsed = Value::parse_json(json);
  ASSERT_TRUE(parsed.is_array());
  EXPECT_EQ(parsed.as_array().size(), 2u);
}

TEST_F(ServerTest, ExportCsv) {
  publish_batch("mob1", {obs_doc("alice", "LGE NEXUS 5", 52.125, 100, "gps", 8.0),
                         obs_doc("bob,jr", "M", 60, 200)});
  ObservationFilter filter;
  filter.app = "soundcity";
  std::string csv = server.export_csv(admin_token, filter).value_or_throw();
  std::vector<std::string> lines = split(csv, '\n');
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[0],
            "user,model,captured_at,spl,mode,activity,provider,x,y,accuracy,"
            "delay_ms");
  EXPECT_NE(lines[1].find("alice,LGE NEXUS 5,100,52.125"), std::string::npos);
  EXPECT_NE(lines[1].find("gps,10.0,20.0,8.0"), std::string::npos);
  // Comma-containing user is quoted; missing location leaves empty fields.
  EXPECT_NE(lines[2].find("\"bob,jr\""), std::string::npos);
  EXPECT_NE(lines[2].find(",,,,"), std::string::npos);
  EXPECT_FALSE(server.export_csv("bad", filter).ok());
}

TEST_F(ServerTest, AnalyticsAggregates) {
  publish_batch("mob1", {obs_doc("alice", "M", 50, 0, "gps"),
                         obs_doc("alice", "M", 51, 0)},
                minutes(2));
  AppAnalytics analytics = server.analytics("soundcity").value_or_throw();
  EXPECT_EQ(analytics.batches_ingested, 1u);
  EXPECT_EQ(analytics.observations_stored, 2u);
  EXPECT_EQ(analytics.observations_localized, 1u);
  EXPECT_EQ(analytics.clients_logged_in, 1u);
  EXPECT_EQ(analytics.delay_stats.count(), 2u);
  EXPECT_NEAR(analytics.delay_stats.mean(), static_cast<double>(minutes(2)),
              1.0);
  EXPECT_FALSE(server.analytics("nope").ok());
}

TEST_F(ServerTest, SubscriptionRoutesFeedbackToSubscriber) {
  // mob1 subscribes to Feedback at FR75013; mob2 publishes one.
  auto ch1 =
      server.login_client(client_token, "soundcity", "mob1").value_or_throw();
  auto ch2 =
      server.login_client(client_token, "soundcity", "mob2").value_or_throw();
  server.subscribe(client_token, "soundcity", "mob1", "FR75013", "Feedback")
      .throw_if_error();
  Value feedback(Object{{"text", Value("noisy bar")}, {"client", Value("mob2")}});
  broker
      .publish(ch2.exchange,
               GoFlowServer::publish_key("FR75013", "Feedback", "mob2"),
               feedback, 10)
      .value_or_throw();
  // Subscriber receives it...
  auto m = broker.pop(ch1.queue);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload.get_string("text"), "noisy bar");
  // ...and it is also persisted by the ingest path (raw message store).
  EXPECT_GT(db.collection("messages").size(), 0u);
}

TEST_F(ServerTest, SubscriptionFiltersByLocationAndType) {
  auto ch1 =
      server.login_client(client_token, "soundcity", "mob1").value_or_throw();
  auto ch2 =
      server.login_client(client_token, "soundcity", "mob2").value_or_throw();
  server.subscribe(client_token, "soundcity", "mob1", "FR75013", "Feedback")
      .throw_if_error();
  // Wrong location.
  broker
      .publish(ch2.exchange,
               GoFlowServer::publish_key("FR92120", "Feedback", "mob2"),
               Value(Object{{"n", Value(1)}}), 0)
      .value_or_throw();
  // Wrong datatype.
  broker
      .publish(ch2.exchange,
               GoFlowServer::publish_key("FR75013", "Journey", "mob2"),
               Value(Object{{"n", Value(2)}}), 0)
      .value_or_throw();
  EXPECT_EQ(broker.queue_depth(ch1.queue), 0u);
}

TEST_F(ServerTest, UnsubscribeStopsDelivery) {
  auto ch1 =
      server.login_client(client_token, "soundcity", "mob1").value_or_throw();
  auto ch2 =
      server.login_client(client_token, "soundcity", "mob2").value_or_throw();
  server.subscribe(client_token, "soundcity", "mob1", "FR75013", "Feedback")
      .throw_if_error();
  server.unsubscribe(client_token, "soundcity", "mob1", "FR75013", "Feedback")
      .throw_if_error();
  broker
      .publish(ch2.exchange,
               GoFlowServer::publish_key("FR75013", "Feedback", "mob2"),
               Value(Object{{"n", Value(1)}}), 0)
      .value_or_throw();
  EXPECT_EQ(broker.queue_depth(ch1.queue), 0u);
}

TEST_F(ServerTest, SubscribeRequiresLogin) {
  Status s =
      server.subscribe(client_token, "soundcity", "ghost", "FR75013", "Feedback");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::kNotFound);
}

TEST_F(ServerTest, BackgroundJobRunsAtScheduledTime) {
  publish_batch("mob1", {obs_doc("alice", "M", 50, 0)});
  JobId id = server
                 .submit_job(admin_token, "soundcity", "count-obs",
                             [](docstore::Database& database) {
                               return Value(Object{
                                   {"count",
                                    Value(static_cast<std::int64_t>(
                                        database.collection("observations")
                                            .size()))}});
                             },
                             minutes(10))
                 .value_or_throw();
  Value before = server.job_info(id).value_or_throw();
  EXPECT_EQ(before.get_string("status"), "scheduled");
  sim.run_until(minutes(10));
  Value after = server.job_info(id).value_or_throw();
  EXPECT_EQ(after.get_string("status"), "done");
  EXPECT_EQ(after.at("result").get_int("count"), 1);
}

TEST_F(ServerTest, FailingJobReportsFailure) {
  JobId id = server
                 .submit_job(admin_token, "soundcity", "boom",
                             [](docstore::Database&) -> Value {
                               throw std::runtime_error("kaput");
                             })
                 .value_or_throw();
  sim.run();
  Value info = server.job_info(id).value_or_throw();
  EXPECT_EQ(info.get_string("status"), "failed");
  EXPECT_EQ(info.at("result").get_string("error"), "kaput");
}

TEST_F(ServerTest, JobsRequireManagerRole) {
  auto r = server.submit_job(client_token, "soundcity", "x",
                             [](docstore::Database&) { return Value(); });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kForbidden);
  EXPECT_FALSE(server.job_info("job-999").ok());
}

TEST_F(ServerTest, DuplicateBatchIngestedOnce) {
  auto channels =
      server.login_client(client_token, "soundcity", "mob1").value_or_throw();
  Value batch(Object{{"app", Value("soundcity")},
                     {"client", Value("mob1")},
                     {"batch_id", Value("mob1#1")},
                     {"observations",
                      Value(Array{obs_doc("alice", "M", 50, 10)})}});
  broker.publish(channels.exchange, "soundcity.obs.mob1", batch, 100)
      .value_or_throw();
  // The transport redelivers the same batch (at-least-once).
  broker.publish(channels.exchange, "soundcity.obs.mob1", batch, 200)
      .value_or_throw();
  EXPECT_EQ(server.total_observations(), 1u);
  EXPECT_EQ(server.duplicate_batches(), 1u);
  // A different batch id ingests normally.
  batch.as_object().set("batch_id", Value("mob1#2"));
  broker.publish(channels.exchange, "soundcity.obs.mob1", batch, 300)
      .value_or_throw();
  EXPECT_EQ(server.total_observations(), 2u);
}

TEST_F(ServerTest, BatchesWithoutIdAreNotDeduplicated) {
  // Legacy clients without batch ids keep the old (at-least-once) story.
  publish_batch("mob1", {obs_doc("alice", "M", 50, 10)});
  publish_batch("mob2", {obs_doc("alice", "M", 50, 10)});
  EXPECT_EQ(server.total_observations(), 2u);
  EXPECT_EQ(server.duplicate_batches(), 0u);
}

TEST_F(ServerTest, MultipleAppsIsolated) {
  auto other = server.register_app("airquality").value_or_throw();
  std::string other_client =
      server.register_account(other.admin_token, "airquality", "carol",
                              Role::kClient)
          .value_or_throw();
  auto ch = server.login_client(other_client, "airquality", "mobX")
                .value_or_throw();
  Value batch(Object{{"app", Value("airquality")},
                     {"client", Value("mobX")},
                     {"observations",
                      Value(Array{obs_doc("carol", "M", 30, 5)})}});
  broker.publish(ch.exchange, "airquality.obs.mobX", std::move(batch), 10)
      .value_or_throw();
  ObservationFilter mine;
  mine.app = "soundcity";
  EXPECT_EQ(server.count_observations(admin_token, mine).value_or_throw(), 0u);
  ObservationFilter theirs;
  theirs.app = "airquality";
  EXPECT_EQ(server.count_observations(admin_token, theirs).value_or_throw(), 1u);
}

}  // namespace
}  // namespace mps::core
