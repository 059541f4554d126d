#include "core/rest_api.h"

#include <gtest/gtest.h>

namespace mps::core {
namespace {

class RestApiTest : public ::testing::Test {
 protected:
  RestApiTest() : server(sim, broker, db), api(server) {}

  RestResponse post(const std::string& path, Value body,
                    const std::string& token = "") {
    return api.handle(RestRequest{"POST", path, token, std::move(body), {}});
  }
  RestResponse get(const std::string& path, const std::string& token = "",
                   std::map<std::string, std::string> query = {}) {
    return api.handle(RestRequest{"GET", path, token, Value(), std::move(query)});
  }
  RestResponse del(const std::string& path, Value body = Value(),
                   const std::string& token = "") {
    return api.handle(RestRequest{"DELETE", path, token, std::move(body), {}});
  }

  /// Registers the app and a client account; returns (admin, client) tokens.
  std::pair<std::string, std::string> bootstrap() {
    RestResponse r = post("/apps", Value(Object{{"id", Value("soundcity")}}));
    EXPECT_EQ(r.status, 201);
    std::string admin = r.body.get_string("admin_token");
    RestResponse a = post("/apps/soundcity/accounts",
                          Value(Object{{"user", Value("alice")},
                                       {"role", Value("client")}}),
                          admin);
    EXPECT_EQ(a.status, 201);
    return {admin, a.body.get_string("token")};
  }

  sim::Simulation sim;
  broker::Broker broker;
  docstore::Database db;
  GoFlowServer server;
  GoFlowRestApi api;
};

TEST_F(RestApiTest, RegisterAppRoute) {
  RestResponse r = post("/apps", Value(Object{{"id", Value("soundcity")}}));
  EXPECT_EQ(r.status, 201);
  EXPECT_EQ(r.body.get_string("app"), "soundcity");
  EXPECT_FALSE(r.body.get_string("admin_token").empty());
  // Duplicate -> 409.
  EXPECT_EQ(post("/apps", Value(Object{{"id", Value("soundcity")}})).status, 409);
  // Missing id -> 400.
  EXPECT_EQ(post("/apps", Value(Object{})).status, 400);
}

TEST_F(RestApiTest, UnknownRoutes404) {
  EXPECT_EQ(get("/nope").status, 404);
  EXPECT_EQ(get("/").status, 404);
  EXPECT_EQ(post("/apps/x/unknown", Value()).status, 404);
  EXPECT_EQ(api.handle(RestRequest{"PATCH", "/apps", "", Value(), {}}).status,
            404);
}

TEST_F(RestApiTest, AccountRoutes) {
  auto [admin, client] = bootstrap();
  // Client token cannot create accounts -> 403.
  RestResponse forbidden = post(
      "/apps/soundcity/accounts",
      Value(Object{{"user", Value("bob")}, {"role", Value("client")}}), client);
  EXPECT_EQ(forbidden.status, 403);
  // Bad role -> 400.
  EXPECT_EQ(post("/apps/soundcity/accounts",
                 Value(Object{{"user", Value("bob")}, {"role", Value("boss")}}),
                 admin)
                .status,
            400);
  // Delete account.
  EXPECT_EQ(del("/apps/soundcity/accounts/alice", Value(), admin).status, 204);
  EXPECT_EQ(del("/apps/soundcity/accounts/alice", Value(), admin).status, 404);
}

TEST_F(RestApiTest, LoginLogoutAndSubscriptions) {
  auto [admin, client] = bootstrap();
  RestResponse login = post("/apps/soundcity/clients/mob1/login", Value(), client);
  EXPECT_EQ(login.status, 200);
  EXPECT_FALSE(login.body.get_string("exchange").empty());
  EXPECT_FALSE(login.body.get_string("queue").empty());

  RestResponse sub = post("/apps/soundcity/clients/mob1/subscriptions",
                          Value(Object{{"location", Value("FR75013")},
                                       {"datatype", Value("Feedback")}}),
                          client);
  EXPECT_EQ(sub.status, 201);
  RestResponse unsub = del("/apps/soundcity/clients/mob1/subscriptions",
                           Value(Object{{"location", Value("FR75013")},
                                        {"datatype", Value("Feedback")}}),
                           client);
  EXPECT_EQ(unsub.status, 204);

  EXPECT_EQ(post("/apps/soundcity/clients/mob1/logout", Value(), client).status,
            204);
  // Unauthorized without a token -> 401.
  EXPECT_EQ(post("/apps/soundcity/clients/mob2/login", Value()).status, 401);
}

TEST_F(RestApiTest, ObservationRoutes) {
  auto [admin, client] = bootstrap();
  RestResponse login = post("/apps/soundcity/clients/mob1/login", Value(), client);
  // Ingest a batch through the broker, as the mobile client does.
  Array arr{Value(Object{{"user", Value("alice")},
                         {"model", Value("M")},
                         {"captured_at", Value(10)},
                         {"spl", Value(61.0)},
                         {"location", Value(Object{{"provider", Value("gps")},
                                                   {"accuracy", Value(8.0)}})}}),
            Value(Object{{"user", Value("alice")},
                         {"model", Value("M")},
                         {"captured_at", Value(20)},
                         {"spl", Value(55.0)}})};
  broker
      .publish(login.body.get_string("exchange"), "soundcity.obs.mob1",
               Value(Object{{"app", Value("soundcity")},
                            {"client", Value("mob1")},
                            {"observations", Value(std::move(arr))}}),
               500)
      .value_or_throw();

  RestResponse all = get("/apps/soundcity/observations", admin);
  EXPECT_EQ(all.status, 200);
  EXPECT_EQ(all.body.at("observations").as_array().size(), 2u);

  RestResponse count =
      get("/apps/soundcity/observations/count", admin, {{"localized", "true"}});
  EXPECT_EQ(count.status, 200);
  EXPECT_EQ(count.body.get_int("count"), 1);

  RestResponse filtered = get("/apps/soundcity/observations", admin,
                              {{"provider", "gps"}, {"max_accuracy", "10"}});
  EXPECT_EQ(filtered.body.at("observations").as_array().size(), 1u);

  RestResponse window = get("/apps/soundcity/observations/count", admin,
                            {{"from", "15"}, {"until", "25"}});
  EXPECT_EQ(window.body.get_int("count"), 1);

  RestResponse exported = get("/apps/soundcity/observations/export", admin);
  EXPECT_EQ(exported.status, 200);
  Value parsed = Value::parse_json(exported.body.get_string("json"));
  EXPECT_EQ(parsed.as_array().size(), 2u);

  RestResponse csv = get("/apps/soundcity/observations/export", admin,
                         {{"format", "csv"}});
  EXPECT_EQ(csv.status, 200);
  const std::string& text = csv.body.get_string("csv");
  EXPECT_EQ(text.rfind("user,model,", 0), 0u);
  EXPECT_NE(text.find("alice"), std::string::npos);

  // Bad token -> 401.
  EXPECT_EQ(get("/apps/soundcity/observations", "bad").status, 401);
}

TEST_F(RestApiTest, AnalyticsRoute) {
  bootstrap();
  RestResponse r = get("/apps/soundcity/analytics");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body.get_int("observations_stored"), 0);
  EXPECT_EQ(get("/apps/ghost/analytics").status, 404);
}

TEST_F(RestApiTest, JobRoutes) {
  auto [admin, client] = bootstrap();
  api.register_job_type("count-observations", [](docstore::Database& database) {
    return Value(Object{{"count", Value(static_cast<std::int64_t>(
                                      database.collection("observations")
                                          .size()))}});
  });
  // Unknown type -> 404.
  EXPECT_EQ(post("/apps/soundcity/jobs",
                 Value(Object{{"type", Value("nope")}}), admin)
                .status,
            404);
  // Client role cannot submit -> 403.
  EXPECT_EQ(post("/apps/soundcity/jobs",
                 Value(Object{{"type", Value("count-observations")}}), client)
                .status,
            403);
  RestResponse submitted =
      post("/apps/soundcity/jobs",
           Value(Object{{"type", Value("count-observations")},
                        {"delay_ms", Value(1000)}}),
           admin);
  EXPECT_EQ(submitted.status, 202);
  std::string job_id = submitted.body.get_string("job");

  RestResponse before = get("/jobs/" + job_id);
  EXPECT_EQ(before.status, 200);
  EXPECT_EQ(before.body.get_string("status"), "scheduled");
  sim.run();
  RestResponse after = get("/jobs/" + job_id);
  EXPECT_EQ(after.body.get_string("status"), "done");
  EXPECT_EQ(after.body.at("result").get_int("count"), 0);
  EXPECT_EQ(get("/jobs/job-999").status, 404);
}

// from/until are TimeMs and limit a size_t: values those types cannot
// hold are rejected, never cast.
TEST_F(RestApiTest, OutOfRangeFilterValuesAre400) {
  auto [admin, client] = bootstrap();
  (void)client;
  const std::map<std::string, std::vector<std::string>> bad = {
      {"from", {"nan", "inf", "-inf", "1e19", "-1e19"}},
      {"until", {"nan", "inf", "-inf", "9.3e18", "-9.3e18"}},
      {"limit", {"-1", "nan", "inf", "-inf", "1e20", "-0.5"}}};
  for (const auto& [key, values] : bad) {
    for (const std::string& value : values) {
      for (const char* route : {"/apps/soundcity/observations",
                                "/apps/soundcity/observations/count",
                                "/apps/soundcity/observations/export"}) {
        RestResponse r = get(route, admin, {{key, value}});
        EXPECT_EQ(r.status, 400) << route << "?" << key << "=" << value;
        EXPECT_EQ(r.body.get_string("error"), "invalid_argument")
            << route << "?" << key << "=" << value;
      }
    }
  }
  // In-range values, including the extremes, still answer.
  EXPECT_EQ(get("/apps/soundcity/observations", admin,
                {{"from", "-9.2e18"}, {"until", "9.2e18"}, {"limit", "0"}})
                .status,
            200);
  EXPECT_EQ(get("/apps/soundcity/observations/count", admin,
                {{"limit", "1e19"}})
                .status,
            200);
}

TEST_F(RestApiTest, TrailingSlashTolerated) {
  RestResponse r = post("/apps/", Value(Object{{"id", Value("x")}}));
  EXPECT_EQ(r.status, 201);
}

TEST_F(RestApiTest, HttpStatusMapping) {
  EXPECT_EQ(http_status(ErrorCode::kOk), 200);
  EXPECT_EQ(http_status(ErrorCode::kInvalidArgument), 400);
  EXPECT_EQ(http_status(ErrorCode::kUnauthorized), 401);
  EXPECT_EQ(http_status(ErrorCode::kForbidden), 403);
  EXPECT_EQ(http_status(ErrorCode::kNotFound), 404);
  EXPECT_EQ(http_status(ErrorCode::kConflict), 409);
  EXPECT_EQ(http_status(ErrorCode::kUnavailable), 503);
  EXPECT_EQ(http_status(ErrorCode::kInternal), 500);
}

}  // namespace
}  // namespace mps::core
