// Shard redirects at the socket edge (ISSUE satellite: exactly-once
// across a redirect). The hard case: a publish is processed on shard A
// but the ack is lost, the client's slot is then rebalanced to shard B,
// and the client's retry of the SAME batch is redirected and re-sent to
// B. Because the dedup keys migrated with the slot, B recognises the
// batch id and the observation count stays exactly-once — one stored
// copy across the whole fleet, not zero and not two.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "core/goflow_server.h"
#include "docstore/database.h"
#include "ingest/obs_batch.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "sim/simulation.h"

namespace mps::net {
namespace {

/// One shard's serving stack: broker + docstore + GoFlow server behind a
/// socket front door. Registration runs the same deterministic sequence
/// on every shard, so tokens and exchange names agree fleet-wide.
struct Shard {
  broker::Broker broker;
  docstore::Database db;
  core::GoFlowServer server;
  NetServer net_server;
  std::string exchange;

  Shard(sim::Simulation& sim, const std::string& client)
      : server(sim, broker, db), net_server(sim, broker) {
    net_server.start().throw_if_error();
    auto reg = server.register_app("soundcity").value_or_throw();
    std::string token =
        server
            .register_account(reg.admin_token, "soundcity", "u1",
                              core::Role::kClient)
            .value_or_throw();
    exchange = server.login_client(token, "soundcity", client)
                   .value_or_throw()
                   .exchange;
  }

  std::size_t stored() {
    return db.has_collection("observations")
               ? db.collection("observations").size()
               : 0;
  }
};

/// Two shards and one client, "c1" unless a test names another (a study
/// client id has the form "<model>#<n>").
struct Harness {
  std::string client_id;
  sim::Simulation sim;
  Shard a{sim, client_id};
  Shard b{sim, client_id};
  std::unique_ptr<NetClient> client;
  ingest::BatchPool pool;

  explicit Harness(std::string id = "c1") : client_id(std::move(id)) {
    // Same registration sequence on both shards -> same exchange name;
    // the client's route can change shards without re-login.
    EXPECT_EQ(a.exchange, b.exchange);
    NetClientConfig cc;
    cc.port = a.net_server.port();
    cc.client_id = client_id;
    client = std::make_unique<NetClient>(sim, std::move(cc));
    // Co-simulation: the client pumps every front door it could ever be
    // redirected to.
    client->set_pump([this] {
      a.net_server.pump();
      b.net_server.pump();
    });
  }

  std::shared_ptr<const ingest::ObsBatch> make_batch(int counter) {
    std::vector<phone::Observation> observations;
    for (int i = 0; i < 4; ++i) {
      phone::Observation obs;
      obs.user = "u1";
      obs.model = "m1";
      obs.captured_at = minutes(counter * 10 + i);
      obs.spl_db = 48.0 + i;
      observations.push_back(obs);
    }
    return pool.make_batch("soundcity", client_id,
                           client_id + "#" + std::to_string(counter),
                           minutes(counter * 10), observations);
  }

  Result<broker::PublishResult> publish(int counter, TimeMs now) {
    return client->publish_flat(a.exchange, "soundcity.obs." + client_id,
                                make_batch(counter), now);
  }

  /// The control plane's slot move, shrunk to one client: extract the
  /// client's state from A, adopt it on B, and point A's front door at B.
  void migrate_to_b() {
    Value migration = a.server.extract_migration(
        [this](std::string_view client) { return client == client_id; });
    b.server.adopt_migration(migration);
    a.net_server.set_redirect_fn(
        [this](std::string_view client) -> std::optional<wire::RedirectMsg> {
          if (client != client_id) return std::nullopt;
          wire::RedirectMsg r;
          r.shard = 1;
          r.port = b.net_server.port();
          r.reason = "rebalanced";
          return r;
        });
  }
};

TEST(Redirect, LostAckThenRebalanceStaysExactlyOnce) {
  // A study client id, "<model>#<n>", has a '#' of its own: its batch
  // ids must still travel with it.
  for (const char* id : {"c1", "GT-I9300#5"}) {
    SCOPED_TRACE(id);
    Harness h(id);

    // Two lost acks: the batch is processed (and stored) on A, but the
    // client never hears it — neither on the first send nor on its retry.
    h.a.net_server.fail_next_ack(2);
    EXPECT_FALSE(h.publish(1, minutes(11)).ok());
    EXPECT_TRUE(h.client->has_pending());
    EXPECT_FALSE(h.publish(1, minutes(12)).ok());
    EXPECT_TRUE(h.client->has_pending());
    EXPECT_EQ(h.a.stored(), 4u);
    EXPECT_EQ(h.a.server.duplicate_batches(), 1u);  // the retry deduped on A

    // The slot moves to B — stored rows AND dedup keys — and A's front
    // door starts redirecting the client.
    h.migrate_to_b();
    EXPECT_EQ(h.a.stored(), 0u);
    EXPECT_EQ(h.b.stored(), 4u);

    // The client's next retry of the same batch: redirected, re-sent to B,
    // absorbed by the migrated batch id. Exactly one stored copy fleet-wide.
    auto result = h.publish(1, minutes(13));
    ASSERT_TRUE(result.ok()) << result.error().message;
    EXPECT_FALSE(h.client->has_pending());
    EXPECT_EQ(h.client->stats().redirects, 1u);
    EXPECT_EQ(h.a.net_server.stats().redirects_issued, 1u);
    EXPECT_EQ(h.b.server.duplicate_batches(), 1u);
    EXPECT_EQ(h.a.stored() + h.b.stored(), 4u);

    // The client now talks to B directly: fresh batches land there with no
    // further redirect.
    ASSERT_TRUE(h.publish(2, minutes(21)).ok());
    EXPECT_EQ(h.client->config().port, h.b.net_server.port());
    EXPECT_EQ(h.client->stats().redirects, 1u);
    EXPECT_EQ(h.b.stored(), 8u);
    EXPECT_EQ(h.a.stored(), 0u);
  }
}

TEST(Redirect, CleanRedirectDeliversToNewOwnerOnly) {
  Harness h;
  ASSERT_TRUE(h.publish(1, minutes(11)).ok());
  EXPECT_EQ(h.a.stored(), 4u);

  h.migrate_to_b();
  ASSERT_TRUE(h.publish(2, minutes(21)).ok());
  EXPECT_EQ(h.client->stats().redirects, 1u);
  EXPECT_EQ(h.a.stored(), 0u);
  EXPECT_EQ(h.b.stored(), 8u);
  EXPECT_EQ(h.b.server.duplicate_batches(), 0u);
}

TEST(Redirect, OtherClientsAreNotRedirected) {
  Harness h;
  h.migrate_to_b();
  // A publish whose batch carries a different client id sails through A.
  std::vector<phone::Observation> observations(1);
  observations[0].user = "u1";
  observations[0].captured_at = minutes(5);
  auto batch =
      h.pool.make_batch("soundcity", "c2", "c2#1", minutes(5), observations);
  ASSERT_TRUE(
      h.client->publish_flat(h.a.exchange, "soundcity.obs.c2", batch,
                             minutes(6))
          .ok());
  EXPECT_EQ(h.client->stats().redirects, 0u);
  EXPECT_EQ(h.a.stored(), 1u);
}

TEST(Redirect, CyclicRedirectsSurfaceAsErrorNotInfiniteChase) {
  Harness h;
  auto bounce = [](std::uint16_t port) {
    return [port](std::string_view) -> std::optional<wire::RedirectMsg> {
      wire::RedirectMsg r;
      r.shard = 0;
      r.port = port;
      r.reason = "thrash";
      return r;
    };
  };
  h.a.net_server.set_redirect_fn(bounce(h.b.net_server.port()));
  h.b.net_server.set_redirect_fn(bounce(h.a.net_server.port()));

  auto result = h.publish(1, minutes(11));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kUnavailable);
  // Bounded chase: the hop budget, not the spin limit, ended it.
  EXPECT_EQ(h.client->stats().redirects, 3u);
  // The outbox survives — once the map settles the batch can still ship.
  EXPECT_TRUE(h.client->has_pending());
  h.a.net_server.set_redirect_fn({});
  h.b.net_server.set_redirect_fn({});
  ASSERT_TRUE(h.publish(1, minutes(12)).ok());
  EXPECT_EQ(h.a.stored() + h.b.stored(), 4u);
}

// Regression: kSeriesReply was missing from the client's is_response
// filter, so query_series() skipped its own answer and spun into a
// timeout. A server with no TimeSeries attached must answer an empty
// series, not an error.
TEST(Redirect, QuerySeriesRoundTripsInsteadOfTimingOut) {
  Harness h;
  auto series = h.client->query_series(0);
  ASSERT_TRUE(series.ok()) << series.error().message;
  EXPECT_EQ(series.value(), "");
  EXPECT_EQ(h.client->stats().timeouts, 0u);
}

}  // namespace
}  // namespace mps::net
