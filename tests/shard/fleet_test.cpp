// ShardFleet end to end: routing at the ingest edge, follower promotion
// after a primary kill, and the rebalance path's no-loss/no-dup
// contract. These are the invariants the chaos sweeps lean on — every
// acknowledged observation survives a failover, migrated dedup keys keep
// redelivery exactly-once across a slot move, and a 1-shard fleet is
// indistinguishable from the plain single server.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/goflow_server.h"
#include "core/recovery.h"
#include "docstore/database.h"
#include "durable/storage.h"
#include "fault/fault.h"
#include "ingest/obs_batch.h"
#include "shard/fleet.h"
#include "sim/simulation.h"

namespace mps::shard {
namespace {

/// A document batch; with `first_span` its observations carry span ids
/// from there on, which the server keeps as "<client>#<span>" keys.
Value make_batch(const std::string& batch_id, const std::string& client,
                 int first_seq, int count, TimeMs captured_at,
                 int first_span = 0) {
  Array observations;
  for (int i = 0; i < count; ++i) {
    Object obs{{"seq", Value(first_seq + i)},
               {"captured_at", Value(captured_at)},
               {"spl", Value(55.0 + i)}};
    if (first_span > 0) obs.set("span", Value(first_span + i));
    observations.push_back(Value(std::move(obs)));
  }
  return Value(Object{{"batch_id", Value(batch_id)},
                      {"app", Value("app1")},
                      {"client", Value(client)},
                      {"observations", Value(std::move(observations))}});
}

/// A flat upload of `count` rows, the form GoFlow clients send.
std::shared_ptr<const ingest::ObsBatch> make_flat_batch(
    ingest::BatchPool& pool, const std::string& batch_id,
    const std::string& client, int count, TimeMs captured_at) {
  std::vector<phone::Observation> observations(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    phone::Observation& o = observations[static_cast<std::size_t>(i)];
    o.user = "u-" + client;
    o.model = "m";
    o.captured_at = captured_at + i;
    o.spl_db = 50.0 + i;
    if (i % 2 == 0)
      o.location = phone::LocationFix{phone::LocationProvider::kGps, 1.0 * i,
                                      2.0, 8.0};
  }
  return pool.make_batch("app1", client, batch_id, captured_at, observations);
}

/// The stored documents of a node's observations, as JSON in slot order.
std::vector<std::string> stored_json(docstore::Database& db) {
  std::vector<std::string> out;
  db.collection("observations").for_each([&](const Value& doc) {
    out.push_back(doc.to_json());
  });
  return out;
}

std::multiset<std::string> stored_keys(docstore::Database& db) {
  std::multiset<std::string> keys;
  if (!db.has_collection("observations")) return keys;
  db.collection("observations").for_each([&](const Value& doc) {
    keys.insert(doc.get_string("client") + "#" +
                std::to_string(doc.get_int("seq", -1)));
  });
  return keys;
}

struct Fixture {
  sim::Simulation sim;
  obs::Registry registry;
  ShardFleet fleet;

  explicit Fixture(std::uint32_t shards)
      : fleet(sim, make_config(shards, &registry)) {
    for (std::uint32_t i = 0; i < fleet.size(); ++i)
      fleet.node(i).server().register_app("app1").value_or_throw();
  }

  static FleetConfig make_config(std::uint32_t shards, obs::Registry* reg) {
    FleetConfig config;
    config.shards = shards;
    config.app = "app1";
    config.metrics = reg;
    return config;
  }

  /// A client publish as the router forwards it: straight into the
  /// owning shard's broker.
  Result<broker::PublishResult> publish(const std::string& client,
                                        const std::string& batch_id,
                                        int first_seq, int count, TimeMs t,
                                        int first_span = 0) {
    return fleet.broker_for(client).publish(
        "goflow", "b",
        make_batch(batch_id, client, first_seq, count, t, first_span), t);
  }
};

/// The first client "<prefix><n>" on `client`'s shard in another slot.
std::string neighbour(const ShardFleet& fleet, const std::string& client,
                      const std::string& prefix) {
  for (int n = 0;; ++n) {
    std::string other = prefix + std::to_string(n);
    if (fleet.shard_for(other) == fleet.shard_for(client) &&
        slot_of("app1", other) != slot_of("app1", client))
      return other;
  }
}

/// Both dedup key sets of a node, batch ids and observation keys mixed.
std::set<std::string> dedup_keys(ShardNode& node) {
  std::set<std::string> keys;
  for (const auto* set :
       {&node.server().seen_batch_ids(), &node.server().seen_obs_keys()})
    keys.insert(set->ordered().begin(), set->ordered().end());
  return keys;
}

// Golden routes (pinned in shard_map_test): with two shards, dev1's
// slot 12 lives on shard 0 and dev2's slot 37 on shard 1.
TEST(ShardFleet, RoutesEachClientToItsOwningShard) {
  Fixture f(2);
  ASSERT_EQ(f.fleet.shard_for("dev1"), 0u);
  ASSERT_EQ(f.fleet.shard_for("dev2"), 1u);

  f.publish("dev1", "b1", 0, 3, 100).value_or_throw();
  f.publish("dev2", "b2", 0, 2, 110).value_or_throw();

  EXPECT_EQ(f.fleet.node(0).server().total_observations(), 3u);
  EXPECT_EQ(f.fleet.node(1).server().total_observations(), 2u);
  EXPECT_EQ(stored_keys(f.fleet.node(0).db()),
            (std::multiset<std::string>{"dev1#0", "dev1#1", "dev1#2"}));
  EXPECT_EQ(stored_keys(f.fleet.node(1).db()),
            (std::multiset<std::string>{"dev2#0", "dev2#1"}));
}

TEST(ShardFleet, FailoverPromotesFollowerWithNothingAcknowledgedLost) {
  Fixture f(1);
  ShardNode& node = f.fleet.node(0);
  f.publish("dev1", "b1", 0, 3, 100).value_or_throw();
  node.lifecycle().snapshot();  // b1 now lives in the snapshot
  f.publish("dev1", "b2", 3, 2, 200).value_or_throw();  // b2 only in the tail

  node.kill();
  EXPECT_TRUE(node.down());
  EXPECT_FALSE(f.publish("dev1", "b3", 5, 1, 300).ok());

  node.fail_over();
  EXPECT_FALSE(node.down());
  EXPECT_EQ(node.failovers(), 1u);
  EXPECT_EQ(f.registry.counter("shard.failovers").value(), 1u);

  // Both the snapshotted batch and the WAL tail survived promotion.
  EXPECT_EQ(node.server().total_observations(), 5u);
  EXPECT_EQ(stored_keys(node.db()),
            (std::multiset<std::string>{"dev1#0", "dev1#1", "dev1#2", "dev1#3",
                                        "dev1#4"}));
  // Dedup state survived too: redelivering b1 is rejected.
  f.publish("dev1", "b1", 0, 3, 100).value_or_throw();
  EXPECT_EQ(node.server().duplicate_batches(), 1u);
  EXPECT_EQ(node.server().total_observations(), 5u);
  // And the promoted primary ingests fresh traffic.
  f.publish("dev1", "b4", 5, 2, 400).value_or_throw();
  EXPECT_EQ(node.server().total_observations(), 7u);
}

TEST(ShardFleet, RepeatedFailoverPingPongsBetweenDisks) {
  Fixture f(1);
  ShardNode& node = f.fleet.node(0);
  f.publish("dev1", "b1", 0, 2, 100).value_or_throw();

  node.kill();
  node.fail_over();  // primary now on disk B
  f.publish("dev1", "b2", 2, 2, 200).value_or_throw();

  node.kill();
  node.fail_over();  // back on disk A, reformatted as B's copy
  EXPECT_EQ(node.failovers(), 2u);
  EXPECT_EQ(node.server().total_observations(), 4u);
  EXPECT_EQ(stored_keys(node.db()), (std::multiset<std::string>{
                                        "dev1#0", "dev1#1", "dev1#2", "dev1#3"}));

  // New appends still reach the follower after every promotion.
  std::uint64_t mirrored = node.disk().stats().appends;
  f.publish("dev1", "b3", 4, 1, 300).value_or_throw();
  EXPECT_GT(node.disk().stats().appends, mirrored);
}

/// Every file of `env` with its bytes.
std::map<std::string, std::string> files(const durable::StorageEnv& env) {
  std::map<std::string, std::string> out;
  for (const std::string& name : env.list()) out[name] = env.read(name);
  return out;
}

// Through publishes, snapshots, a rebalance, a kill with failover and a
// switchover, every live node's follower disk holds its primary's files.
TEST(ShardFleet, FollowerDiskHoldsThePrimarysFilesThroughChurn) {
  sim::Simulation sim;
  FleetConfig config = Fixture::make_config(2, nullptr);
  config.journal.wal.segment_bytes = 512;
  ShardFleet fleet(sim, config);
  for (std::uint32_t i = 0; i < fleet.size(); ++i)
    fleet.node(i).server().register_app("app1").value_or_throw();
  auto expect_mirrored = [&](const char* step) {
    SCOPED_TRACE(step);
    for (std::uint32_t i = 0; i < fleet.size(); ++i) {
      if (fleet.node(i).down()) continue;
      MirroredEnv& disk = fleet.node(i).disk();
      EXPECT_EQ(files(disk.follower()), files(disk.primary())) << i;
    }
  };
  auto publish = [&](int round) {
    for (const char* client : {"dev1", "dev2", "dev3"})
      fleet.broker_for(client)
          .publish("goflow", "b",
                   make_batch(std::string(client) + "#" + std::to_string(round),
                              client, round * 4, 4, 100 * round),
                   100 * round + 50)
          .value_or_throw();
  };

  publish(1);
  expect_mirrored("publishes");
  fleet.snapshot_all();
  publish(2);
  expect_mirrored("snapshot_all");
  ASSERT_TRUE(fleet.rebalance(slot_of("app1", "dev1"), 1));
  publish(3);
  expect_mirrored("rebalance");
  fleet.node(1).kill();
  expect_mirrored("kill");
  fleet.node(1).fail_over();
  publish(4);
  expect_mirrored("fail_over");
  fleet.node(0).fail_over();
  publish(5);
  expect_mirrored("switchover");
  EXPECT_EQ(fleet.node(0).failovers() + fleet.node(1).failovers(), 2u);
}

TEST(ShardFleet, ControllerSwitchoverWorksWhileUp) {
  Fixture f(1);
  ShardNode& node = f.fleet.node(0);
  f.publish("dev1", "b1", 0, 2, 100).value_or_throw();
  node.fail_over();  // no kill first: planned switchover
  EXPECT_EQ(node.server().total_observations(), 2u);
  f.publish("dev1", "b2", 2, 1, 200).value_or_throw();
  EXPECT_EQ(node.server().total_observations(), 3u);
}

TEST(ShardFleet, RebalanceMovesDocumentsAndDedupKeysWithoutLossOrDup) {
  // Batch ids follow the client convention "<client>#<counter>" and
  // observation keys "<client>#<span>": the text before the last '#' is
  // what lets the migration find a client's dedup keys — also for a
  // study client id, "<model>#<n>", whose neighbour shares its model.
  const std::pair<std::string, std::string> cases[] = {
      {"dev1", "dev"}, {"GT-I9300#5", "GT-I9300#"}};
  for (const auto& [moved, neighbour_prefix] : cases) {
    SCOPED_TRACE(moved);
    Fixture f(2);
    const std::uint32_t from = f.fleet.shard_for(moved);
    const std::uint32_t to = 1 - from;
    const std::string stays = neighbour(f.fleet, moved, neighbour_prefix);
    f.publish(moved, moved + "#1", 0, 3, 100, 11).value_or_throw();
    f.publish(moved, moved + "#2", 3, 2, 110, 14).value_or_throw();
    f.publish(stays, stays + "#1", 0, 1, 120, 21).value_or_throw();

    ASSERT_TRUE(f.fleet.rebalance(slot_of("app1", moved), to));
    EXPECT_EQ(f.fleet.rebalances(), 1u);
    EXPECT_EQ(f.registry.counter("shard.rebalances").value(), 1u);
    EXPECT_EQ(f.fleet.shard_for(moved), to);
    EXPECT_EQ(f.fleet.map().version(), 1u);

    // No loss: every moved document arrived; no dup: none left behind.
    EXPECT_EQ(stored_keys(f.fleet.node(from).db()),
              (std::multiset<std::string>{stays + "#0"}));
    EXPECT_EQ(stored_keys(f.fleet.node(to).db()),
              (std::multiset<std::string>{moved + "#0", moved + "#1",
                                          moved + "#2", moved + "#3",
                                          moved + "#4"}));
    // Each client's dedup keys sit with its documents.
    EXPECT_EQ(dedup_keys(f.fleet.node(from)),
              (std::set<std::string>{stays + "#1", stays + "#21"}));
    EXPECT_EQ(dedup_keys(f.fleet.node(to)),
              (std::set<std::string>{moved + "#1", moved + "#2", moved + "#11",
                                     moved + "#12", moved + "#13",
                                     moved + "#14", moved + "#15"}));

    // The dedup keys travelled with the slot: a redelivery of the first
    // batch -- which the router now sends to the new owner -- is still
    // exactly-once.
    f.publish(moved, moved + "#1", 0, 3, 100, 11).value_or_throw();
    EXPECT_EQ(f.fleet.node(to).server().duplicate_batches(), 1u);
    EXPECT_EQ(stored_keys(f.fleet.node(to).db()).size(), 5u);

    // Fresh traffic for the moved client lands on the new owner.
    f.publish(moved, moved + "#3", 5, 1, 200, 16).value_or_throw();
    EXPECT_EQ(stored_keys(f.fleet.node(from).db()).size(), 1u);
    EXPECT_EQ(stored_keys(f.fleet.node(to).db()).size(), 6u);
  }
}

// Flat uploads are stored as column runs, and a rebalance moves them so:
// the target's lazy rows rise by the rows moved, its documents read back
// as the source's under the target's next ids, and both hold after each
// end is killed and fails over onto its follower.
TEST(ShardFleet, RebalanceMovesFlatRowsAsColumnRuns) {
  sim::Simulation sim;
  ShardFleet fleet(sim, Fixture::make_config(2, nullptr));
  obs::Registry registries[2];
  for (std::uint32_t i = 0; i < fleet.size(); ++i) {
    fleet.node(i).server().register_app("app1").value_or_throw();
    fleet.node(i).db().set_metrics(&registries[i]);
  }
  auto lazy_rows = [&](std::uint32_t i) {
    return registries[i].gauge("docstore.lazy_rows").value();
  };
  const std::string moved = "dev1";
  const std::uint32_t from = fleet.shard_for(moved);
  const std::uint32_t to = 1 - from;
  const std::string stays = neighbour(fleet, moved, "dev");
  std::string held = "dev";
  for (int n = 0; fleet.shard_for(held) != to; ++n)
    held = "dev" + std::to_string(n);
  ingest::BatchPool pool;
  auto upload = [&](const std::string& client, int batch, int count) {
    fleet.broker_for(client)
        .publish_flat("goflow", "b",
                      make_flat_batch(pool, client + "#" + std::to_string(batch),
                                      client, count, 100 * batch),
                      100 * batch + 50)
        .value_or_throw();
  };
  upload(moved, 1, 5);
  upload(stays, 1, 3);
  upload(moved, 2, 4);
  upload(held, 1, 6);
  ASSERT_EQ(lazy_rows(from), 12.0);
  ASSERT_EQ(lazy_rows(to), 6.0);

  std::vector<std::string> want_from;
  std::vector<std::string> want_to = stored_json(fleet.node(to).db());
  std::size_t next_id = want_to.size();
  fleet.node(from).db().collection("observations").for_each(
      [&](const Value& d) {
        if (d.get_string("client") != moved) {
          want_from.push_back(d.to_json());
          return;
        }
        Value doc = d;
        doc.as_object().erase("_id");
        doc.as_object().set(
            "_id", Value("observations-" + std::to_string(++next_id)));
        want_to.push_back(doc.to_json());
      });

  ASSERT_TRUE(fleet.rebalance(slot_of("app1", moved), to));
  auto expect_moved = [&](const char* when) {
    SCOPED_TRACE(when);
    EXPECT_EQ(lazy_rows(from), 3.0);
    EXPECT_EQ(lazy_rows(to), 15.0);
    EXPECT_EQ(stored_json(fleet.node(from).db()), want_from);
    EXPECT_EQ(stored_json(fleet.node(to).db()), want_to);
  };
  expect_moved("after the rebalance");
  fleet.node(from).kill();
  fleet.node(to).kill();
  fleet.node(from).fail_over();
  fleet.node(to).fail_over();
  expect_moved("after both ends failed over");
}

TEST(ShardFleet, RebalanceSurvivesFailoverOnBothEnds) {
  // The moved state must be crash-durable the moment rebalance returns:
  // kill both ends right after and promote their followers.
  Fixture f(2);
  f.publish("dev1", "dev1#1", 0, 3, 100).value_or_throw();
  ASSERT_TRUE(f.fleet.rebalance(slot_of("app1", "dev1"), 1));

  f.fleet.node(0).kill();
  f.fleet.node(1).kill();
  f.fleet.fail_over_all_down();
  EXPECT_FALSE(f.fleet.node(0).down());
  EXPECT_FALSE(f.fleet.node(1).down());

  EXPECT_EQ(stored_keys(f.fleet.node(0).db()).size(), 0u);
  EXPECT_EQ(stored_keys(f.fleet.node(1).db()),
            (std::multiset<std::string>{"dev1#0", "dev1#1", "dev1#2"}));
  // Dedup keys survived migration + failover.
  f.publish("dev1", "dev1#1", 0, 3, 100).value_or_throw();
  EXPECT_EQ(f.fleet.node(1).server().duplicate_batches(), 1u);
}

TEST(ShardFleet, RebalanceMigratesPendingIngestWork) {
  Fixture f(2);
  fault::FaultPlan plan(7);
  plan.set_clock([&] { return f.sim.now(); });
  f.fleet.node(0).db().arm_faults(&plan);
  plan.fail_next(fault::FaultSite::kDocstoreInsert, 1);

  f.publish("dev1", "dev1#1", 0, 2, 100).value_or_throw();
  ASSERT_EQ(f.fleet.node(0).server().pending_ingest_batches(), 1u);
  f.fleet.node(0).db().arm_faults(nullptr);

  // The parked batch moves with its slot and completes on the target.
  ASSERT_TRUE(f.fleet.rebalance(slot_of("app1", "dev1"), 1));
  EXPECT_EQ(f.fleet.node(0).server().pending_ingest_batches(), 0u);
  f.sim.run_until(f.sim.now() + hours(1));
  EXPECT_EQ(f.fleet.node(1).server().pending_ingest_batches(), 0u);
  EXPECT_EQ(stored_keys(f.fleet.node(0).db()).size(), 0u);
  EXPECT_EQ(stored_keys(f.fleet.node(1).db()),
            (std::multiset<std::string>{"dev1#0", "dev1#1"}));
  EXPECT_EQ(f.fleet.node(1).server().duplicate_observations(), 0u);
}

TEST(ShardFleet, OpaqueBatchIdsDoNotMigrateWithTheSlot) {
  // The documented trade-off: dedup-key migration keys on the
  // "<client>#<counter>" convention. A batch id that doesn't follow it
  // has no extractable owner, so the key stays behind and a redelivery
  // to the new owner is accepted as new. The GoFlow client always uses
  // the convention; this pins what happens for clients that don't.
  Fixture f(2);
  f.publish("dev1", "opaque-batch", 0, 2, 100).value_or_throw();
  ASSERT_TRUE(f.fleet.rebalance(slot_of("app1", "dev1"), 1));
  // Documents still migrate (they carry the client field)...
  EXPECT_EQ(stored_keys(f.fleet.node(1).db()),
            (std::multiset<std::string>{"dev1#0", "dev1#1"}));
  // ...but the opaque key did not, so the new owner can't dedup it.
  f.publish("dev1", "opaque-batch", 0, 2, 100).value_or_throw();
  EXPECT_EQ(f.fleet.node(1).server().duplicate_batches(), 0u);
  EXPECT_EQ(stored_keys(f.fleet.node(1).db()).size(), 4u);
}

TEST(ShardFleet, RebalanceIsRefusedWhileEitherEndIsDown) {
  Fixture f(2);
  f.publish("dev1", "b1", 0, 1, 100).value_or_throw();
  std::uint32_t slot = slot_of("app1", "dev1");

  f.fleet.node(1).kill();
  EXPECT_FALSE(f.fleet.rebalance(slot, 1));
  EXPECT_EQ(f.fleet.rebalances_skipped(), 1u);
  EXPECT_EQ(f.fleet.shard_for("dev1"), 0u);  // route unchanged
  EXPECT_EQ(stored_keys(f.fleet.node(0).db()).size(), 1u);

  f.fleet.node(1).fail_over();
  EXPECT_TRUE(f.fleet.rebalance(slot, 1));
  EXPECT_EQ(f.fleet.shard_for("dev1"), 1u);
}

TEST(ShardFleet, RebalanceNextWalksTheRing) {
  Fixture f(3);
  std::uint32_t slot = slot_of("app1", "dev1");  // 12 -> shard 0
  ASSERT_TRUE(f.fleet.rebalance_next(slot));
  EXPECT_EQ(f.fleet.map().shard_of_slot(slot), 1u);
  ASSERT_TRUE(f.fleet.rebalance_next(slot));
  EXPECT_EQ(f.fleet.map().shard_of_slot(slot), 2u);
  ASSERT_TRUE(f.fleet.rebalance_next(slot));
  EXPECT_EQ(f.fleet.map().shard_of_slot(slot), 0u);

  // With one shard it is a structural no-op that still reports success.
  Fixture single(1);
  EXPECT_TRUE(single.fleet.rebalance_next(slot));
  EXPECT_EQ(single.fleet.rebalances(), 0u);
}

// Size gauges on a registry the nodes share are sums over the nodes, not
// the count of whichever node changed last.
TEST(ShardFleet, SharedRegistryGaugesSumOverNodes) {
  sim::Simulation sim;
  obs::Registry registry;
  FleetConfig config;
  config.shards = 3;
  config.metrics = &registry;
  config.journal.wal.segment_bytes = 512;
  ShardFleet fleet(sim, config);
  auto total = [&](auto per_node) {
    double sum = 0.0;
    for (std::uint32_t i = 0; i < fleet.size(); ++i)
      sum += static_cast<double>(per_node(fleet.node(i)));
    return sum;
  };

  broker::Broker& b0 = fleet.node(0).broker();
  b0.declare_exchange("extra.1", broker::ExchangeType::kTopic).throw_if_error();
  b0.declare_exchange("extra.2", broker::ExchangeType::kTopic).throw_if_error();
  const double exchanges = total(
      [](ShardNode& n) { return n.broker().exchange_names().size(); });
  EXPECT_DOUBLE_EQ(exchanges, 5.0);
  EXPECT_DOUBLE_EQ(registry.gauge("broker.exchanges").value(), exchanges);

  durable::Wal& wal1 = fleet.node(1).lifecycle().journal()->wal();
  for (int i = 0; i < 20; ++i) wal1.append(std::string(24, 'x'));
  const double segments = total([](ShardNode& n) {
    return n.lifecycle().journal()->wal().segment_count();
  });
  EXPECT_DOUBLE_EQ(segments, 3.0);
  EXPECT_DOUBLE_EQ(registry.gauge("durable.wal_segments").value(), segments);

  // Each node's store reports there too: documents of every collection,
  // and the flat rows, all held as columns.
  ingest::BatchPool pool;
  const char* clients[] = {"dev1", "dev2", "dev3", "dev4"};
  for (std::uint32_t i = 0; i < fleet.size(); ++i)
    fleet.node(i).server().register_app("app1").value_or_throw();
  for (int k = 0; k < 4; ++k)
    fleet.broker_for(clients[k])
        .publish_flat("goflow", "b",
                      make_flat_batch(pool, "f" + std::to_string(k),
                                      clients[k], 2 + k, 100),
                      200)
        .value_or_throw();
  fleet.broker_for("dev1")
      .publish("goflow", "b", make_batch("d1", "dev1", 0, 3, 100), 300)
      .value_or_throw();
  const double documents =
      total([](ShardNode& n) { return n.db().total_documents(); });
  EXPECT_GT(documents, 17.0);
  EXPECT_DOUBLE_EQ(registry.gauge("docstore.documents").value(), documents);
  EXPECT_DOUBLE_EQ(registry.gauge("docstore.lazy_rows").value(), 14.0);
}

// The 1-shard configuration is today's single server: same documents,
// same counters, same dedup behaviour for the same driven workload.
TEST(ShardFleet, SingleShardFleetMatchesPlainServer) {
  auto drive = [](broker::Broker& broker) {
    const char* clients[] = {"dev1", "dev2", "client-0042"};
    for (int b = 0; b < 9; ++b)
      broker
          .publish("goflow", "b",
                   make_batch("batch-" + std::to_string(b), clients[b % 3],
                              b * 10, 2, 100 + b),
                   1000 + b)
          .value_or_throw();
    // One redelivery to exercise dedup on both sides.
    broker
        .publish("goflow", "b", make_batch("batch-0", "dev1", 0, 2, 100), 2000)
        .value_or_throw();
  };

  Fixture f(1);
  drive(f.fleet.node(0).broker());

  sim::Simulation sim;
  broker::Broker broker;
  docstore::Database db;
  core::GoFlowServer server(sim, broker, db);
  durable::MemStorageEnv env;
  core::ServerLifecycle lc(env, sim, broker, db, server);
  server.register_app("app1").value_or_throw();
  drive(broker);

  EXPECT_EQ(stored_keys(f.fleet.node(0).db()), stored_keys(db));
  EXPECT_EQ(f.fleet.node(0).server().total_observations(),
            server.total_observations());
  EXPECT_EQ(f.fleet.node(0).server().total_batches(), server.total_batches());
  EXPECT_EQ(f.fleet.node(0).server().duplicate_batches(),
            server.duplicate_batches());
}

}  // namespace
}  // namespace mps::shard
