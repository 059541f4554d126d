// Sharded serving plane: what the fleet costs over the single server
// (DESIGN.md §16). Four measurements:
//
//   1. Routing overhead — the per-publish stable_client_hash + slot-map
//      lookup the ingest edge pays. This is the whole steady-state tax
//      of sharding: the batch hand-off itself is the same zero-copy
//      publish against a different broker reference.
//   2. WAL mirroring throughput — records/s a WAL appends through a
//      MirroredEnv, each framed record landing on the primary and the
//      follower disk in the same call.
//   3. Failover latency — kill + follower promotion (disk promotion, then
//      Journal recovery over snapshot + WAL tail) with a populated store.
//   4. Rebalance latency — one hash slot (documents + dedup keys +
//      pending batches) extracted, adopted and double-snapshotted.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "durable/storage.h"
#include "durable/wal.h"
#include "shard/fleet.h"
#include "shard/mirrored_env.h"
#include "shard/shard_map.h"
#include "sim/simulation.h"

namespace {

using namespace mps;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

Value make_batch(const std::string& batch_id, const std::string& client,
                 int first_seq, int count, TimeMs captured_at) {
  Array observations;
  for (int i = 0; i < count; ++i)
    observations.push_back(Value(Object{{"seq", Value(first_seq + i)},
                                        {"captured_at", Value(captured_at)},
                                        {"spl", Value(55.0 + i)}}));
  return Value(Object{{"batch_id", Value(batch_id)},
                      {"app", Value("app1")},
                      {"client", Value(client)},
                      {"observations", Value(std::move(observations))}});
}

/// Publishes `batches` 5-observation batches for `client` through the
/// router, the same path the fleet study drives.
void load_client(shard::ShardFleet& fleet, const std::string& client,
                 int batches, int first_batch = 0) {
  for (int b = first_batch; b < first_batch + batches; ++b) {
    fleet.broker_for(client)
        .publish("goflow", "b",
                 make_batch(client + "#" + std::to_string(b), client, b * 5, 5,
                            minutes(b)),
                 minutes(b))
        .value_or_throw();
  }
}

}  // namespace

int main() {
  using namespace mps::bench;
  BenchScale scale = bench_scale_from_env();
  print_header("bench_shard",
               "Sharded serving plane - routing overhead, WAL mirroring "
               "throughput, failover and rebalance latency",
               scale);

  // --- 1. Routing overhead ------------------------------------------------
  const int kRoutes = 2'000'000;
  {
    shard::ShardMap map(4);
    std::vector<std::string> clients;
    for (int i = 0; i < 512; ++i)
      clients.push_back("device-" + std::to_string(i));
    // Warm + keep the result alive so the loop cannot be elided.
    std::uint64_t sink = 0;
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kRoutes; ++i)
      sink += map.shard_for("soundcity", clients[i & 511]);
    double secs = seconds_since(start);
    std::printf("1) routing: %d lookups in %.3fs (%.1f ns/route, sink %llu)\n",
                kRoutes, secs, secs / kRoutes * 1e9,
                static_cast<unsigned long long>(sink));
    bench_record("routing_overhead_ns", secs / kRoutes * 1e9);
    bench_record_rate("routes", kRoutes, secs);
  }

  // --- 2. WAL mirroring throughput ----------------------------------------
  const int kRecords = 50'000;
  {
    durable::MemStorageEnv primary_env;
    durable::MemStorageEnv follower_env;
    shard::MirroredEnv disk(primary_env, follower_env);
    durable::Wal wal(disk);
    const std::string payload(200, 'x');
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kRecords; ++i) wal.append(payload);
    double secs = seconds_since(start);
    const std::size_t follower_bytes = follower_env.total_durable_bytes();
    std::printf(
        "2) mirroring: %d records in %.3fs (%.0f records/s, %llu framed "
        "WAL bytes on the follower)\n",
        kRecords, secs, kRecords / secs,
        static_cast<unsigned long long>(follower_bytes));
    bench_record_rate("ship_records", kRecords, secs);
    bench_record("ship_frame_bytes", static_cast<double>(follower_bytes));
  }

  // --- 3. Failover latency ------------------------------------------------
  const int kBatches = 2'000;  // 10k observations on the shard
  {
    sim::Simulation sim;
    shard::FleetConfig fc;
    fc.shards = 2;
    fc.app = "app1";
    shard::ShardFleet fleet(sim, fc);
    for (std::uint32_t i = 0; i < fleet.size(); ++i)
      fleet.node(i).server().register_app("app1").value_or_throw();
    shard::ShardNode& node = fleet.node(fleet.shard_for("dev1"));
    load_client(fleet, "dev1", kBatches / 2);
    node.lifecycle().snapshot();  // half snapshotted, half in the WAL tail
    load_client(fleet, "dev1", kBatches / 2, kBatches / 2);

    auto start = std::chrono::steady_clock::now();
    node.kill();
    node.fail_over();
    double secs = seconds_since(start);
    std::printf("3) failover: %d batches (%llu docs) promoted in %.1f ms\n",
                kBatches,
                static_cast<unsigned long long>(
                    node.server().total_observations()),
                secs * 1e3);
    bench_record("failover_ms", secs * 1e3);
    bench_record("failover_docs",
                 static_cast<double>(node.server().total_observations()));
    // Promotion is only worth timing if it recovered everything: every
    // acknowledged observation back, snapshot half and tail half alike.
    bench_record("failover_state_match",
                 node.server().total_observations() ==
                         static_cast<std::uint64_t>(kBatches) * 5
                     ? 1.0
                     : 0.0);
  }

  // --- 4. Rebalance latency -----------------------------------------------
  {
    sim::Simulation sim;
    shard::FleetConfig fc;
    fc.shards = 2;
    fc.app = "app1";
    shard::ShardFleet fleet(sim, fc);
    for (std::uint32_t i = 0; i < fleet.size(); ++i)
      fleet.node(i).server().register_app("app1").value_or_throw();
    load_client(fleet, "dev1", kBatches);  // slot 12, pinned golden route
    std::uint32_t slot = shard::slot_of("app1", "dev1");
    std::uint32_t from = fleet.shard_for("dev1");

    auto start = std::chrono::steady_clock::now();
    bool moved = fleet.rebalance_next(slot);
    double secs = seconds_since(start);
    std::uint32_t to = fleet.shard_for("dev1");
    std::printf("4) rebalance: slot %u (%d batches) moved=%d in %.1f ms\n",
                slot, kBatches, moved ? 1 : 0, secs * 1e3);
    bench_record("rebalance_ms", secs * 1e3);
    bench_record("rebalance_docs", static_cast<double>(kBatches) * 5.0);
    // The move must actually have moved: new owner, all documents there,
    // old owner empty. (Counted in the store, not the ingest counters —
    // migration applies through the recovery path, which doesn't count.)
    auto stored = [&fleet](std::uint32_t i) -> std::size_t {
      docstore::Database& db = fleet.node(i).db();
      return db.has_collection("observations")
                 ? db.collection("observations").size()
                 : 0;
    };
    bench_record("rebalance_state_match",
                 moved && to != from &&
                         stored(to) == static_cast<std::size_t>(kBatches) * 5 &&
                         stored(from) == 0
                     ? 1.0
                     : 0.0);
  }
  return 0;
}
