// The sharded, replicated serving plane (DESIGN.md §16).
//
// A ShardFleet partitions the whole middleware stack — broker, document
// store, GoFlow server, journal — into N independent shard nodes. Every
// (app, client) pair hashes to one of kHashSlots slots (shard_map.h),
// each slot lives on exactly one shard, and the router at the ingest
// edge (broker_for / shard_for) forwards a client's publishes to its
// owning shard's broker with zero extra copies: the same flat ObsBatch
// hand-off the single-server path uses, against a different broker
// reference.
//
// Replication: a node's journal writes through a MirroredEnv, so every
// WAL append, snapshot file and removal lands on the primary disk and,
// in the same call, on the follower disk. kill() models the primary
// dying; fail_over() promotes the follower disk — which also reformats
// the dead disk as its copy — and runs ordinary Journal recovery over
// it. Because each write reaches the follower before the call that made
// it returns, nothing acknowledged is lost across a failover.
//
// Rebalance: rebalance(slot, to) extracts the slot's per-client state
// from its current owner (stored rows in their stored form, pending
// ingest batches, both dedup key sets — GoFlowServer::extract_migration),
// adopts it on the target, flips the map entry and snapshots both nodes
// in the same sim event, so the move is atomic with respect to traffic
// and crash-durable the moment it completes. Dedup keys travelling with
// the slot is what keeps redirect + resend exactly-once.
//
// With shards == 1 the fleet is exactly today's single server on a
// mirrored disk — the byte-equivalence gate pins that.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "broker/broker.h"
#include "core/goflow_server.h"
#include "core/recovery.h"
#include "docstore/database.h"
#include "durable/journal.h"
#include "durable/storage.h"
#include "obs/metrics.h"
#include "shard/mirrored_env.h"
#include "shard/shard_map.h"
#include "sim/simulation.h"

namespace mps::shard {

struct FleetConfig {
  std::uint32_t shards = 1;
  /// The study app whose clients the router hashes (stable_client_hash
  /// keys on (app, client)).
  AppId app = "soundcity";
  core::ServerConfig server;
  durable::JournalConfig journal;
  obs::Registry* metrics = nullptr;  ///< every node's whole stack reports here
};

/// One shard: a full middleware stack whose journal writes through a
/// disk mirrored onto a follower, from the lifecycle's base snapshot on.
class ShardNode {
 public:
  ShardNode(std::uint32_t index, sim::Simulation& sim,
            const FleetConfig& config);

  ShardNode(const ShardNode&) = delete;
  ShardNode& operator=(const ShardNode&) = delete;

  std::uint32_t index() const { return index_; }
  broker::Broker& broker() { return broker_; }
  docstore::Database& db() { return db_; }
  core::GoFlowServer& server() { return server_; }
  core::ServerLifecycle& lifecycle() { return lifecycle_; }
  MirroredEnv& disk() { return disk_; }
  bool down() const { return lifecycle_.down(); }

  /// The primary process dies, and its disk drops its unsynced tail.
  /// Publishes fail until fail_over().
  void kill();

  /// Promotes the follower disk and recovers over it (newest snapshot +
  /// WAL tail). If the node is still up it is killed first (a
  /// controller-driven switchover).
  void fail_over();

  std::uint64_t failovers() const { return failovers_; }

 private:
  std::uint32_t index_;
  durable::MemStorageEnv env_a_;  ///< initial primary disk
  durable::MemStorageEnv env_b_;  ///< initial follower disk
  MirroredEnv disk_;
  broker::Broker broker_;
  docstore::Database db_;
  core::GoFlowServer server_;
  core::ServerLifecycle lifecycle_;
  std::uint64_t failovers_ = 0;
  obs::Sources sources_;
};

/// The fleet: N nodes plus the slot map and the rebalance path.
class ShardFleet {
 public:
  ShardFleet(sim::Simulation& sim, FleetConfig config);

  ShardFleet(const ShardFleet&) = delete;
  ShardFleet& operator=(const ShardFleet&) = delete;

  std::uint32_t size() const { return static_cast<std::uint32_t>(nodes_.size()); }
  ShardNode& node(std::uint32_t i) { return *nodes_.at(i); }
  ShardMap& map() { return map_; }
  const FleetConfig& config() const { return config_; }

  /// The shard owning this client right now.
  std::uint32_t shard_for(std::string_view client) const {
    return map_.shard_for(config_.app, client);
  }

  /// The router's answer at the ingest edge: the broker a publish for
  /// this client must go to. Consulted per publish (ClientConfig::
  /// broker_route), so a rebalance redirects the very next upload.
  broker::Broker& broker_for(std::string_view client) {
    return nodes_[shard_for(client)]->broker();
  }

  /// Moves one slot to `to_shard`: extract from the owner, adopt on the
  /// target, flip the map, snapshot both — all in the calling sim event.
  /// Skipped (returns false) when either end is down; the scheduler
  /// retries at the next rebalance tick rather than migrating against a
  /// dead store.
  bool rebalance(std::uint32_t slot, std::uint32_t to_shard);

  /// Convenience for chaos schedules: moves `slot` to the next shard in
  /// ring order. No-op with one shard.
  bool rebalance_next(std::uint32_t slot);

  /// Snapshot every live node (periodic durability tick).
  void snapshot_all();

  /// Recover every down node via failover (end-of-run: the books must
  /// close against live stores).
  void fail_over_all_down();

  std::uint64_t rebalances() const { return rebalances_; }
  std::uint64_t rebalances_skipped() const { return rebalances_skipped_; }

 private:
  FleetConfig config_;
  ShardMap map_;
  std::vector<std::unique_ptr<ShardNode>> nodes_;
  std::uint64_t rebalances_ = 0;
  std::uint64_t rebalances_skipped_ = 0;
  obs::Sources sources_;
};

}  // namespace mps::shard
