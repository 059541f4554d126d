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
// Replication: a WalShipper appends each record of a node's primary
// journal, frame for frame, to a follower Wal on a second StorageEnv,
// mirrors the primary's snapshots there and truncates the follower's log
// with them. kill() models the primary dying; fail_over() releases the
// follower Wal and promotes the follower — Journal recovery over the
// shipped files — then reverses the shipping direction onto the wiped
// old-primary disk. Because the shipper appends every record at append
// time and snapshots are mirrored on write, nothing acknowledged is lost
// across a failover.
//
// Rebalance: rebalance(slot, to) extracts the slot's per-client state
// from its current owner (stored rows in their stored form, pending
// ingest batches, both dedup key sets — GoFlowServer::extract_migration),
// adopts it on the target, flips the map entry and snapshots both nodes
// in the same sim event, so the move is atomic with respect to traffic
// and crash-durable the moment it completes. Dedup keys travelling with
// the slot is what keeps redirect + resend exactly-once.
//
// With shards == 1 the fleet is exactly today's single server plus an
// idle shipper — the byte-equivalence gate pins that.
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
#include "shard/shard_map.h"
#include "shard/wal_shipper.h"
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

/// One shard: a full middleware stack with primary/follower storage and
/// a shipper keeping the follower current. Construction wires shipping
/// and mirrors the lifecycle's base snapshot immediately.
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
  WalShipper& shipper() { return shipper_; }
  bool down() const { return lifecycle_.down(); }

  /// The primary process dies (shipper detached first — it must never
  /// touch the dead journal). Publishes fail until fail_over().
  void kill();

  /// Promotes the follower: releases the shipper's follower Wal, recovers
  /// over the mirrored snapshot + the shipped WAL tail, then restarts
  /// shipping in the opposite direction onto the wiped old-primary env.
  /// If the node is still up it is killed first (a controller-driven
  /// switchover).
  void fail_over();

  /// Snapshot through the lifecycle, then mirror the new manifest and
  /// segments to the follower (the shipped tail alone cannot recover
  /// pre-attach state). Use this — not lifecycle().snapshot() — so the
  /// follower stays promotable.
  void snapshot();

  std::uint64_t failovers() const { return failovers_; }

 private:
  durable::StorageEnv& primary_env() { return primary_is_a_ ? env_a_ : env_b_; }
  durable::StorageEnv& follower_env() {
    return primary_is_a_ ? env_b_ : env_a_;
  }
  static void wipe(durable::StorageEnv& env);

  std::uint32_t index_;
  durable::MemStorageEnv env_a_;  ///< initial primary disk
  durable::MemStorageEnv env_b_;  ///< initial follower disk
  bool primary_is_a_ = true;
  broker::Broker broker_;
  docstore::Database db_;
  core::GoFlowServer server_;
  WalShipper shipper_;
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
