#include "shard/fleet.h"

namespace mps::shard {

ShardNode::ShardNode(std::uint32_t index, sim::Simulation& sim,
                     const FleetConfig& config)
    : index_(index),
      server_(sim, broker_, db_, config.server),
      shipper_(index, config.journal.wal, config.metrics),
      lifecycle_(env_a_, sim, broker_, db_, server_, config.journal,
                 config.metrics) {
  if (config.metrics != nullptr) {
    sources_.counter(*config.metrics, "shard.failovers", failovers_);
    broker_.set_metrics(config.metrics);
    db_.set_metrics(config.metrics);
    server_.set_metrics(config.metrics);
  }
  // The lifecycle constructor wrote the base snapshot; ship it and the
  // (empty) log so the follower is promotable from the first event on.
  shipper_.set_follower(&env_b_);
  shipper_.attach(&lifecycle_.journal()->wal());
  shipper_.mirror_snapshots(env_a_);
}

void ShardNode::kill() {
  if (down()) return;
  shipper_.detach();  // the journal (and its Wal) dies with the crash
  lifecycle_.crash();
}

void ShardNode::fail_over() {
  if (!down()) kill();
  durable::StorageEnv& promoted = follower_env();
  durable::StorageEnv& dead = primary_env();
  // The promoted journal opens its own Wal on the follower's env; one Wal
  // per env at a time.
  shipper_.set_follower(nullptr);
  lifecycle_.failover_to(promoted);
  primary_is_a_ = !primary_is_a_;
  // The dead primary's disk is reformatted as the new follower; shipping
  // restarts at the promoted log's oldest retained record, which the
  // empty follower Wal adopts as its first LSN (recovery snapshotted, so
  // that history is one snapshot + a short tail, not the whole past).
  wipe(dead);
  shipper_.set_follower(&dead);
  shipper_.attach(&lifecycle_.journal()->wal());
  shipper_.mirror_snapshots(promoted);
  ++failovers_;
}

void ShardNode::snapshot() {
  if (down()) return;
  lifecycle_.snapshot();
  shipper_.mirror_snapshots(primary_env());
}

void ShardNode::wipe(durable::StorageEnv& env) {
  for (const std::string& name : env.list()) env.remove(name);
}

ShardFleet::ShardFleet(sim::Simulation& sim, FleetConfig config)
    : config_(std::move(config)), map_(config_.shards) {
  if (config_.metrics != nullptr)
    sources_.counter(*config_.metrics, "shard.rebalances", rebalances_);
  nodes_.reserve(config_.shards);
  for (std::uint32_t i = 0; i < config_.shards; ++i)
    nodes_.push_back(std::make_unique<ShardNode>(i, sim, config_));
}

bool ShardFleet::rebalance(std::uint32_t slot, std::uint32_t to_shard) {
  std::uint32_t from = map_.shard_of_slot(slot);
  if (from == to_shard) return true;
  ShardNode& src = *nodes_.at(from);
  ShardNode& dst = *nodes_.at(to_shard);
  if (src.down() || dst.down()) {
    ++rebalances_skipped_;
    return false;
  }
  const AppId& app = config_.app;
  Value migration = src.server().extract_migration(
      [&](std::string_view client) { return slot_of(app, client) == slot; });
  dst.server().adopt_migration(migration);
  map_.move_slot(slot, to_shard);
  // Same-event durability: extract/adopt used the recovery appliers
  // (never journaled), so the move only becomes crash-safe with these
  // two snapshots — and rebalance() is one atomic sim event, so no
  // traffic can slip in between.
  src.snapshot();
  dst.snapshot();
  ++rebalances_;
  return true;
}

bool ShardFleet::rebalance_next(std::uint32_t slot) {
  if (size() < 2) return true;
  std::uint32_t from = map_.shard_of_slot(slot);
  return rebalance(slot, (from + 1) % size());
}

void ShardFleet::snapshot_all() {
  for (auto& node : nodes_) node->snapshot();
}

void ShardFleet::fail_over_all_down() {
  for (auto& node : nodes_)
    if (node->down()) node->fail_over();
}

}  // namespace mps::shard
