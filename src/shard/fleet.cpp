#include "shard/fleet.h"

namespace mps::shard {

ShardNode::ShardNode(std::uint32_t index, sim::Simulation& sim,
                     const FleetConfig& config)
    : index_(index),
      disk_(env_a_, env_b_, config.metrics),
      server_(sim, broker_, db_, config.server),
      lifecycle_(disk_, sim, broker_, db_, server_, config.journal,
                 config.metrics) {
  if (config.metrics != nullptr) {
    sources_.counter(*config.metrics, "shard.failovers", failovers_);
    broker_.set_metrics(config.metrics);
    db_.set_metrics(config.metrics);
    server_.set_metrics(config.metrics);
  }
}

void ShardNode::kill() { lifecycle_.crash(); }

void ShardNode::fail_over() {
  if (!down()) kill();
  disk_.promote();
  lifecycle_.recover();
  ++failovers_;
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
  src.lifecycle().snapshot();
  dst.lifecycle().snapshot();
  ++rebalances_;
  return true;
}

bool ShardFleet::rebalance_next(std::uint32_t slot) {
  if (size() < 2) return true;
  std::uint32_t from = map_.shard_of_slot(slot);
  return rebalance(slot, (from + 1) % size());
}

void ShardFleet::snapshot_all() {
  for (auto& node : nodes_) node->lifecycle().snapshot();
}

void ShardFleet::fail_over_all_down() {
  for (auto& node : nodes_)
    if (node->down()) node->fail_over();
}

}  // namespace mps::shard
