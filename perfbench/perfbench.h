// Shared pieces of the study-replay program: the workload
// configuration it is given on the command line, bench-owned wall-clock
// spans, and the post-run layer replay (replay.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "crowd/population.h"
#include "docstore/collection.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One serving configuration, as run.py passes it from workloads.json.
struct Workload {
  std::string name;
  std::uint64_t seed = 1;
  double device_scale = 0.01;
  double target_obs = 0.0;  ///< expected stored observations (input size)
  double obs_scale = 0.0;   ///< derived from target_obs for the seed
  int days = 7;
  std::string profile = "none";  ///< fault::FaultPlan profile name
  bool journaled = false;        ///< one server with a ServerLifecycle
  std::uint32_t shards = 1;      ///< > 1: a ShardFleet serves the study
  bool socket = false;           ///< devices publish over loopback
  int snapshot_hours = 0;
};

/// A bench-owned span: wall-clock interval in microseconds since the
/// program started.
struct Span {
  std::string name;
  double start_us = 0.0;
  double dur_us = 0.0;
};

/// Stored observations regrouped into the upload batches they arrived in.
struct ReplayBatch {
  std::string client;
  mps::TimeMs received_at = 0;
  std::vector<mps::phone::Observation> observations;
};

/// Regroups every stored observation by (client, received_at), in
/// storage order.
std::vector<ReplayBatch> regroup(
    const std::vector<const mps::docstore::Collection*>& collections);

/// Replays the stored batches through each layer's public entry point on
/// fresh instances. Fills per-layer metrics (`<layer>.*`) and the layer
/// wall times in seconds (`time.<layer>_s`), and appends one span per
/// replay call. Direct docstore reads go to every final collection (one
/// per node) and are timed as one call.
void replay_layers(const Workload& workload,
                   const mps::crowd::Population& population,
                   const std::vector<const mps::docstore::Collection*>&
                       final_collections,
                   const std::vector<ReplayBatch>& batches,
                   std::map<std::string, double>& metrics,
                   std::vector<Span>& spans, Clock::time_point epoch);

/// Resident set size and its high-water mark (bytes), from /proc.
std::uint64_t vm_rss_bytes();
std::uint64_t vm_hwm_bytes();

/// Bytes the allocator has handed out and not taken back (heap chunks in
/// use plus mmapped chunks): unlike RSS, it cannot hide growth behind
/// pages freed earlier.
std::uint64_t heap_in_use_bytes();

}  // namespace perfbench
