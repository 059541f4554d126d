// The fleet chaos gate (ISSUE satellite: shard-kill and rebalance
// sweeps): the city deployment at small scale on a 3-shard replicated
// fleet, with shard primaries dying and failing over to their mirrored
// follower disks and hash slots rebalancing between shards — all while
// ingest is running. The pipeline invariants must hold against
// the *union* of the shards: nothing acknowledged is lost, no span is
// stored twice anywhere in the fleet (a migration that copied instead
// of moved fails here), per-device upload order survives. A failing
// (profile, seed) pair replays bit-for-bit.
//
// Also the 1-shard byte-equivalence gate: a fleet of one must leave the
// middleware in byte-identical observable state to the plain single
// server — stored documents, both dedup sets, the report figures. The
// sharded plane is an organisation of the existing stack, not a fork
// of its semantics.
//
// When MPS_FAULT_REPORT_DIR is set (CI chaos job), a per-seed JSONL
// report is written there for artifact upload.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "docstore/database.h"
#include "exec/executor.h"
#include "exec/sweep.h"
#include "fault/fault.h"
#include "obs/flight_recorder.h"
#include "shard/fleet.h"
#include "study/invariants.h"
#include "study/study.h"

namespace mps::study {
namespace {

constexpr std::uint64_t kSeeds = 10;

std::string collection_json(docstore::Database& db) {
  Array docs;
  if (db.has_collection("observations"))
    db.collection("observations")
        .for_each([&docs](const Value& doc) { docs.push_back(doc); });
  return Value(std::move(docs)).to_json();
}

std::string ordered_keys_json(const BoundedKeySet& set) {
  Array keys;
  for (const std::string& k : set.ordered()) keys.push_back(Value(k));
  return Value(std::move(keys)).to_json();
}

struct ChaosOutcome {
  StudyReport study;
  InvariantReport invariants;
  std::uint64_t faults_injected = 0;
  /// The fleet's shard.* mirror counters and the durable.* facts each
  /// one must equal: every WAL record, sync and snapshot manifest
  /// crosses to a follower once.
  std::uint64_t shipped_records = 0;
  std::uint64_t wal_appends = 0;
  std::uint64_t ship_frames = 0;
  std::uint64_t fsync_batches = 0;
  std::uint64_t snapshots_mirrored = 0;
  std::uint64_t snapshots = 0;
  std::string docs_json;  ///< all shards, node order (determinism check)
};

ChaosOutcome run_fleet_chaos(const std::string& profile, std::uint64_t seed) {
  obs::FlightRecorder::instance().set_thread_scope(
      profile + "/seed=" + std::to_string(seed));
  sim::Simulation sim;
  obs::Registry registry;
  obs::SpanTracker tracer(&registry);

  shard::FleetConfig fc;
  fc.shards = 3;
  fc.metrics = &registry;
  shard::ShardFleet fleet(sim, fc);
  for (std::uint32_t i = 0; i < fleet.size(); ++i) {
    fleet.node(i).server().set_metrics(&registry);
    fleet.node(i).server().set_tracer(&tracer);
  }

  fault::FaultPlan plan = fault::FaultPlan::profile(profile, seed);

  crowd::PopulationConfig pc;
  pc.seed = seed;
  pc.device_scale = 0.005;  // ~20 devices (min 1 per model)
  pc.obs_scale = 0.05;
  pc.horizon = days(4);
  crowd::Population pop = crowd::Population::generate(pc);

  StudyConfig sc;
  sc.seed = seed;
  sc.duration_days = 2;
  sc.metrics = &registry;
  sc.tracer = &tracer;
  sc.faults = &plan;
  sc.shard_fleet = &fleet;
  sc.snapshot_period = hours(6);  // bounds failover replay between kills
  sc.drain = hours(1);

  StudyRunner runner(pop, sc, sim, fleet.node(0).broker(),
                     fleet.node(0).server());
  ChaosOutcome out;
  out.study = runner.run();

  std::vector<core::GoFlowServer*> servers;
  for (std::uint32_t i = 0; i < fleet.size(); ++i)
    servers.push_back(&fleet.node(i).server());
  out.invariants = check_invariants(tracer, servers, runner.clients());
  std::string forensics = dump_forensics(
      out.invariants, profile + "_seed" + std::to_string(seed));
  if (!forensics.empty())
    std::fprintf(stderr, "invariant violation: flight recorder dumped to %s\n",
                 forensics.c_str());
  out.faults_injected = plan.total_injected();
  out.shipped_records = registry.counter("shard.shipped_records").value();
  out.wal_appends = registry.counter("durable.wal_appends").value();
  out.ship_frames = registry.counter("shard.ship_frames").value();
  out.fsync_batches = registry.counter("durable.fsync_batches").value();
  out.snapshots_mirrored =
      registry.counter("shard.snapshots_mirrored").value();
  out.snapshots = registry.counter("durable.snapshots").value();
  for (std::uint32_t i = 0; i < fleet.size(); ++i)
    out.docs_json += collection_json(fleet.node(i).db());
  return out;
}

std::size_t sweep_threads() {
  return exec::resolve_threads("MPS_TEST_THREADS", /*cap=*/8);
}

TEST(FleetChaosSweep, NoLossNoDupAcrossFailoversAndRebalances) {
  const char* report_dir = std::getenv("MPS_FAULT_REPORT_DIR");
  std::ofstream report_out;
  if (report_dir != nullptr) {
    report_out.open(std::string(report_dir) + "/shard_chaos_invariants.jsonl");
    ASSERT_TRUE(report_out.is_open())
        << "cannot write to MPS_FAULT_REPORT_DIR=" << report_dir;
  }

  const std::vector<std::string>& profiles =
      fault::FaultPlan::shard_profile_names();
  struct Job {
    std::string profile;
    std::uint64_t seed;
  };
  std::vector<Job> jobs;
  for (const std::string& profile : profiles)
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed)
      jobs.push_back({profile, seed});

  std::vector<ChaosOutcome> outcomes(jobs.size());
  exec::SweepExecutor sweep(sweep_threads());
  sweep.run(jobs.size(), [&](std::size_t i) {
    outcomes[i] = run_fleet_chaos(jobs[i].profile, jobs[i].seed);
  });

  // Assert (and report) on the main thread, in deterministic job order.
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    const std::string& profile = profiles[p];
    std::uint64_t failovers_across_seeds = 0;
    std::uint64_t rebalances_across_seeds = 0;
    std::uint64_t injected_across_seeds = 0;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const ChaosOutcome& out = outcomes[p * kSeeds + (seed - 1)];
      failovers_across_seeds += out.study.shard_failovers;
      rebalances_across_seeds += out.study.shard_rebalances;
      injected_across_seeds += out.faults_injected;

      SCOPED_TRACE("profile=" + profile + " seed=" + std::to_string(seed));
      // The fleet-wide durability invariants, per run: no acknowledged
      // observation lost, no span stored twice on ANY shard, per-device
      // order preserved — through every failover and slot move.
      EXPECT_EQ(out.invariants.lost, 0u);
      EXPECT_EQ(out.invariants.duplicate_spans_stored, 0u);
      EXPECT_EQ(out.invariants.order_violations, 0u);
      EXPECT_TRUE(out.invariants.ok());
      // Every span landed in exactly one bucket.
      EXPECT_EQ(out.invariants.spans_total,
                out.invariants.persisted + out.invariants.on_device +
                    out.invariants.in_server +
                    out.invariants.dropped_attributed +
                    out.invariants.never_shared + out.invariants.lost);
      // The run did real work and the chaos was real: primaries died,
      // follower disks were promoted, slots moved.
      EXPECT_GT(out.study.observations_recorded, 0u);
      EXPECT_GT(out.invariants.persisted, 0u);
      EXPECT_GT(out.study.shard_failovers, 0u);
      EXPECT_GT(out.study.shard_rebalances +
                    out.study.shard_rebalances_skipped,
                0u);
      EXPECT_GT(out.shipped_records, 0u);
      // Each write crossed to a follower once: failovers re-send nothing.
      EXPECT_EQ(out.shipped_records, out.wal_appends);
      EXPECT_EQ(out.ship_frames, out.fsync_batches);
      EXPECT_EQ(out.snapshots_mirrored, out.snapshots);

      if (report_out.is_open()) {
        report_out << "{\"profile\":\"" << profile << "\",\"seed\":" << seed
                   << ",\"shard_failovers\":" << out.study.shard_failovers
                   << ",\"shard_rebalances\":" << out.study.shard_rebalances
                   << ",\"rebalances_skipped\":"
                   << out.study.shard_rebalances_skipped
                   << ",\"shipped_records\":" << out.shipped_records
                   << ",\"faults_injected\":" << out.faults_injected
                   << ",\"publish_failures\":" << out.study.publish_failures
                   << ",\"upload_retries\":" << out.study.upload_retries
                   << ",\"invariants\":" << out.invariants.to_json() << "}\n";
      }
    }
    EXPECT_GT(failovers_across_seeds, 0u);
    EXPECT_GT(rebalances_across_seeds, 0u);
    // The lossy variant must combine fleet churn with network hostility.
    if (profile == "shard-kill-lossy") {
      EXPECT_GT(injected_across_seeds, 0u);
    }
  }
}

TEST(FleetChaosSweep, FleetChaosIsDeterministicPerSeed) {
  ChaosOutcome a = run_fleet_chaos("shard-kill", 5);
  ChaosOutcome b = run_fleet_chaos("shard-kill", 5);
  EXPECT_EQ(a.study.shard_failovers, b.study.shard_failovers);
  EXPECT_EQ(a.study.shard_rebalances, b.study.shard_rebalances);
  EXPECT_EQ(a.study.observations_recorded, b.study.observations_recorded);
  EXPECT_EQ(a.study.observations_stored, b.study.observations_stored);
  EXPECT_EQ(a.shipped_records, b.shipped_records);
  EXPECT_EQ(a.docs_json, b.docs_json);
  EXPECT_EQ(a.invariants.to_json(), b.invariants.to_json());
}

// Per-shard kill streams are independent child streams: shard 0's
// schedule never changes when the fleet grows, and distinct shards draw
// distinct schedules. Rebalance schedules are pure functions of the
// seed with disjoint-downtime kills per shard.
TEST(FleetChaosSweep, ShardSchedulesAreDeterministicAndPerShard) {
  fault::FaultPlan plan = fault::FaultPlan::shard_kill(7);
  auto s0 = plan.shard_kill_schedule(0, days(2));
  auto s1 = plan.shard_kill_schedule(1, days(2));
  ASSERT_FALSE(s0.empty());
  ASSERT_FALSE(s1.empty());
  // Distinct shards, distinct streams.
  bool differs = s0.size() != s1.size();
  for (std::size_t i = 0; !differs && i < s0.size(); ++i)
    differs = s0[i].at != s1[i].at || s0[i].down_for != s1[i].down_for;
  EXPECT_TRUE(differs);
  // Replayable, with downtimes disjoint and inside the horizon.
  auto again = plan.shard_kill_schedule(0, days(2));
  ASSERT_EQ(s0.size(), again.size());
  TimeMs up_at = 0;
  for (std::size_t i = 0; i < s0.size(); ++i) {
    EXPECT_EQ(s0[i].at, again[i].at);
    EXPECT_EQ(s0[i].down_for, again[i].down_for);
    EXPECT_GE(s0[i].at, up_at) << "downtimes overlap";
    EXPECT_LT(s0[i].at, days(2));
    up_at = s0[i].at + s0[i].down_for;
  }

  auto r = plan.rebalance_schedule(days(2));
  ASSERT_FALSE(r.empty());
  auto r2 = plan.rebalance_schedule(days(2));
  ASSERT_EQ(r.size(), r2.size());
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(r[i].at, r2[i].at);
    EXPECT_EQ(r[i].slot, r2[i].slot);
    EXPECT_LT(r[i].at, days(2));
    EXPECT_LT(r[i].slot, 256u);
    if (i > 0) {
      EXPECT_GE(r[i].at, r[i - 1].at);
    }
  }

  // The fleet profiles resolve by name but stay out of profile_names()
  // (single-server sweeps must not pick them up).
  for (const std::string& name : fault::FaultPlan::shard_profile_names()) {
    fault::FaultPlan p = fault::FaultPlan::profile(name, 3);
    EXPECT_EQ(p.profile_name(), name);
    EXPECT_GT(p.shard_kill_rate_per_day, 0.0);
    for (const std::string& single : fault::FaultPlan::profile_names())
      EXPECT_NE(single, name);
  }
}

// The 1-shard byte-equivalence gate: the same clean study against a
// fleet of one and against the plain single server must close in
// byte-identical state — documents in insertion order, both dedup sets
// in eviction order, and every report figure. Pinning this means every
// single-server result in the repo transfers to the sharded plane.
TEST(FleetChaosSweep, SingleShardStudyIsByteIdenticalToPlainServer) {
  struct Outcome {
    std::string docs_json;
    std::string dedup_keys_json;
    std::string batch_ids_json;
    StudyReport report;
    InvariantReport invariants;
  };

  crowd::PopulationConfig pc;
  pc.seed = 9;
  pc.device_scale = 0.004;
  pc.obs_scale = 0.02;
  pc.horizon = days(2);

  auto run_study = [&pc](bool fleet_mode) {
    sim::Simulation sim;
    obs::Registry registry;
    obs::SpanTracker tracer(&registry);
    crowd::Population pop = crowd::Population::generate(pc);

    StudyConfig sc;
    sc.seed = 9;
    sc.duration_days = 1;
    sc.metrics = &registry;
    sc.tracer = &tracer;

    Outcome out;
    if (fleet_mode) {
      shard::FleetConfig fc;
      fc.shards = 1;
      shard::ShardFleet fleet(sim, fc);
      core::GoFlowServer& server = fleet.node(0).server();
      server.set_metrics(&registry);
      server.set_tracer(&tracer);
      sc.shard_fleet = &fleet;
      StudyRunner runner(pop, sc, sim, fleet.node(0).broker(), server);
      out.report = runner.run();
      out.invariants = check_invariants(tracer, server, runner.clients());
      out.docs_json = collection_json(fleet.node(0).db());
      out.dedup_keys_json = ordered_keys_json(server.seen_obs_keys());
      out.batch_ids_json = ordered_keys_json(server.seen_batch_ids());
    } else {
      broker::Broker broker;
      docstore::Database db;
      core::GoFlowServer server(sim, broker, db);
      server.set_metrics(&registry);
      server.set_tracer(&tracer);
      StudyRunner runner(pop, sc, sim, broker, server);
      out.report = runner.run();
      out.invariants = check_invariants(tracer, server, runner.clients());
      out.docs_json = collection_json(db);
      out.dedup_keys_json = ordered_keys_json(server.seen_obs_keys());
      out.batch_ids_json = ordered_keys_json(server.seen_batch_ids());
    }
    return out;
  };

  Outcome fleet = run_study(true);
  Outcome plain = run_study(false);
  ASSERT_GT(plain.report.observations_stored, 0u);
  EXPECT_EQ(fleet.docs_json, plain.docs_json);
  EXPECT_EQ(fleet.dedup_keys_json, plain.dedup_keys_json);
  EXPECT_EQ(fleet.batch_ids_json, plain.batch_ids_json);
  EXPECT_EQ(fleet.report.observations_recorded,
            plain.report.observations_recorded);
  EXPECT_EQ(fleet.report.observations_stored, plain.report.observations_stored);
  EXPECT_EQ(fleet.report.uploads, plain.report.uploads);
  EXPECT_EQ(fleet.report.deferred_uploads, plain.report.deferred_uploads);
  EXPECT_EQ(fleet.report.buffered_unsent, plain.report.buffered_unsent);
  EXPECT_EQ(fleet.report.in_flight_unsent, plain.report.in_flight_unsent);
  EXPECT_EQ(fleet.report.pending_server_batches,
            plain.report.pending_server_batches);
  EXPECT_EQ(fleet.report.duplicate_observations,
            plain.report.duplicate_observations);
  EXPECT_DOUBLE_EQ(fleet.report.mean_delay_ms, plain.report.mean_delay_ms);
  EXPECT_EQ(fleet.invariants.to_json(), plain.invariants.to_json());
  // Fleet bookkeeping stayed quiet: nothing to fail over or move.
  EXPECT_EQ(fleet.report.shard_failovers, 0u);
  EXPECT_EQ(fleet.report.shard_rebalances, 0u);
}

}  // namespace
}  // namespace mps::study
