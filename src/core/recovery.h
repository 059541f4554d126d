// Crash/recovery orchestration for the whole GoFlow middleware process.
//
// The paper's deployment ran the broker, the document store and the
// GoFlow server as one middleware host; when that host dies, all three
// lose their volatile state together. ServerLifecycle models exactly
// that: it owns the shared Journal (one WAL totally ordering every
// "db." / "brk." / "srv." record), wires it into all three components,
// and drives the crash -> recover cycle the chaos harness schedules.
//
//   ServerLifecycle lc(env, sim, broker, db, server);
//   ...traffic...
//   lc.crash();     // power cut: unsynced WAL tail lost, RAM gone
//   ...downtime: publishes fail, clients retry from their buffers...
//   lc.recover();   // snapshot + WAL tail replay; server resumes pending
//                   // batches, then re-subscribes to the ingest queue
//
// Components keep their object identity across the cycle (every client
// holds references to the same Broker/Database/GoFlowServer), matching
// how a TCP endpoint survives a remote restart: same address, fresh
// state behind it.
#pragma once

#include <memory>

#include "broker/broker.h"
#include "core/goflow_server.h"
#include "docstore/database.h"
#include "durable/journal.h"
#include "durable/storage.h"
#include "obs/metrics.h"
#include "sim/simulation.h"

namespace mps::core {

class ServerLifecycle {
 public:
  /// Opens (or re-opens) the journal in `env`, attaches it to the broker,
  /// database and server, and immediately writes a snapshot: the
  /// components carry state created before attachment (the server's
  /// constructor declares topology and indexes journal-less), and the
  /// snapshot is what makes that base state recoverable.
  ServerLifecycle(durable::StorageEnv& env, sim::Simulation& sim,
                  broker::Broker& broker, docstore::Database& db,
                  GoFlowServer& server, durable::JournalConfig config = {},
                  obs::Registry* metrics = nullptr);
  ~ServerLifecycle();

  ServerLifecycle(const ServerLifecycle&) = delete;
  ServerLifecycle& operator=(const ServerLifecycle&) = delete;

  /// Kills the middleware process: storage drops its unsynced tail, then
  /// the server, broker and database empty their volatile state in
  /// place. Until recover(), publishes and queries fail as they would
  /// against a dead host, and snapshot() is a no-op.
  void crash();

  /// Brings the process back: repairs the WAL tail, loads the newest
  /// valid snapshot into all three components, replays the tail in
  /// global LSN order, flags restored durable-queue messages redelivered
  /// and resumes the server's pending batches before it re-subscribes.
  /// Finishes by writing a fresh snapshot of the recovered state, which
  /// lists the loaded segments and seals only the replayed tail.
  void recover();

  /// Point-in-time snapshot of broker + database + server: a manifest
  /// plus segments sealing the documents and dedup keys added since the
  /// previous snapshot through this journal (DESIGN.md §11); truncates
  /// the WAL through it. No-op while crashed.
  void snapshot();

  /// The storage env backing the journal.
  durable::StorageEnv& env() { return env_; }

  bool down() const { return down_; }
  std::uint64_t crashes() const { return crashes_; }
  std::uint64_t recoveries() const { return recoveries_; }
  /// Stats from the most recent recover() (empty before the first).
  const durable::RecoveryStats& last_recovery() const { return last_; }
  /// The live journal (nullptr while crashed).
  durable::Journal* journal() { return journal_.get(); }

 private:
  void attach(durable::Journal* journal);

  durable::StorageEnv& env_;
  sim::Simulation& sim_;
  broker::Broker& broker_;
  docstore::Database& db_;
  GoFlowServer& server_;
  durable::JournalConfig config_;
  obs::Registry* metrics_;
  std::unique_ptr<durable::Journal> journal_;
  bool down_ = false;
  std::uint64_t crashes_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t snapshots_ = 0;
  durable::RecoveryStats last_;
};

}  // namespace mps::core
