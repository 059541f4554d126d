#include "core/recovery.h"

#include <cstdlib>

#include "common/codec.h"
#include "common/strings.h"
#include "obs/flight_recorder.h"

namespace mps::core {

namespace {

/// With MPS_FLIGHT_DIR set, every server kill leaves a forensic JSONL
/// dump (flight_crash_<n>.jsonl) beside the chaos reports — the black
/// box is recovered even when the run never reaches an invariant check.
void dump_flight_on_crash(std::uint64_t crash_count) {
  const char* dir = std::getenv("MPS_FLIGHT_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::string path = std::string(dir) + "/flight_crash_" +
                     std::to_string(crash_count) + ".jsonl";
  obs::FlightRecorder::instance().dump_current_thread_to_file(path);
}

}  // namespace

ServerLifecycle::ServerLifecycle(durable::StorageEnv& env,
                                 sim::Simulation& sim, broker::Broker& broker,
                                 docstore::Database& db, GoFlowServer& server,
                                 durable::JournalConfig config,
                                 obs::Registry* metrics)
    : env_(env),
      sim_(sim),
      broker_(broker),
      db_(db),
      server_(server),
      config_(config),
      metrics_(metrics) {
  journal_ = std::make_unique<durable::Journal>(env_, config_, metrics_);
  attach(journal_.get());
  // Base snapshot: everything the components did before the journal
  // existed (topology, indexes, registrations) becomes recoverable.
  snapshot();
}

ServerLifecycle::~ServerLifecycle() { attach(nullptr); }

void ServerLifecycle::attach(durable::Journal* journal) {
  db_.attach_journal(journal);
  broker_.attach_journal(journal);
  server_.attach_journal(journal);
}

void ServerLifecycle::snapshot() {
  if (down_) return;
  // The {db, brk, srv} state tree, streamed: the docstore and the
  // server seal what they appended since the last snapshot (documents,
  // dedup keys) into segments and list them; the broker's small Value
  // snapshot goes inline.
  journal_->write_snapshot([this](durable::SnapshotWriter& writer) {
    std::string& out = writer.out();
    codec::encode_object_header(3, out);
    codec::encode_key("db", out);
    db_.encode_snapshot(writer);
    codec::encode_key("brk", out);
    codec::encode_value(broker_.durable_snapshot(), out);
    codec::encode_key("srv", out);
    server_.encode_snapshot(writer);
  });
  obs::FlightRecorder::record(obs::FrEvent::kServerSnapshot, ++snapshots_, 0,
                              sim_.now());
}

void ServerLifecycle::crash() {
  if (down_) return;
  ++crashes_;
  obs::FlightRecorder::record(obs::FrEvent::kServerKill, crashes_, 0,
                              sim_.now());
  dump_flight_on_crash(crashes_);
  down_ = true;
  // Power cut first: whatever the WAL group-committed but never synced
  // is gone before any component state is touched.
  env_.crash();
  // The server crashes with its journal still attached — that is how it
  // knows its pending batches are recoverable and must NOT be attributed
  // as lost. Nothing logs during a component crash(), so the stale
  // journal is never written through. The server unsubscribes from the
  // still-alive broker, then the broker and database lose their state.
  server_.crash();
  broker_.crash();
  db_.crash();
  attach(nullptr);
  journal_.reset();  // its in-memory segment view no longer matches disk
}

void ServerLifecycle::recover() {
  if (!down_) return;
  // Re-opening the journal repairs any torn WAL tail in place.
  journal_ = std::make_unique<durable::Journal>(env_, config_, metrics_);
  last_ = journal_->recover(
      [this](durable::LoadedSnapshot& snap) {
        const Value* db_state = snap.state.find("db");
        if (db_state != nullptr) db_.restore_snapshot(*db_state, snap.segments);
        const Value* brk_state = snap.state.find("brk");
        if (brk_state != nullptr) broker_.restore_snapshot(*brk_state);
        const Value* srv_state = snap.state.find("srv");
        if (srv_state != nullptr)
          server_.restore_snapshot(*srv_state, snap.segments);
      },
      [this](const Value& record) {
        const std::string op = record.get_string("op");
        if (starts_with(op, "db.")) {
          db_.apply_journal_record(record);
        } else if (starts_with(op, "brk.")) {
          broker_.apply_journal_record(record);
        } else if (starts_with(op, "srv.")) {
          server_.apply_journal_record(record);
        }
        // Records with an unknown prefix are skipped (forward compat).
      });
  down_ = false;
  ++recoveries_;
  obs::FlightRecorder::record(obs::FrEvent::kServerRecover, recoveries_,
                              last_.replayed, sim_.now());
  // Journal back online before the components resume: everything they do
  // from here on is logged again.
  attach(journal_.get());
  broker_.finish_recovery();
  server_.finish_recovery();
  // The recovered state becomes the new base snapshot, so a second crash
  // replays from here instead of the whole history.
  snapshot();
}

}  // namespace mps::core
