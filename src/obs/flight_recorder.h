// Always-on flight recorder: the middleware's black box.
//
// A chaos invariant failure today is a boolean — the books did not close
// for seed N — with no record of *what the middleware was doing* in the
// moments around the fault. The flight recorder fixes that: every
// subsystem on the pipeline drops compact structured events (broker
// publish/reject, WAL append/fsync/truncate, dedup eviction, fault
// injection decisions, client crash/restart, server kill/recover/
// snapshot, exec chunk claims) into a lock-free per-thread ring buffer.
// The rings are bounded and always on; when a chaos seed trips an
// invariant or the server lifecycle crashes, the last-N events per
// thread are dumped as globally ordered JSONL next to the per-seed chaos
// reports — turning every red seed into a replayable forensic timeline.
//
// Concurrency: the recorder is process-global (call sites live in
// subsystems with no shared wiring), so it must be safe from pool and
// sweep workers. Each thread owns a private ring; a write is one relaxed
// fetch_add on the global sequence plus a handful of release stores
// (a per-slot seqlock with no fences, which TSan can model). A
// dump — which only happens at forensic moments — re-reads each slot's
// sequence and discards slots that were concurrently overwritten, so
// readers never block writers and TSan sees no race.
//
// Cost when enabled: ~a dozen ns per event (sequence fetch_add + slot
// stores). Cost when disabled: one relaxed atomic load. The recorder-on
// vs recorder-off delta on the broker ingest path is tracked by
// bench_micro_obs and gated at <= 5%.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mps::obs {

/// Event kinds the middleware records. Compact (one byte) — the dump
/// renders names via fr_event_name().
enum class FrEvent : std::uint8_t {
  kBrokerPublish = 0,   ///< a = broker sequence, b = deliveries
  kBrokerReject,        ///< injected publish rejection; a = 0/1 confirm-lost
  kWalAppend,           ///< a = lsn, b = payload bytes
  kWalFsync,            ///< a = last lsn made durable, b = appends in batch
  kWalTruncate,         ///< a = truncate-through lsn, b = segments dropped
  kDedupEvict,          ///< a = total evictions so far
  kFaultInject,         ///< a = fault site index, b = nth injection there
  kClientCrash,         ///< a = device-id hash
  kClientRestart,       ///< a = device-id hash
  kServerKill,          ///< a = crash count
  kServerRecover,       ///< a = recovery count, b = records replayed
  kServerSnapshot,      ///< a = snapshot count
  kExecChunkClaim,      ///< a = chunk index, b = chunks in region
  kInvariantViolation,  ///< a = lost, b = dup + order violations
  kNetConnect,          ///< a = connection id, b = total accepted
  kNetDisconnect,       ///< a = connection id, b = close reason
  kNetFrameReject,      ///< a = connection id, b = total rejects
};

inline constexpr std::size_t kFrEventCount = 17;

const char* fr_event_name(FrEvent e);

/// One decoded event, as a dump or a test sees it.
struct FrRecord {
  std::uint64_t seq = 0;    ///< global order (1-based, gap-free at source)
  std::uint32_t thread = 0; ///< recorder-assigned thread index
  FrEvent type = FrEvent::kBrokerPublish;
  std::int64_t t_ms = -1;   ///< sim-clock time when the site had one, else -1
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::string scope;        ///< the thread's scope label at dump time
};

/// Stable hash for string ids (device names) carried in event args.
std::uint64_t fr_hash(std::string_view s);

/// The process-wide recorder. All methods are safe from any thread
/// except where noted.
class FlightRecorder {
 public:
  /// Events retained per thread; older ones are overwritten.
  static constexpr std::size_t kRingCapacity = 4096;

  static FlightRecorder& instance();

  /// The hot-path entry point every instrumented site calls.
  static void record(FrEvent type, std::uint64_t a = 0, std::uint64_t b = 0,
                     std::int64_t t_ms = -1) {
    FlightRecorder& r = instance();
    if (!r.enabled_.load(std::memory_order_relaxed)) return;
    r.record_impl(type, a, b, t_ms);
  }

  /// Turns recording on/off (on by default). Disabling leaves existing
  /// events in place — dumps still see the past.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Labels the *calling thread's* ring (e.g. "server-kill/seed=7"), so a
  /// dump from a concurrent sweep can attribute events to their run.
  void set_thread_scope(std::string scope);

  /// Decodes the calling thread's ring — the per-run view inside sweep
  /// workers, where one whole simulation runs on one thread.
  std::vector<FrRecord> collect_current_thread() const;

  /// Decodes every thread's ring, merged and sorted by global sequence.
  /// Slots being overwritten mid-read are skipped, never torn.
  std::vector<FrRecord> collect() const;

  /// Writes `records` (typically from collect*) as JSONL.
  static void write_jsonl(std::ostream& out,
                          const std::vector<FrRecord>& records);

  /// collect() + write_jsonl to `path`; false if the file cannot open.
  bool dump_to_file(const std::string& path) const;

  /// Like dump_to_file but restricted to the calling thread's ring.
  bool dump_current_thread_to_file(const std::string& path) const;

  /// Events ever recorded (monotone; survives clear()'s ring reset only
  /// in the sense that sequence numbers keep increasing).
  std::uint64_t total_recorded() const {
    return next_seq_.load(std::memory_order_relaxed) - 1;
  }

  /// Empties every ring and clears scopes (test isolation). Not safe
  /// concurrently with writers.
  void clear();

 private:
  // One event slot, written by its ring's owner thread, read by dumpers.
  // The seqlock protocol: the writer zeroes `seq`, stores the payload
  // fields (release), then publishes with a release store of the global
  // sequence. A reader acquires `seq`, reads the payload (acquire),
  // re-reads `seq` and discards the slot on mismatch.
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> type_and_time{0};  ///< type | (t_ms+1) << 8
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
  };

  struct ThreadRing {
    std::uint32_t thread_index = 0;
    std::atomic<std::uint64_t> next_slot{0};  ///< monotone; slot = n % cap
    std::string scope;                        ///< guarded by recorder mutex
    Slot slots[kRingCapacity];
  };

  FlightRecorder() = default;

  void record_impl(FrEvent type, std::uint64_t a, std::uint64_t b,
                   std::int64_t t_ms);
  ThreadRing& ring_for_this_thread();
  void collect_ring(const ThreadRing& ring, std::vector<FrRecord>& out) const;

  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> next_seq_{1};

  // Ring registry: appended under mu_, never removed (a ring outlives
  // its thread so late dumps keep the timeline).
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadRing>> rings_;
};

}  // namespace mps::obs
