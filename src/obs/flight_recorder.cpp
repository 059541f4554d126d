#include "obs/flight_recorder.h"

#include <algorithm>
#include <fstream>
#include <ostream>

namespace mps::obs {

const char* fr_event_name(FrEvent e) {
  switch (e) {
    case FrEvent::kBrokerPublish: return "broker_publish";
    case FrEvent::kBrokerReject: return "broker_reject";
    case FrEvent::kWalAppend: return "wal_append";
    case FrEvent::kWalFsync: return "wal_fsync";
    case FrEvent::kWalTruncate: return "wal_truncate";
    case FrEvent::kDedupEvict: return "dedup_evict";
    case FrEvent::kFaultInject: return "fault_inject";
    case FrEvent::kClientCrash: return "client_crash";
    case FrEvent::kClientRestart: return "client_restart";
    case FrEvent::kServerKill: return "server_kill";
    case FrEvent::kServerRecover: return "server_recover";
    case FrEvent::kServerSnapshot: return "server_snapshot";
    case FrEvent::kExecChunkClaim: return "exec_chunk_claim";
    case FrEvent::kInvariantViolation: return "invariant_violation";
    case FrEvent::kNetConnect: return "net_connect";
    case FrEvent::kNetDisconnect: return "net_disconnect";
    case FrEvent::kNetFrameReject: return "net_frame_reject";
  }
  return "?";
}

std::uint64_t fr_hash(std::string_view s) {
  // FNV-1a, 64-bit: stable across runs so a device's events correlate
  // between dumps of different seeds.
  std::uint64_t h = 14695981039346656037ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder recorder;
  return recorder;
}

FlightRecorder::ThreadRing& FlightRecorder::ring_for_this_thread() {
  thread_local ThreadRing* cached = nullptr;
  thread_local const FlightRecorder* cached_owner = nullptr;
  if (cached != nullptr && cached_owner == this) return *cached;
  std::lock_guard<std::mutex> lock(mu_);
  rings_.push_back(std::make_unique<ThreadRing>());
  rings_.back()->thread_index = static_cast<std::uint32_t>(rings_.size() - 1);
  cached = rings_.back().get();
  cached_owner = this;
  return *cached;
}

void FlightRecorder::record_impl(FrEvent type, std::uint64_t a,
                                 std::uint64_t b, std::int64_t t_ms) {
  ThreadRing& ring = ring_for_this_thread();
  std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t n = ring.next_slot.load(std::memory_order_relaxed);
  Slot& slot = ring.slots[n % kRingCapacity];
  // Seqlock write: invalidate, fill, publish. Each payload store is a
  // release, so a reader whose acquire load observes any of the new
  // payload values also observes seq == 0 (or the new seq) on its
  // validating re-read — a wrapped slot is discarded whole, never
  // decoded as a mix.
  slot.seq.store(0, std::memory_order_relaxed);
  // t_ms >= -1 always; +1 keeps the packed field non-negative.
  slot.type_and_time.store(
      static_cast<std::uint64_t>(type) |
          (static_cast<std::uint64_t>(t_ms + 1) << 8),
      std::memory_order_release);
  slot.a.store(a, std::memory_order_release);
  slot.b.store(b, std::memory_order_release);
  slot.seq.store(seq, std::memory_order_release);
  ring.next_slot.store(n + 1, std::memory_order_release);
}

void FlightRecorder::set_thread_scope(std::string scope) {
  ThreadRing& ring = ring_for_this_thread();
  std::lock_guard<std::mutex> lock(mu_);
  ring.scope = std::move(scope);
}

void FlightRecorder::collect_ring(const ThreadRing& ring,
                                  std::vector<FrRecord>& out) const {
  std::uint64_t produced = ring.next_slot.load(std::memory_order_acquire);
  std::uint64_t live = std::min<std::uint64_t>(produced, kRingCapacity);
  for (std::uint64_t i = produced - live; i < produced; ++i) {
    const Slot& slot = ring.slots[i % kRingCapacity];
    std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
    if (s1 == 0) continue;  // never written or mid-write
    FrRecord r;
    // Acquire loads: the validating re-read below cannot move above them.
    std::uint64_t tt = slot.type_and_time.load(std::memory_order_acquire);
    r.a = slot.a.load(std::memory_order_acquire);
    r.b = slot.b.load(std::memory_order_acquire);
    std::uint64_t s2 = slot.seq.load(std::memory_order_relaxed);
    if (s1 != s2) continue;  // overwritten while reading: discard, not tear
    r.seq = s1;
    r.thread = ring.thread_index;
    r.type = static_cast<FrEvent>(tt & 0xff);
    r.t_ms = static_cast<std::int64_t>(tt >> 8) - 1;
    r.scope = ring.scope;
    out.push_back(std::move(r));
  }
}

std::vector<FrRecord> FlightRecorder::collect() const {
  std::vector<FrRecord> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& ring : rings_) collect_ring(*ring, out);
  }
  std::sort(out.begin(), out.end(),
            [](const FrRecord& a, const FrRecord& b) { return a.seq < b.seq; });
  return out;
}

std::vector<FrRecord> FlightRecorder::collect_current_thread() const {
  std::vector<FrRecord> out;
  // const_cast: ring_for_this_thread only mutates the registry when the
  // calling thread has no ring yet, and a collector is a valid first use.
  ThreadRing& ring =
      const_cast<FlightRecorder*>(this)->ring_for_this_thread();
  {
    std::lock_guard<std::mutex> lock(mu_);
    collect_ring(ring, out);
  }
  std::sort(out.begin(), out.end(),
            [](const FrRecord& a, const FrRecord& b) { return a.seq < b.seq; });
  return out;
}

void FlightRecorder::write_jsonl(std::ostream& out,
                                 const std::vector<FrRecord>& records) {
  for (const FrRecord& r : records) {
    out << "{\"seq\":" << r.seq << ",\"thread\":" << r.thread
        << ",\"type\":\"" << fr_event_name(r.type) << "\",\"t_ms\":" << r.t_ms
        << ",\"a\":" << r.a << ",\"b\":" << r.b;
    if (!r.scope.empty()) {
      out << ",\"scope\":\"";
      for (char c : r.scope)
        if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20)
          out << c;
      out << "\"";
    }
    out << "}\n";
  }
}

bool FlightRecorder::dump_to_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  write_jsonl(out, collect());
  return true;
}

bool FlightRecorder::dump_current_thread_to_file(
    const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  write_jsonl(out, collect_current_thread());
  return true;
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& ring : rings_) {
    for (Slot& slot : ring->slots) {
      slot.seq.store(0, std::memory_order_relaxed);
      slot.type_and_time.store(0, std::memory_order_relaxed);
      slot.a.store(0, std::memory_order_relaxed);
      slot.b.store(0, std::memory_order_relaxed);
    }
    ring->next_slot.store(0, std::memory_order_relaxed);
    ring->scope.clear();
  }
}

}  // namespace mps::obs
