#include "durable/wal.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/codec.h"
#include "common/crc32.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace mps::durable {

// ------------------------------------------------------------ framing

namespace {

constexpr std::size_t kHeaderBytes = 4 + 4 + 8;  // len, crc, lsn

}  // namespace

void encode_record(std::uint64_t lsn, std::string_view payload,
                   std::string& out) {
  encode_record(
      lsn, [payload](std::string& o) { o.append(payload); }, out);
}

void encode_record(std::uint64_t lsn,
                   const std::function<void(std::string&)>& write_payload,
                   std::string& out) {
  codec::Writer w(out);
  std::size_t start = out.size();
  w.u32(0);  // len and crc patched once the payload exists
  w.u32(0);
  w.u64(lsn);
  write_payload(out);
  std::string_view body(out.data() + start + 8, out.size() - start - 8);
  w.u32_at(start, static_cast<std::uint32_t>(body.size() - 8));
  w.u32_at(start + 4, crc32(body));
}

std::optional<DecodedRecord> decode_record(std::string_view buffer,
                                           std::size_t offset) {
  if (offset > buffer.size()) return std::nullopt;
  codec::Reader r(buffer.substr(offset));
  std::uint32_t len = 0;
  std::uint32_t stored_crc = 0;
  if (!r.u32(len) || !r.u32(stored_crc)) return std::nullopt;
  if (r.remaining() < 8 + static_cast<std::size_t>(len)) return std::nullopt;
  std::string_view body = buffer.substr(offset + 8, 8 + len);
  if (crc32(body) != stored_crc) return std::nullopt;
  DecodedRecord rec;
  r.u64(rec.lsn);
  rec.payload = buffer.substr(offset + kHeaderBytes, len);
  rec.end_offset = offset + kHeaderBytes + len;
  return rec;
}

// ---------------------------------------------------------------- Wal

Wal::Wal(StorageEnv& env, WalConfig config, obs::Registry* metrics)
    : env_(env), config_(std::move(config)) {
  if (metrics != nullptr) {
    obs::Registry& r = *metrics;
    sources_.counter(r, "durable.wal_appends", stats_.appends);
    sources_.counter(r, "durable.wal_bytes", stats_.bytes_appended);
    sources_.counter(r, "durable.fsync_batches", stats_.syncs);
    sources_.counter(r, "durable.replayed_records", stats_.replayed_records);
    sources_.counter(r, "durable.discarded_tail_records",
                     stats_.discarded_tail_records);
    sources_.gauge(r, "durable.wal_segments",
                   [this] { return static_cast<double>(segments_.size()); });
  }
  open_existing();
}

std::string Wal::segment_name(std::uint64_t first_lsn) const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llu",
                static_cast<unsigned long long>(first_lsn));
  return config_.prefix + buf;
}

void Wal::open_existing() {
  // Collect segments by prefix; lexicographic order == LSN order thanks
  // to the zero-padded names.
  for (const std::string& name : env_.list()) {
    if (name.size() != config_.prefix.size() + 16 ||
        name.compare(0, config_.prefix.size(), config_.prefix) != 0)
      continue;
    Segment seg;
    seg.name = name;
    seg.first_lsn =
        std::strtoull(name.c_str() + config_.prefix.size(), nullptr, 10);
    segments_.push_back(std::move(seg));
  }

  // Scan every segment, validating the record chain. The log's valid
  // prefix ends at the first torn or corrupt record, or at a segment
  // that does not start at the next expected LSN (a hole: only the first
  // surviving segment may start anywhere, because truncation removes a
  // prefix). Everything after (rest of that segment plus any later
  // segments) is discarded so the next append continues from a
  // consistent state.
  bool chain_broken = false;
  std::size_t keep_segments = 0;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    Segment& seg = segments_[i];
    if (!chain_broken && keep_segments > 0 && seg.first_lsn != next_lsn_) {
      ++stats_.discarded_tail_records;
      chain_broken = true;
    }
    if (chain_broken) {
      stats_.discarded_tail_bytes += env_.read(seg.name).size();
      env_.remove(seg.name);
      continue;
    }
    std::string data = env_.read(seg.name);
    std::size_t offset = 0;
    std::uint64_t expect = seg.first_lsn;
    while (offset < data.size()) {
      std::optional<DecodedRecord> rec = decode_record(data, offset);
      if (!rec.has_value() || rec->lsn != expect) break;
      offset = rec->end_offset;
      ++expect;
    }
    if (offset < data.size()) {
      // Torn/corrupt tail: atomically truncate to the valid prefix.
      ++stats_.discarded_tail_records;
      stats_.discarded_tail_bytes += data.size() - offset;
      chain_broken = true;
      if (offset == 0) {
        env_.remove(seg.name);
        continue;  // keep_segments not bumped: segment held nothing valid
      }
      env_.write_atomic(seg.name, std::string_view(data).substr(0, offset));
    }
    seg.size = offset;
    next_lsn_ = expect;
    if (keep_segments != i)  // self-move would clear the segment name
      segments_[keep_segments] = std::move(seg);
    ++keep_segments;
  }
  segments_.resize(keep_segments);
}

void Wal::start_segment(std::uint64_t first_lsn) {
  Segment seg;
  seg.name = segment_name(first_lsn);
  seg.first_lsn = first_lsn;
  seg.size = 0;
  // Sync the outgoing segment so rotation never leaves a hole behind
  // the new segment's records.
  if (!segments_.empty() && unsynced_appends_ > 0) sync();
  segments_.push_back(std::move(seg));
  ++stats_.segments_created;
}

std::uint64_t Wal::append(std::string_view payload) {
  std::uint64_t lsn = next_lsn_++;
  if (segments_.empty() || segments_.back().size >= config_.segment_bytes)
    start_segment(lsn);

  std::string framed;
  encode_record(lsn, payload, framed);
  Segment& seg = segments_.back();
  env_.append(seg.name, framed);
  seg.size += framed.size();

  ++stats_.appends;
  stats_.bytes_appended += framed.size();
  obs::FlightRecorder::record(obs::FrEvent::kWalAppend, lsn, payload.size());
  if (++unsynced_appends_ >= config_.sync_every) sync();
  return lsn;
}

void Wal::sync() {
  if (unsynced_appends_ == 0) return;
  env_.sync(segments_.back().name);
  obs::FlightRecorder::record(obs::FrEvent::kWalFsync, next_lsn_ - 1,
                              unsynced_appends_);
  unsynced_appends_ = 0;
  ++stats_.syncs;
}

std::uint64_t Wal::replay(
    std::uint64_t after_lsn,
    const std::function<void(std::uint64_t, std::string_view)>& fn) {
  // Every frame in a segment's first `size` bytes passed its CRC in
  // open_existing() or was framed by this Wal, so replay steps over the
  // frames by their headers: each byte is checksummed once per open.
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const Segment& seg = segments_[i];
    // A segment whose successor starts at or below after_lsn + 1 holds
    // only records replay does not deliver: it is not read.
    if (i + 1 < segments_.size() && segments_[i + 1].first_lsn <= after_lsn + 1)
      continue;
    const std::string data = env_.read(seg.name);
    const std::string_view valid =
        std::string_view(data).substr(0, std::min(data.size(), seg.size));
    std::size_t offset = 0;
    std::uint64_t expect = seg.first_lsn;
    while (offset < valid.size()) {
      codec::Reader r(valid.substr(offset));
      std::uint32_t len = 0;
      std::uint32_t crc = 0;
      std::uint64_t lsn = 0;
      if (!r.u32(len) || !r.u32(crc) || !r.u64(lsn) || lsn != expect ||
          r.remaining() < len)
        return delivered;
      if (lsn > after_lsn) {
        fn(lsn, valid.substr(offset + kHeaderBytes, len));
        ++delivered;
        ++stats_.replayed_records;
      }
      offset += kHeaderBytes + len;
      ++expect;
    }
  }
  return delivered;
}

void Wal::truncate_through(std::uint64_t lsn) {
  // A segment is removable when the next segment starts at or below
  // lsn+1 (so every record in it is <= lsn). The active (last) segment
  // always stays.
  std::size_t removed = 0;
  while (segments_.size() - removed > 1 &&
         segments_[removed + 1].first_lsn <= lsn + 1) {
    env_.remove(segments_[removed].name);
    ++removed;
    ++stats_.truncated_segments;
  }
  if (removed > 0) {
    obs::FlightRecorder::record(obs::FrEvent::kWalTruncate, lsn, removed);
    segments_.erase(segments_.begin(),
                    segments_.begin() + static_cast<std::ptrdiff_t>(removed));
  }
}

}  // namespace mps::durable
