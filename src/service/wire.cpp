#include "service/wire.h"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "persist/binary_io.h"
#include "persist/checkpoint.h"

namespace vire::service {

namespace {

/// Bytes after the length prefix that are not payload: type byte + CRC.
constexpr std::uint32_t kFrameOverhead = 5;

bool known_type(std::uint8_t t) noexcept {
  switch (static_cast<MsgType>(t)) {
    case MsgType::kIngest:
    case MsgType::kPoll:
    case MsgType::kLatestFix:
    case MsgType::kExplain:
    case MsgType::kSnapshot:
    case MsgType::kHello:
    case MsgType::kHeartbeat:
    case MsgType::kIngestSeq:
    case MsgType::kTrack:
    case MsgType::kSetReference:
    case MsgType::kRecover:
    case MsgType::kTraceDump:
    case MsgType::kProvenanceDump:
    case MsgType::kFixBatch:
    case MsgType::kFixReply:
    case MsgType::kText:
    case MsgType::kError:
    case MsgType::kHelloAck:
    case MsgType::kHeartbeatAck:
    case MsgType::kOk:
    case MsgType::kTraceDumpReply:
    case MsgType::kExportTag:
    case MsgType::kImportTag:
    case MsgType::kSeedExport:
    case MsgType::kSeedImport:
    case MsgType::kAddShard:
    case MsgType::kRemoveShard:
    case MsgType::kTagState:
    case MsgType::kSeedState:
      return true;
  }
  return false;
}

std::uint32_t read_u32le(const char* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

}  // namespace

std::string_view to_string(RejectReason reason) noexcept {
  switch (reason) {
    case RejectReason::kOversized: return "oversized";
    case RejectReason::kBadCrc: return "bad_crc";
    case RejectReason::kBadType: return "bad_type";
    case RejectReason::kTruncated: return "truncated";
    case RejectReason::kMalformed: return "malformed";
    case RejectReason::kVersionMismatch: return "version_mismatch";
  }
  return "unknown";
}

std::string encode_frame(MsgType type, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    throw std::length_error("encode_frame: payload of " +
                            std::to_string(payload.size()) +
                            " bytes exceeds the " +
                            std::to_string(kMaxFramePayload) +
                            "-byte frame cap");
  }
  persist::ByteWriter body;
  body.u8(static_cast<std::uint8_t>(type));
  body.raw(payload);
  const std::uint32_t crc = persist::crc32(body.bytes());
  persist::ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(payload.size()) + kFrameOverhead);
  frame.raw(body.bytes());
  frame.u32(crc);
  return frame.take();
}

std::uint64_t FrameDecoder::rejected_total() const noexcept {
  std::uint64_t total = 0;
  for (const auto v : rejected_) total += v;
  return total;
}

void FrameDecoder::attach_metrics(obs::MetricsRegistry& registry) {
  for (std::size_t i = 0; i < kRejectReasonCount; ++i) {
    counters_[i] = &registry.counter(
        "vire_service_rejected_frames_total",
        "reason=\"" + std::string(to_string(static_cast<RejectReason>(i))) + "\"",
        "Wire frames rejected by the service, by reason");
  }
}

void FrameDecoder::count(RejectReason reason) {
  const auto i = static_cast<std::size_t>(reason);
  ++rejected_[i];
  if (counters_[i] != nullptr) counters_[i]->inc();
}

std::optional<Frame> FrameDecoder::next() {
  while (!failed_) {
    // Drop the consumed prefix once it dominates the buffer, so a long-lived
    // connection does not grow the buffer without bound.
    if (pos_ > 4096 && pos_ * 2 > buffer_.size()) {
      buffer_.erase(0, pos_);
      pos_ = 0;
    }
    const std::size_t available = buffer_.size() - pos_;
    if (available < 4) return std::nullopt;
    const std::uint32_t frame_len = read_u32le(buffer_.data() + pos_);
    if (frame_len < kFrameOverhead ||
        frame_len > kMaxFramePayload + kFrameOverhead) {
      // The length prefix itself is garbage: there is no trustworthy frame
      // boundary to resync at, so the stream is dead.
      count(RejectReason::kOversized);
      failed_ = true;
      return std::nullopt;
    }
    if (available < 4 + static_cast<std::size_t>(frame_len)) return std::nullopt;
    const char* body = buffer_.data() + pos_ + 4;
    const std::size_t payload_len = frame_len - kFrameOverhead;
    const std::uint32_t stored_crc = read_u32le(body + 1 + payload_len);
    pos_ += 4 + frame_len;  // consume whole frame whatever happens next
    if (persist::crc32(std::string_view(body, 1 + payload_len)) != stored_crc) {
      count(RejectReason::kBadCrc);
      continue;
    }
    const auto type_byte = static_cast<std::uint8_t>(body[0]);
    if (!known_type(type_byte)) {
      count(RejectReason::kBadType);
      continue;
    }
    Frame frame;
    frame.type = static_cast<MsgType>(type_byte);
    frame.payload.assign(body + 1, payload_len);
    return frame;
  }
  return std::nullopt;
}

void FrameDecoder::finish() {
  if (finished_) return;
  finished_ = true;
  if (!failed_ && pos_ < buffer_.size()) count(RejectReason::kTruncated);
}

std::string encode_ingest(const std::vector<sim::RssiReading>& readings) {
  persist::ByteWriter w;
  persist::write_readings(w, readings);
  return w.take();
}

std::optional<std::vector<sim::RssiReading>> decode_ingest(std::string_view payload) {
  persist::ByteReader r(payload);
  std::vector<sim::RssiReading> readings;
  if (!persist::read_readings(r, readings) || !r.exhausted()) return std::nullopt;
  return readings;
}

std::string encode_time(sim::SimTime now) {
  persist::ByteWriter w;
  w.f64(now);
  return w.take();
}

std::optional<sim::SimTime> decode_time(std::string_view payload) {
  persist::ByteReader r(payload);
  const auto now = r.f64();
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return *now;
}

std::string encode_tag(sim::TagId tag) {
  persist::ByteWriter w;
  w.u32(tag);
  return w.take();
}

std::optional<sim::TagId> decode_tag(std::string_view payload) {
  persist::ByteReader r(payload);
  const auto tag = r.u32();
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return *tag;
}

std::string encode_snapshot_request(std::uint8_t format) {
  persist::ByteWriter w;
  w.u8(format);
  return w.take();
}

std::optional<std::uint8_t> decode_snapshot_request(std::string_view payload) {
  persist::ByteReader r(payload);
  const auto format = r.u8();
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  if (*format != kSnapshotPrometheus && *format != kSnapshotJson) return std::nullopt;
  return *format;
}

std::string encode_fixes(const std::vector<engine::Fix>& fixes) {
  persist::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(fixes.size()));
  for (const auto& fix : fixes) persist::write_fix(w, fix);
  return w.take();
}

std::optional<std::vector<engine::Fix>> decode_fixes(std::string_view payload) {
  persist::ByteReader r(payload);
  const auto count = r.u32();
  if (!r.ok()) return std::nullopt;
  // Bound the claimed count by what the payload could possibly hold BEFORE
  // reserving: each Fix decodes to ~100+ bytes in memory, so trusting a
  // hostile u32 here would let a 1 MiB payload force a ~100 MB reservation.
  if (static_cast<std::uint64_t>(*count) * persist::kMinFixEncoding >
      r.remaining()) {
    return std::nullopt;
  }
  std::vector<engine::Fix> fixes;
  fixes.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    if (!persist::read_fix(r, fixes.emplace_back())) return std::nullopt;
  }
  if (!r.exhausted()) return std::nullopt;
  return fixes;
}

std::string encode_fix_reply(const std::optional<engine::Fix>& fix) {
  persist::ByteWriter w;
  w.u8(fix.has_value() ? 1 : 0);
  if (fix.has_value()) persist::write_fix(w, *fix);
  return w.take();
}

std::optional<std::optional<engine::Fix>> decode_fix_reply(std::string_view payload) {
  persist::ByteReader r(payload);
  const auto found = r.u8();
  if (!r.ok() || *found > 1) return std::nullopt;
  if (*found == 0) {
    if (!r.exhausted()) return std::nullopt;
    return std::optional<engine::Fix>(std::nullopt);
  }
  engine::Fix fix;
  if (!persist::read_fix(r, fix) || !r.exhausted()) return std::nullopt;
  return std::optional<engine::Fix>(std::move(fix));
}

std::string encode_hello(const Hello& hello) {
  persist::ByteWriter w;
  w.u32(hello.version);
  w.str(hello.peer_name);
  return w.take();
}

std::optional<Hello> decode_hello(std::string_view payload) {
  persist::ByteReader r(payload);
  const auto version = r.u32();
  auto name = r.str();
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  Hello hello;
  hello.version = *version;
  hello.peer_name = std::move(*name);
  return hello;
}

std::string encode_heartbeat_ack(const HeartbeatAck& ack) {
  persist::ByteWriter w;
  w.u64(ack.seq);
  w.u64(ack.wal_next_sequence);
  w.u64(ack.last_ack_sequence);
  w.f64(ack.mono_now_us);
  w.u64(ack.anomaly_dumps);
  return w.take();
}

std::optional<HeartbeatAck> decode_heartbeat_ack(std::string_view payload) {
  persist::ByteReader r(payload);
  const auto seq = r.u64();
  const auto wal = r.u64();
  const auto ack_seq = r.u64();
  const auto mono = r.f64();
  const auto dumps = r.u64();
  if (!r.exhausted()) return std::nullopt;
  return HeartbeatAck{*seq, *wal, *ack_seq, *mono, *dumps};
}

std::string encode_ingest_seq(std::uint64_t sequence,
                              const obs::TraceContext& ctx,
                              std::span<const sim::RssiReading> readings) {
  persist::ByteWriter w;
  w.u64(sequence);
  w.u64(ctx.trace_id);
  w.u64(ctx.parent_span_id);
  persist::write_readings(w, readings);
  return w.take();
}

std::string encode_ingest_seq(std::uint64_t sequence,
                              const std::vector<sim::RssiReading>& readings) {
  return encode_ingest_seq(sequence, obs::TraceContext{}, readings);
}

std::optional<SequencedBatch> decode_ingest_seq(std::string_view payload) {
  persist::ByteReader r(payload);
  const auto sequence = r.u64();
  const auto trace_id = r.u64();
  const auto parent_span = r.u64();
  SequencedBatch batch;
  if (!persist::read_readings(r, batch.readings) || !r.exhausted()) {
    return std::nullopt;
  }
  batch.sequence = *sequence;
  batch.ctx = {*trace_id, *parent_span};
  return batch;
}

std::string encode_poll(const PollRequest& request) {
  persist::ByteWriter w;
  w.f64(request.now);
  w.u64(request.ctx.trace_id);
  w.u64(request.ctx.parent_span_id);
  return w.take();
}

std::optional<PollRequest> decode_poll(std::string_view payload) {
  persist::ByteReader r(payload);
  const auto now = r.f64();
  const auto trace_id = r.u64();
  const auto span = r.u64();
  if (!r.exhausted()) return std::nullopt;
  return PollRequest{*now, {*trace_id, *span}};
}

std::string encode_trace_dump(const obs::TraceDump& dump) {
  persist::ByteWriter w;
  w.f64(dump.now_us);
  w.u32(static_cast<std::uint32_t>(dump.thread_names.size()));
  for (const auto& [tid, name] : dump.thread_names) {
    w.u32(tid);
    w.str(name);
  }
  w.u32(static_cast<std::uint32_t>(dump.events.size()));
  for (const obs::TraceEvent& e : dump.events) {
    w.str(e.name);
    w.u8(static_cast<std::uint8_t>(e.ph));
    w.u8(static_cast<std::uint8_t>(e.scope));
    w.f64(e.ts_us);
    w.f64(e.dur_us);
    w.u32(e.tid);
    w.str(e.args);
  }
  return w.take();
}

std::optional<obs::TraceDump> decode_trace_dump(std::string_view payload) {
  persist::ByteReader r(payload);
  obs::TraceDump dump;
  const auto now_us = r.f64();
  const auto name_count = r.u32();
  if (!r.ok()) return std::nullopt;
  // Each thread-name entry is at least u32 tid + u32 string length; bound the
  // claimed count before reserving so a hostile u32 cannot force a huge
  // allocation out of a small payload.
  if (static_cast<std::uint64_t>(*name_count) * 8 > r.remaining()) {
    return std::nullopt;
  }
  dump.now_us = *now_us;
  dump.thread_names.reserve(*name_count);
  for (std::uint32_t i = 0; i < *name_count; ++i) {
    const auto tid = r.u32();
    auto name = r.str();
    if (!r.ok()) return std::nullopt;
    dump.thread_names.emplace_back(*tid, std::move(*name));
  }
  const auto event_count = r.u32();
  if (!r.ok()) return std::nullopt;
  // Minimum encoded event: two length-prefixed empty strings + ph + scope +
  // two f64 + u32 tid = 30 bytes.
  if (static_cast<std::uint64_t>(*event_count) * 30 > r.remaining()) {
    return std::nullopt;
  }
  dump.events.reserve(*event_count);
  for (std::uint32_t i = 0; i < *event_count; ++i) {
    obs::TraceEvent e;
    auto name = r.str();
    const auto ph = r.u8();
    const auto scope = r.u8();
    const auto ts = r.f64();
    const auto dur = r.f64();
    const auto tid = r.u32();
    auto args = r.str();
    if (!r.ok()) return std::nullopt;
    e.name = std::move(*name);
    e.ph = static_cast<char>(*ph);
    e.scope = static_cast<char>(*scope);
    e.ts_us = *ts;
    e.dur_us = *dur;
    e.tid = *tid;
    e.args = std::move(*args);
    dump.events.push_back(std::move(e));
  }
  if (!r.exhausted()) return std::nullopt;
  return dump;
}

void write_track(persist::ByteWriter& w, const TrackRequest& request) {
  w.u32(request.tag);
  w.str(request.name);
  w.u8(request.zone.has_value() ? 1 : 0);
  if (request.zone.has_value()) w.u32(*request.zone);
}

bool read_track(persist::ByteReader& r, TrackRequest& out) {
  const auto tag = r.u32();
  auto name = r.str();
  const auto has_zone = r.u8();
  if (!r.ok() || *has_zone > 1) return false;
  out.tag = *tag;
  out.name = std::move(*name);
  out.zone.reset();
  if (*has_zone != 0) {
    const auto zone = r.u32();
    if (!r.ok()) return false;
    out.zone = *zone;
  }
  return true;
}

std::string encode_track(const TrackRequest& request) {
  persist::ByteWriter w;
  write_track(w, request);
  return w.take();
}

std::optional<TrackRequest> decode_track(std::string_view payload) {
  persist::ByteReader r(payload);
  TrackRequest request;
  if (!read_track(r, request) || !r.exhausted()) return std::nullopt;
  return request;
}

void write_tag_ids(persist::ByteWriter& w, const std::vector<sim::TagId>& ids) {
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (const auto id : ids) w.u32(id);
}

bool read_tag_ids(persist::ByteReader& r, std::vector<sim::TagId>& out) {
  const auto count = r.u32();
  if (!r.ok() || std::size_t{*count} * 4 > r.remaining()) return false;
  out.clear();
  out.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) out.push_back(*r.u32());
  return true;
}

std::string encode_reference_ids(const std::vector<sim::TagId>& ids) {
  persist::ByteWriter w;
  write_tag_ids(w, ids);
  return w.take();
}

std::optional<std::vector<sim::TagId>> decode_reference_ids(
    std::string_view payload) {
  persist::ByteReader r(payload);
  std::vector<sim::TagId> ids;
  if (!read_tag_ids(r, ids) || !r.exhausted()) return std::nullopt;
  return ids;
}

std::string encode_u64(std::uint64_t value) {
  persist::ByteWriter w;
  w.u64(value);
  return w.take();
}

std::optional<std::uint64_t> decode_u64(std::string_view payload) {
  persist::ByteReader r(payload);
  const auto value = r.u64();
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return *value;
}

std::string encode_u32(std::uint32_t value) {
  persist::ByteWriter w;
  w.u32(value);
  return w.take();
}

std::optional<std::uint32_t> decode_u32(std::string_view payload) {
  persist::ByteReader r(payload);
  const auto value = r.u32();
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return *value;
}

std::string encode_tag_state(
    const std::optional<engine::TagStateSnapshot>& state) {
  persist::ByteWriter w;
  w.u8(state.has_value() ? 1 : 0);
  if (state.has_value()) persist::write_tag_state(w, *state);
  return w.take();
}

std::optional<std::optional<engine::TagStateSnapshot>> decode_tag_state(
    std::string_view payload) {
  persist::ByteReader r(payload);
  const auto has = r.u8();
  if (!has) return std::nullopt;
  if (*has == 0) {
    if (!r.exhausted()) return std::nullopt;
    return std::optional<engine::TagStateSnapshot>{};
  }
  engine::TagStateSnapshot state;
  if (!persist::read_tag_state(r, state) || !r.exhausted()) return std::nullopt;
  return std::optional<engine::TagStateSnapshot>{std::move(state)};
}

std::string encode_import_tag(const ImportTagRequest& request) {
  persist::ByteWriter w;
  w.u32(request.tag);
  w.u8(request.zone.has_value() ? 1 : 0);
  if (request.zone.has_value()) w.u32(*request.zone);
  persist::write_tag_state(w, request.state);
  return w.take();
}

std::optional<ImportTagRequest> decode_import_tag(std::string_view payload) {
  persist::ByteReader r(payload);
  ImportTagRequest request;
  const auto tag = r.u32();
  const auto has_zone = r.u8();
  if (!tag || !has_zone) return std::nullopt;
  request.tag = *tag;
  if (*has_zone != 0) {
    const auto zone = r.u32();
    if (!zone) return std::nullopt;
    request.zone = *zone;
  }
  if (!persist::read_tag_state(r, request.state) || !r.exhausted()) {
    return std::nullopt;
  }
  return request;
}

std::string encode_seed_state(const SeedState& seed) {
  persist::ByteWriter w;
  persist::write_engine_state(w, seed.engine);
  persist::write_middleware_snapshot(w, seed.middleware);
  return w.take();
}

std::optional<SeedState> decode_seed_state(std::string_view payload) {
  persist::ByteReader r(payload);
  SeedState seed;
  if (!persist::read_engine_state(r, seed.engine)) return std::nullopt;
  if (!persist::read_middleware_snapshot(r, seed.middleware)) return std::nullopt;
  if (!r.exhausted()) return std::nullopt;
  return seed;
}

}  // namespace vire::service
