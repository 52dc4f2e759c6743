#pragma once
// Wire protocol of the sharded localization service (docs/service.md):
// length-prefixed CRC-framed messages over a byte stream (Unix domain
// socket in practice), reusing the persistence layer's little-endian byte
// IO and CRC-32 so doubles cross the process boundary by bit pattern —
// a fix queried over the wire is the *identical* IEEE-754 value the engine
// produced.
//
// Frame layout (all integers little-endian):
//   u32 frame_len | u8 type | payload | u32 crc32(type byte + payload)
// where frame_len = 1 + payload_len + 4 (everything after the prefix).
//
// The decoder is incremental and hostile-input safe (fuzzed in
// tests/service/wire_test.cpp): a bad CRC or unknown type drops that frame
// and resyncs at the next length prefix; an oversized or undersized length
// prefix poisons the stream (framing can no longer be trusted) and the
// connection must be closed; a partial frame at connection close counts as
// truncated. Every rejection is counted per reason, exported as
// vire_service_rejected_frames_total{reason=...}.

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/localization_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/checkpoint.h"
#include "sim/middleware.h"
#include "sim/types.h"

namespace vire::service {

/// Frames larger than this are rejected as hostile/corrupt (the largest
/// legitimate message, a big fix batch, stays far below it). Enforced on
/// BOTH sides: encode_frame refuses to build a frame the peer's decoder
/// would reject (see its doc), so an oversized payload is a local, typed
/// error instead of a remotely poisoned stream.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;

/// Most readings one kIngestSeq frame can carry under kMaxFramePayload
/// (u64 sequence + u64 trace id + u64 parent span + u32 count precede the
/// readings). Senders must chunk larger batches (Supervisor::ingest does).
inline constexpr std::size_t kMaxReadingsPerBatch =
    (kMaxFramePayload - 28) / persist::kReadingEncoding;

/// Protocol version carried by the kHello handshake, which every client
/// sends at connect. Bump whenever a frame's payload layout changes
/// incompatibly; peers with a different version are rejected fast with
/// kVersionMismatch instead of limping through CRC resyncs. A session
/// decodes exactly one payload layout per frame type — this version's.
inline constexpr std::uint32_t kWireVersion = 4;

enum class MsgType : std::uint8_t {
  // requests
  kIngest = 1,    ///< reading batch in; fire-and-forget (no response)
  kPoll = 2,      ///< evict + update every shard at `now`; responds kFixBatch
  kLatestFix = 3, ///< latest cached fix of one tag; responds kFixReply
  kExplain = 4,   ///< flight-recorder provenance of one tag; kText or kError
  kSnapshot = 5,  ///< merged metrics snapshot; responds kText
  kHello = 6,     ///< version handshake; kHelloAck, or kError + close on skew
  kHeartbeat = 7, ///< liveness probe; responds kHeartbeatAck
  kIngestSeq = 8, ///< sequenced reading batch; fire-and-forget, acked via WAL
  kTrack = 9,     ///< register one tag (name + optional zone pin); kOk
  kSetReference = 10, ///< declare the reference-tag id set; responds kOk
  kRecover = 11,  ///< run checkpoint+WAL recovery now; kOk(u64 last_ack)
  kTraceDump = 12,      ///< pull the span ring (u32 max events); kTraceDumpReply
  kProvenanceDump = 13, ///< pull flight-recorder provenance JSON; kText or kError
  kExportTag = 14, ///< export + untrack one tag's state; kTagState or kError
  kImportTag = 15, ///< adopt one tag's exported state; kOk
  // responses
  kFixBatch = 16,
  kFixReply = 17,
  kText = 18,
  kError = 19,
  kHelloAck = 20,
  kHeartbeatAck = 21,
  kOk = 22,       ///< generic success, u64 detail payload
  kTraceDumpReply = 23, ///< encode_trace_dump payload
  // v4 requests (the 1..15 request block is full; responses stay 16..23 + 28+)
  kSeedExport = 24, ///< export reference-only seed state; kSeedState or kError
  kSeedImport = 25, ///< restore reference-only seed state; kOk
  kAddShard = 26,   ///< supervisor only: join one shard; kOk(u64 new shard id)
  kRemoveShard = 27,///< supervisor only: drain + retire one shard; kOk(u64 moved)
  // v4 responses
  kTagState = 28,   ///< encode_tag_state payload (kExportTag reply)
  kSeedState = 29,  ///< encode_seed_state payload (kSeedExport reply)
};

/// Payload format selector for kSnapshot.
inline constexpr std::uint8_t kSnapshotPrometheus = 0;
inline constexpr std::uint8_t kSnapshotJson = 1;

struct Frame {
  MsgType type = MsgType::kError;
  std::string payload;
};

enum class RejectReason : std::uint8_t {
  kOversized = 0, ///< length prefix beyond kMaxFramePayload (or below the minimum)
  kBadCrc = 1,
  kBadType = 2,
  kTruncated = 3, ///< connection closed mid-frame
  kMalformed = 4, ///< frame ok, typed payload did not decode
  kVersionMismatch = 5, ///< kHello carried a different kWireVersion
};
inline constexpr std::size_t kRejectReasonCount = 6;

[[nodiscard]] std::string_view to_string(RejectReason reason) noexcept;

/// Serializes one frame, ready to write to the stream. Throws
/// std::length_error when the payload exceeds kMaxFramePayload — the peer's
/// decoder would mark the stream poisoned and drop the connection, which on
/// a supervised link reads as a shard death; failing locally keeps an
/// oversized response a request-level error.
[[nodiscard]] std::string encode_frame(MsgType type, std::string_view payload);

/// Incremental frame decoder over an arbitrary chunking of the byte stream
/// (interleaved partial reads are the normal case). One instance per
/// connection; not thread-safe.
class FrameDecoder {
 public:
  void feed(std::string_view bytes) { buffer_.append(bytes); }

  /// Next complete, CRC-valid frame of a known type; nullopt when more bytes
  /// are needed or the stream is failed. Invalid frames are skipped and
  /// counted, never returned.
  [[nodiscard]] std::optional<Frame> next();

  /// True once an oversized/undersized length prefix destroyed framing; the
  /// caller should drop the connection.
  [[nodiscard]] bool failed() const noexcept { return failed_; }

  /// Call when the peer closes the stream: a buffered partial frame counts
  /// as kTruncated.
  void finish();

  /// Counts a kMalformed rejection — for the layer above, when a structurally
  /// valid frame's typed payload fails to decode.
  void note_malformed() { count(RejectReason::kMalformed); }

  /// Counts a kVersionMismatch rejection — for the layer above, when a
  /// kHello carried a different kWireVersion.
  void note_version_mismatch() { count(RejectReason::kVersionMismatch); }

  [[nodiscard]] std::uint64_t rejected(RejectReason reason) const noexcept {
    return rejected_[static_cast<std::size_t>(reason)];
  }
  [[nodiscard]] std::uint64_t rejected_total() const noexcept;

  /// Registers vire_service_rejected_frames_total{reason=...} (one series
  /// per reason) and mirrors every future rejection into it. Idempotent
  /// registration; the registry must outlive this decoder.
  void attach_metrics(obs::MetricsRegistry& registry);

 private:
  void count(RejectReason reason);

  std::string buffer_;
  std::size_t pos_ = 0;  ///< consumed prefix of buffer_
  bool failed_ = false;
  bool finished_ = false;
  std::array<std::uint64_t, kRejectReasonCount> rejected_{};
  std::array<obs::Counter*, kRejectReasonCount> counters_{};
};

// Typed payload codecs. Every decode returns nullopt on malformed input
// (wrong length, overrunning string prefix, unknown enum value) — never
// throws, never reads out of bounds. Readings and fixes use the persist
// codecs (persist/checkpoint.h), the same bytes the WAL and control journal
// store.

/// kIngest: u32 count | reading* (persist::write_readings).
[[nodiscard]] std::string encode_ingest(const std::vector<sim::RssiReading>& readings);
[[nodiscard]] std::optional<std::vector<sim::RssiReading>> decode_ingest(
    std::string_view payload);

[[nodiscard]] std::string encode_time(sim::SimTime now);
[[nodiscard]] std::optional<sim::SimTime> decode_time(std::string_view payload);

[[nodiscard]] std::string encode_tag(sim::TagId tag);
[[nodiscard]] std::optional<sim::TagId> decode_tag(std::string_view payload);

[[nodiscard]] std::string encode_snapshot_request(std::uint8_t format);
[[nodiscard]] std::optional<std::uint8_t> decode_snapshot_request(
    std::string_view payload);

[[nodiscard]] std::string encode_fixes(const std::vector<engine::Fix>& fixes);
[[nodiscard]] std::optional<std::vector<engine::Fix>> decode_fixes(
    std::string_view payload);

[[nodiscard]] std::string encode_fix_reply(const std::optional<engine::Fix>& fix);
/// Outer nullopt: malformed. Inner nullopt: "no fix for this tag".
[[nodiscard]] std::optional<std::optional<engine::Fix>> decode_fix_reply(
    std::string_view payload);

/// kHello / kHelloAck: u32 version | str peer_name.
struct Hello {
  std::uint32_t version = kWireVersion;
  std::string peer_name;
};
[[nodiscard]] std::string encode_hello(const Hello& hello);
[[nodiscard]] std::optional<Hello> decode_hello(std::string_view payload);

/// kHeartbeat carries a u64 probe sequence (encode_u64); the ack echoes it
/// plus the shard's durability cursor, so the supervisor learns which ingest
/// batches survived a crash without replaying blind, the shard's monotonic
/// trace-clock reading (for NTP-style offset estimation) and its cumulative
/// anomaly auto-dump count: u64 seq | u64 wal_next | u64 last_ack |
/// f64 mono_now_us | u64 anomaly_dumps.
struct HeartbeatAck {
  std::uint64_t seq = 0;               ///< echoed probe sequence
  std::uint64_t wal_next_sequence = 0; ///< shard WAL frontier
  std::uint64_t last_ack_sequence = 0; ///< highest durably journaled batch
  double mono_now_us = 0.0;            ///< shard trace clock at ack time
  std::uint64_t anomaly_dumps = 0;     ///< cumulative anomaly auto-dumps
};
[[nodiscard]] std::string encode_heartbeat_ack(const HeartbeatAck& ack);
[[nodiscard]] std::optional<HeartbeatAck> decode_heartbeat_ack(
    std::string_view payload);

/// kIngestSeq: u64 batch sequence | u64 trace id | u64 parent span id |
/// ingest payload. The sequence keys the sender's resend window; redelivery
/// is idempotent downstream. The trace context is capture-only: an all-zero
/// context is always valid and never alters localization.
struct SequencedBatch {
  std::uint64_t sequence = 0;
  obs::TraceContext ctx;
  std::vector<sim::RssiReading> readings;
};

/// One reading batch of an ingest run, borrowed for the duration of a call:
/// the readings of a kIngest (`sequence` 0) or kIngestSeq frame.
struct IngestBatch {
  std::span<const sim::RssiReading> readings;
  std::uint64_t sequence = 0;
  obs::TraceContext ctx;
};

[[nodiscard]] std::string encode_ingest_seq(
    std::uint64_t sequence, const obs::TraceContext& ctx,
    std::span<const sim::RssiReading> readings);
[[nodiscard]] std::string encode_ingest_seq(
    std::uint64_t sequence, const std::vector<sim::RssiReading>& readings);
[[nodiscard]] std::optional<SequencedBatch> decode_ingest_seq(
    std::string_view payload);

/// kPoll: f64 now | u64 trace id | u64 span id.
struct PollRequest {
  sim::SimTime now = 0.0;
  obs::TraceContext ctx;
};
[[nodiscard]] std::string encode_poll(const PollRequest& request);
[[nodiscard]] std::optional<PollRequest> decode_poll(std::string_view payload);

/// kTraceDumpReply: f64 clock | u32 thread-name count | (u32 tid, str name)*
/// | u32 event count | (str name, u8 ph, u8 scope, f64 ts, f64 dur, u32 tid,
/// str args)*. The codec lives here rather than in obs because obs carries
/// no persistence dependency; the payload must fit one frame, so pullers
/// bound the event count (kTraceDump's u32 max-events request).
[[nodiscard]] std::string encode_trace_dump(const obs::TraceDump& dump);
[[nodiscard]] std::optional<obs::TraceDump> decode_trace_dump(
    std::string_view payload);

/// kTrack: u32 tag | str name | u8 has_zone | [u32 zone].
struct TrackRequest {
  sim::TagId tag = 0;
  std::string name;
  std::optional<std::uint32_t> zone;
};
[[nodiscard]] std::string encode_track(const TrackRequest& request);
[[nodiscard]] std::optional<TrackRequest> decode_track(std::string_view payload);
/// The same layout inside a larger record (the control journal's kTrack op
/// and checkpoint tag table).
void write_track(persist::ByteWriter& w, const TrackRequest& request);
bool read_track(persist::ByteReader& r, TrackRequest& out);

/// kSetReference: u32 count | u32 tag*.
[[nodiscard]] std::string encode_reference_ids(const std::vector<sim::TagId>& ids);
/// The same layout inside a larger record; read_tag_ids fails before
/// reserving when the claimed count cannot fit the bytes left.
void write_tag_ids(persist::ByteWriter& w, const std::vector<sim::TagId>& ids);
bool read_tag_ids(persist::ByteReader& r, std::vector<sim::TagId>& out);
[[nodiscard]] std::optional<std::vector<sim::TagId>> decode_reference_ids(
    std::string_view payload);

/// Bare u64 payload: kHeartbeat probe sequence and the kOk detail value.
[[nodiscard]] std::string encode_u64(std::uint64_t value);
[[nodiscard]] std::optional<std::uint64_t> decode_u64(std::string_view payload);

/// Bare u32 payload: the kTraceDump max-events bound (0 = all retained),
/// the kExportTag tag id, and the kRemoveShard shard id.
[[nodiscard]] std::string encode_u32(std::uint32_t value);
[[nodiscard]] std::optional<std::uint32_t> decode_u32(std::string_view payload);

/// kTagState: u8 has | [persist tag-state codec]. The inner nullopt means
/// "source shard held no state for this tag" (the mover imports a fresh
/// snapshot instead). Outer nullopt: malformed.
[[nodiscard]] std::string encode_tag_state(
    const std::optional<engine::TagStateSnapshot>& state);
[[nodiscard]] std::optional<std::optional<engine::TagStateSnapshot>>
decode_tag_state(std::string_view payload);

/// kImportTag: u32 tag | u8 has_zone | [u32 zone] | persist tag-state codec.
struct ImportTagRequest {
  sim::TagId tag = 0;
  std::optional<std::uint32_t> zone;
  engine::TagStateSnapshot state;
};
[[nodiscard]] std::string encode_import_tag(const ImportTagRequest& request);
[[nodiscard]] std::optional<ImportTagRequest> decode_import_tag(
    std::string_view payload);

/// kSeedState / kSeedImport: persist engine-state codec | persist middleware
/// codec — the reference-only seed a joining shard restores before it takes
/// ownership of any tag (see ShardedService::seed_export).
struct SeedState {
  engine::EngineStateSnapshot engine;
  sim::Middleware::Snapshot middleware;
};
[[nodiscard]] std::string encode_seed_state(const SeedState& seed);
[[nodiscard]] std::optional<SeedState> decode_seed_state(
    std::string_view payload);

}  // namespace vire::service
