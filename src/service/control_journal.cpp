#include "service/control_journal.h"

#include <algorithm>
#include <utility>

#include "persist/binary_io.h"
#include "persist/checkpoint.h"
#include "service/wire.h"
#include "support/atomic_file.h"

namespace vire::service {
namespace {

// Op record types. Values are on-disk format — never renumber.
constexpr std::uint8_t kOpTrack = 1;
constexpr std::uint8_t kOpSetReference = 2;
constexpr std::uint8_t kOpBatch = 3;
constexpr std::uint8_t kOpPoll = 4;
constexpr std::uint8_t kOpAddShard = 5;
constexpr std::uint8_t kOpRemoveShard = 6;
constexpr std::uint8_t kOpBreakerOpen = 7;
constexpr std::uint8_t kOpBreakerClose = 8;
constexpr std::uint8_t kOpPollsDone = 9;
constexpr std::uint8_t kOpShardDraining = 10;
constexpr std::uint8_t kOpShardActive = 11;

constexpr std::string_view kCheckpointMagic = "VCJC";
constexpr std::uint32_t kCheckpointVersion = 1;
constexpr char kCheckpointFile[] = "checkpoint.bin";

persist::FramedLogFormat journal_format() { return {{'V', 'C', 'J', 'L'}, 1, "ops"}; }

/// One decoded op record; which fields are set depends on the type.
struct Op {
  std::uint32_t shard = 0;        ///< every op but kTrack / kSetReference
  std::uint64_t sequence = 0;     ///< kBatch batch sequence, kPollsDone through
  sim::SimTime time = 0.0;        ///< kPoll
  std::vector<sim::RssiReading> readings;  ///< kBatch
  TrackRequest track;             ///< kTrack
  std::vector<sim::TagId> ids;    ///< kSetReference
};

/// The op decoder, also handed to the framed log as its validator: a
/// CRC-valid record that does not decode for its type (or has an unknown
/// type) is treated as a torn tail.
bool decode_op(std::uint8_t type, std::string_view payload, Op& op) {
  persist::ByteReader r(payload);
  switch (type) {
    case kOpTrack:
      return read_track(r, op.track) && r.exhausted();
    case kOpSetReference:
      return read_tag_ids(r, op.ids) && r.exhausted();
    case kOpBatch: {
      const auto shard = r.u32();
      const auto sequence = r.u64();
      if (!persist::read_readings(r, op.readings) || !r.exhausted()) return false;
      op.shard = *shard;
      op.sequence = *sequence;
      return true;
    }
    case kOpPoll: {
      const auto shard = r.u32();
      const auto time = r.f64();
      if (!r.exhausted()) return false;
      op.shard = *shard;
      op.time = *time;
      return true;
    }
    case kOpPollsDone: {
      const auto shard = r.u32();
      const auto through = r.u64();
      if (!r.exhausted()) return false;
      op.shard = *shard;
      op.sequence = *through;
      return true;
    }
    case kOpAddShard:
    case kOpRemoveShard:
    case kOpBreakerOpen:
    case kOpBreakerClose:
    case kOpShardDraining:
    case kOpShardActive: {
      const auto shard = r.u32();
      if (!r.exhausted()) return false;
      op.shard = *shard;
      return true;
    }
    default:
      return false;
  }
}

bool validate_op(std::uint64_t /*sequence*/, std::uint8_t type,
                 std::string_view payload) {
  Op op;
  return decode_op(type, payload, op);
}

persist::FramedLogConfig log_config(const ControlJournalConfig& config) {
  persist::FramedLogConfig cfg;
  cfg.dir = config.dir;
  cfg.format = journal_format();
  cfg.segment_max_records = config.segment_max_records;
  cfg.fsync = persist::FsyncPolicy::kOff;
  cfg.fault_hook = config.fault_hook;
  cfg.validate = validate_op;
  return cfg;
}

std::string encode_checkpoint_body(const ControlCheckpoint& state) {
  persist::ByteWriter w;
  w.u32(kCheckpointVersion);
  w.u64(state.journal_floor);
  w.u64(state.ingest_sequence);
  w.u32(state.next_shard_id);
  w.f64(state.last_poll_time);
  w.u32(static_cast<std::uint32_t>(state.members.size()));
  for (const auto& m : state.members) {
    w.u32(m.id);
    w.u8(static_cast<std::uint8_t>(m.phase));
    w.u64(m.last_ack);
    w.u8(m.breaker_open ? 1 : 0);
    w.u64(m.polls_done);
  }
  write_tag_ids(w, state.reference_ids);
  w.u32(static_cast<std::uint32_t>(state.tags.size()));
  for (const auto& t : state.tags) write_track(w, t);
  w.u32(static_cast<std::uint32_t>(state.latest.size()));
  for (const auto& fix : state.latest) persist::write_fix(w, fix);
  return w.take();
}

bool decode_checkpoint_body(std::string_view body, ControlCheckpoint& out) {
  persist::ByteReader r(body);
  const auto version = r.u32();
  if (!r.ok() || *version != kCheckpointVersion) return false;
  const auto floor = r.u64();
  const auto ingest = r.u64();
  const auto next_id = r.u32();
  const auto poll_time = r.f64();
  const auto n_members = r.u32();
  if (!r.ok()) return false;
  out.journal_floor = *floor;
  out.ingest_sequence = *ingest;
  out.next_shard_id = *next_id;
  out.last_poll_time = *poll_time;
  out.members.clear();
  for (std::uint32_t i = 0; i < *n_members; ++i) {
    ControlCheckpoint::Member m;
    const auto id = r.u32();
    const auto phase = r.u8();
    const auto ack = r.u64();
    const auto breaker = r.u8();
    const auto polls = r.u64();
    if (!r.ok() || *phase > 2 || *breaker > 1) return false;
    m.id = *id;
    m.phase = static_cast<MemberPhase>(*phase);
    m.last_ack = *ack;
    m.breaker_open = *breaker != 0;
    m.polls_done = *polls;
    out.members.push_back(m);
  }
  if (!read_tag_ids(r, out.reference_ids)) return false;
  const auto n_tags = r.u32();
  if (!r.ok()) return false;
  out.tags.clear();
  for (std::uint32_t i = 0; i < *n_tags; ++i) {
    if (!read_track(r, out.tags.emplace_back())) return false;
  }
  const auto n_latest = r.u32();
  if (!r.ok()) return false;
  out.latest.clear();
  for (std::uint32_t i = 0; i < *n_latest; ++i) {
    if (!persist::read_fix(r, out.latest.emplace_back())) return false;
  }
  return r.exhausted();
}

ControlCheckpoint::Member& ensure_member(ControlCheckpoint& state,
                                         std::uint32_t id) {
  for (auto& m : state.members) {
    if (m.id == id) return m;
  }
  ControlCheckpoint::Member m;
  m.id = id;
  state.members.push_back(m);
  return state.members.back();
}

ControlCheckpoint::Member* find_member(ControlCheckpoint& state,
                                       std::uint32_t id) {
  for (auto& m : state.members) {
    if (m.id == id) return &m;
  }
  return nullptr;
}

using OpLogs = std::map<std::uint32_t, std::deque<JournaledOp>>;

/// Drops the polls through journal sequence `through` from one op-log.
void erase_polls_through(OpLogs& oplogs, std::uint32_t shard,
                         std::uint64_t through) {
  const auto it = oplogs.find(shard);
  if (it == oplogs.end()) return;
  auto& ops = it->second;
  ops.erase(std::remove_if(ops.begin(), ops.end(),
                           [&](const JournaledOp& op) {
                             return op.kind == JournaledOp::Kind::kPoll &&
                                    op.journal_sequence <= through;
                           }),
            ops.end());
}

/// Folds one decoded op into the control state and the per-member op-logs
/// (consuming `op`). The one interpretation of the journal, shared by
/// recover() and collect_oplog().
void fold_op(std::uint64_t sequence, std::uint8_t type, Op& op,
             ControlCheckpoint& state, OpLogs& oplogs) {
  switch (type) {
    case kOpTrack: {
      auto it = std::find_if(state.tags.begin(), state.tags.end(),
                             [&](const auto& e) { return e.tag == op.track.tag; });
      if (it != state.tags.end()) {
        *it = std::move(op.track);
      } else {
        state.tags.push_back(std::move(op.track));
      }
      break;
    }
    case kOpSetReference:
      state.reference_ids = std::move(op.ids);
      break;
    case kOpBatch: {
      state.ingest_sequence = std::max(state.ingest_sequence, op.sequence);
      if (op.sequence > ensure_member(state, op.shard).last_ack) {
        JournaledOp entry;
        entry.kind = JournaledOp::Kind::kBatch;
        entry.journal_sequence = sequence;
        entry.batch_sequence = op.sequence;
        entry.readings = std::move(op.readings);
        oplogs[op.shard].push_back(std::move(entry));
      }
      break;
    }
    case kOpPoll: {
      state.last_poll_time = std::max(state.last_poll_time, op.time);
      if (sequence > ensure_member(state, op.shard).polls_done) {
        JournaledOp entry;
        entry.kind = JournaledOp::Kind::kPoll;
        entry.journal_sequence = sequence;
        entry.time = op.time;
        oplogs[op.shard].push_back(std::move(entry));
      }
      break;
    }
    case kOpAddShard:
      ensure_member(state, op.shard).phase = MemberPhase::kJoining;
      state.next_shard_id = std::max(state.next_shard_id, op.shard + 1);
      break;
    case kOpShardActive:
      ensure_member(state, op.shard).phase = MemberPhase::kActive;
      break;
    case kOpShardDraining:
      ensure_member(state, op.shard).phase = MemberPhase::kDraining;
      break;
    case kOpRemoveShard:
      state.members.erase(
          std::remove_if(state.members.begin(), state.members.end(),
                         [&](const auto& m) { return m.id == op.shard; }),
          state.members.end());
      oplogs.erase(op.shard);
      break;
    case kOpBreakerOpen:
    case kOpBreakerClose:
      ensure_member(state, op.shard).breaker_open = type == kOpBreakerOpen;
      break;
    case kOpPollsDone:
      if (auto* member = find_member(state, op.shard)) {
        member->polls_done = std::max(member->polls_done, op.sequence);
        erase_polls_through(oplogs, op.shard, op.sequence);
      }
      break;
    default:
      break;  // decode_op rejects unknown types
  }
}

/// A visitor that folds every journal record with sequence >= `from_sequence`
/// into `state` and `oplogs`, counting the records decoded in `decoded`. With
/// `only_shard` set it folds just the ops addressed to that member (every
/// payload but kTrack's and kSetReference's starts with the member's u32),
/// and reads only their payloads past that prefix.
///
/// Records below the floor are stepped over undecoded: the journal's writer
/// validated every retained record with decode_op when it reopened the log
/// (ControlJournal's constructor), so a record older than the floor always
/// decodes. recover() walks every retained segment and decodes every record
/// at or above the floor: that decode is its torn-tail check.
persist::RecordVisitor fold_visitor(std::uint64_t from_sequence,
                                    std::optional<std::uint32_t> only_shard,
                                    ControlCheckpoint& state, OpLogs& oplogs,
                                    std::uint64_t& decoded) {
  return [=, &state, &oplogs, &decoded, op = Op{}](
             std::uint64_t sequence, std::uint8_t type,
             std::string_view payload) mutable {
    if (sequence < from_sequence) return true;
    if (only_shard && (type == kOpTrack || type == kOpSetReference ||
                       persist::ByteReader(payload).u32() != only_shard)) {
      return true;
    }
    if (!decode_op(type, payload, op)) return false;
    ++decoded;
    fold_op(sequence, type, op, state, oplogs);
    return true;
  };
}

}  // namespace

std::string_view to_string(MemberPhase phase) noexcept {
  switch (phase) {
    case MemberPhase::kJoining:
      return "joining";
    case MemberPhase::kActive:
      return "active";
    case MemberPhase::kDraining:
      return "draining";
  }
  return "unknown";
}

ControlJournal::ControlJournal(ControlJournalConfig config)
    : config_(std::move(config)), log_(log_config(config_)) {}

RecoveredControlState ControlJournal::recover() {
  RecoveredControlState result;
  const auto body = persist::read_sealed_file(
      config_.dir / std::filesystem::path(kCheckpointFile), kCheckpointMagic);
  // A corrupt or torn checkpoint falls back to full-journal replay.
  ControlCheckpoint snapshot;
  if (body && decode_checkpoint_body(*body, snapshot)) {
    result.recovered = true;
    result.state = std::move(snapshot);
  }

  const auto scan = persist::scan_framed_log(
      config_.dir, journal_format(),
      fold_visitor(result.state.journal_floor, std::nullopt, result.state,
                   result.oplogs, result.replayed_ops));
  result.corrupt_records = scan.corrupt_records + log_.truncated_records();
  if (result.replayed_ops > 0) result.recovered = true;
  if (replayed_metric_ != nullptr) replayed_metric_->inc(result.replayed_ops);
  if (truncated_metric_ != nullptr && result.corrupt_records > 0) {
    truncated_metric_->inc(result.corrupt_records);
  }
  return result;
}

std::deque<JournaledOp> ControlJournal::collect_oplog(
    std::uint32_t shard, std::uint64_t last_ack, std::uint64_t polls_done,
    std::uint64_t from_sequence, std::uint64_t* records_decoded) const {
  ControlCheckpoint state;
  state.members.push_back(
      {shard, MemberPhase::kActive, last_ack, /*breaker_open=*/false, polls_done});
  OpLogs oplogs;
  std::uint64_t decoded = 0;
  log_.read_from(from_sequence,
                 fold_visitor(from_sequence, shard, state, oplogs, decoded));
  if (records_decoded != nullptr) *records_decoded = decoded;
  return std::move(oplogs[shard]);
}

std::uint64_t ControlJournal::append(std::uint8_t type,
                                     std::string_view payload) {
  const auto seq = log_.append(type, payload);
  ++since_checkpoint_;
  if (appends_metric_ != nullptr) appends_metric_->inc();
  return seq;
}

std::uint64_t ControlJournal::record_track(sim::TagId tag,
                                           const std::string& name,
                                           std::optional<std::uint32_t> zone) {
  return append(kOpTrack, encode_track({tag, name, zone}));
}

std::uint64_t ControlJournal::record_set_reference(
    const std::vector<sim::TagId>& ids) {
  return append(kOpSetReference, encode_reference_ids(ids));
}

std::uint64_t ControlJournal::record_batch(
    std::uint32_t shard, std::uint64_t batch_sequence,
    std::span<const sim::RssiReading> readings) {
  persist::ByteWriter w;
  w.u32(shard);
  w.u64(batch_sequence);
  persist::write_readings(w, readings);
  return append(kOpBatch, w.bytes());
}

std::uint64_t ControlJournal::record_poll(std::uint32_t shard,
                                          sim::SimTime time) {
  persist::ByteWriter w;
  w.u32(shard);
  w.f64(time);
  return append(kOpPoll, w.bytes());
}

std::uint64_t ControlJournal::record_shard_op(std::uint8_t type,
                                              std::uint32_t shard) {
  return append(type, encode_u32(shard));
}

std::uint64_t ControlJournal::record_add_shard(std::uint32_t shard) {
  return record_shard_op(kOpAddShard, shard);
}

std::uint64_t ControlJournal::record_shard_active(std::uint32_t shard) {
  return record_shard_op(kOpShardActive, shard);
}

std::uint64_t ControlJournal::record_shard_draining(std::uint32_t shard) {
  return record_shard_op(kOpShardDraining, shard);
}

std::uint64_t ControlJournal::record_remove_shard(std::uint32_t shard) {
  return record_shard_op(kOpRemoveShard, shard);
}

std::uint64_t ControlJournal::record_breaker(std::uint32_t shard, bool open) {
  return record_shard_op(open ? kOpBreakerOpen : kOpBreakerClose, shard);
}

std::uint64_t ControlJournal::record_polls_done(
    std::uint32_t shard, std::uint64_t through_sequence) {
  persist::ByteWriter w;
  w.u32(shard);
  w.u64(through_sequence);
  return append(kOpPollsDone, w.bytes());
}

void ControlJournal::checkpoint(const ControlCheckpoint& state) {
  // Sync the log BEFORE the state file: a checkpoint must never claim a
  // floor whose suffix is not at least as durable as the checkpoint itself.
  log_.sync();
  support::atomic_write_file(
      config_.dir / std::filesystem::path(kCheckpointFile),
      persist::seal(kCheckpointMagic, encode_checkpoint_body(state)),
      config_.fault_hook);
  log_.prune(state.journal_floor);
  since_checkpoint_ = 0;
  if (checkpoints_metric_ != nullptr) checkpoints_metric_->inc();
}

void ControlJournal::attach_metrics(obs::MetricsRegistry& registry) {
  appends_metric_ = &registry.counter(
      "vire_supervisor_journal_appends_total", {},
      "Control-plane ops appended to the supervisor journal");
  checkpoints_metric_ = &registry.counter(
      "vire_supervisor_journal_checkpoints_total", {},
      "Control-journal checkpoints written");
  replayed_metric_ = &registry.counter(
      "vire_supervisor_journal_replayed_ops_total", {},
      "Journal ops folded back in at supervisor recovery");
  truncated_metric_ = &registry.counter(
      "vire_supervisor_journal_truncated_total", {},
      "Corrupt/torn journal records dropped at recovery");
}

}  // namespace vire::service
