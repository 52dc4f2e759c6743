#pragma once
// Durable control journal of the supervisor (docs/service.md, "Supervisor
// failover & elastic membership").
//
// PR 8/9 made shard *processes* self-healing, but the supervisor's own
// control plane — per-shard op-logs, the ingest sequence cursor, router
// membership, breaker states — lived only in memory, making the coordinator
// the single point of data loss. This journal records every control-plane
// op in a segmented CRC-framed log (persist::FramedLog, the WAL's on-disk
// discipline) under <root>/journal/, plus a periodic checkpoint of the
// folded state, so a supervisor restarted over an existing root rebuilds
// its op-log, reseeds sequences and replays only the un-acked suffix.
//
// Layout under config.dir:
//   ops-<start_sequence>.log   segmented op records ("VCJL" magic)
//   checkpoint.bin             folded control state, sealed with
//                              persist::seal ("VCJC" magic, CRC body) and
//                              written via support::atomic_write_file
//
// Op records (u8 type | payload, little-endian). Payloads reuse the one
// codec of each record type, so the wire and persist codecs are part of
// this on-disk format (tests/persist/fixtures/journal pins the bytes):
//   kTrack         wire kTrack payload: u32 tag | str name | u8 has_zone |
//                  [u32 zone]
//   kSetReference  wire kSetReference payload: u32 count | u32 tag*
//   kBatch         u32 shard | u64 batch_seq | persist::write_readings
//   kPoll          u32 shard | f64 time          (poll a down shard owes)
//   kAddShard / kShardActive / kShardDraining / kRemoveShard   u32 shard
//   kBreakerOpen / kBreakerClose                               u32 shard
//   kPollsDone     u32 shard | u64 through_journal_seq
//
// Durability note: appends are never fsynced (FsyncPolicy::kOff) —
// completed write()s survive a supervisor SIGKILL (the drill this journal
// exists for) via the page cache; checkpoint() always syncs the log before
// writing the state file, bounding machine-crash loss to one checkpoint
// interval.

#include <cstdint>
#include <deque>
#include <filesystem>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/localization_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/framed_log.h"
#include "service/wire.h"
#include "sim/types.h"

namespace vire::service {

/// Membership state machine of one fleet member, journaled so restarts
/// resume interrupted joins/drains and vire_fleet_status can show it:
///   kJoining  — kAddShard journaled; process up, seed + migration pending
///   kActive   — in the router, owns tags (kShardActive journaled)
///   kDraining — kShardDraining journaled; out of the router, tags moving out
enum class MemberPhase : std::uint8_t {
  kJoining = 0,
  kActive = 1,
  kDraining = 2,
};
[[nodiscard]] std::string_view to_string(MemberPhase phase) noexcept;

struct ControlJournalConfig {
  std::filesystem::path dir;
  std::uint64_t segment_max_records = 4096;
  /// Testing seam (fault::DiskFaultInjector); nullptr in production.
  support::IoFaultHook* fault_hook = nullptr;
};

/// One op-log entry: a batch the shard has not acked, or a poll a down
/// shard still owes. The supervisor's op-log holds only these; the payload
/// stays in the journal.
struct OpRef {
  enum class Kind : std::uint8_t { kBatch, kPoll };
  Kind kind = Kind::kBatch;
  std::uint64_t journal_sequence = 0;
  std::uint64_t batch_sequence = 0;  ///< kBatch only
};

/// An op-log entry read back from the journal with its payload.
struct JournaledOp : OpRef {
  std::vector<sim::RssiReading> readings;  ///< kBatch only
  sim::SimTime time = 0.0;                 ///< kPoll only
};

/// The folded control-plane state a checkpoint persists and recovery
/// returns. Doubles cross by bit pattern (persist::ByteWriter), so restored
/// held fixes and poll times are the identical IEEE-754 values.
struct ControlCheckpoint {
  /// Journal sequence replay starts from: the oldest journal record any
  /// member's op-log still needs (next_sequence when every op-log is empty).
  std::uint64_t journal_floor = 1;
  std::uint64_t ingest_sequence = 0;  ///< highest allocated batch sequence
  std::uint32_t next_shard_id = 0;
  double last_poll_time = 0.0;        ///< migration-horizon cursor

  struct Member {
    std::uint32_t id = 0;
    MemberPhase phase = MemberPhase::kActive;
    std::uint64_t last_ack = 0;      ///< highest batch seq durably acked
    bool breaker_open = false;
    /// Journal sequence through which journaled polls have been executed.
    std::uint64_t polls_done = 0;
  };
  std::vector<Member> members;

  std::vector<sim::TagId> reference_ids;
  /// Tracked tags, stored in the kTrack wire layout.
  using Tag = TrackRequest;
  std::vector<Tag> tags;
  /// Merged latest-fix cache (feeds kHold degradation after restart).
  std::vector<engine::Fix> latest;
};

struct RecoveredControlState {
  /// True when a checkpoint or any journal record existed under the dir.
  bool recovered = false;
  /// Checkpoint state with the journal suffix folded in.
  ControlCheckpoint state;
  /// Per-member un-acked op-log suffix, in journal order.
  std::map<std::uint32_t, std::deque<JournaledOp>> oplogs;
  std::uint64_t replayed_ops = 0;      ///< journal records folded at recovery
  std::uint64_t corrupt_records = 0;   ///< torn-tail records dropped
};

class ControlJournal {
 public:
  explicit ControlJournal(ControlJournalConfig config);

  ControlJournal(const ControlJournal&) = delete;
  ControlJournal& operator=(const ControlJournal&) = delete;

  /// Reads checkpoint.bin plus the journal suffix and folds both into the
  /// recovered control state. Call once, before the first append.
  [[nodiscard]] RecoveredControlState recover();

  // Op appends. Each returns the journal sequence the record received.
  std::uint64_t record_track(sim::TagId tag, const std::string& name,
                             std::optional<std::uint32_t> zone);
  std::uint64_t record_set_reference(const std::vector<sim::TagId>& ids);
  std::uint64_t record_batch(std::uint32_t shard, std::uint64_t batch_sequence,
                             std::span<const sim::RssiReading> readings);
  std::uint64_t record_poll(std::uint32_t shard, sim::SimTime time);
  std::uint64_t record_add_shard(std::uint32_t shard);
  std::uint64_t record_shard_active(std::uint32_t shard);
  std::uint64_t record_shard_draining(std::uint32_t shard);
  std::uint64_t record_remove_shard(std::uint32_t shard);
  std::uint64_t record_breaker(std::uint32_t shard, bool open);
  std::uint64_t record_polls_done(std::uint32_t shard,
                                  std::uint64_t through_sequence);

  /// Reads one live member's un-acked op-log suffix back from disk, with
  /// payloads: its batches above `last_ack` plus its polls above
  /// `polls_done`, from journal sequence `from_sequence` on (the oldest
  /// entry the member's op-log holds). This is what a revived shard is sent
  /// and what migration re-feeds. It reads through the journal's writer
  /// (persist::FramedLog::read_from): from the segment holding
  /// `from_sequence` up to the last record the writer has kept, so the
  /// records of a failed write are never read. Only that member's records
  /// are decoded; `records_decoded`, when set, receives how many were.
  [[nodiscard]] std::deque<JournaledOp> collect_oplog(
      std::uint32_t shard, std::uint64_t last_ack, std::uint64_t polls_done,
      std::uint64_t from_sequence = 0,
      std::uint64_t* records_decoded = nullptr) const;

  /// Opens a group write (persist::FramedLog::Batch): the records appended
  /// until it commits reach the log in one write(2), byte for byte what
  /// appending them one by one writes.
  [[nodiscard]] persist::FramedLog::Batch batch() noexcept {
    return persist::FramedLog::Batch(log_);
  }

  /// Syncs the log, atomically writes checkpoint.bin, prunes segments wholly
  /// below state.journal_floor and resets appends_since_checkpoint().
  void checkpoint(const ControlCheckpoint& state);

  [[nodiscard]] std::uint64_t appends_since_checkpoint() const noexcept {
    return since_checkpoint_;
  }
  [[nodiscard]] std::uint64_t next_sequence() const noexcept {
    return log_.next_sequence();
  }
  [[nodiscard]] std::uint64_t truncated_records() const noexcept {
    return log_.truncated_records();
  }
  [[nodiscard]] const ControlJournalConfig& config() const noexcept {
    return config_;
  }

  /// Registers vire_supervisor_journal_{appends,checkpoints,replayed_ops,
  /// truncated}_total. Pure side channel.
  void attach_metrics(obs::MetricsRegistry& registry);
  /// Emits supervisor.journal_fsync spans. Pass nullptr to detach.
  void attach_tracer(obs::Tracer* tracer) noexcept {
    log_.attach_tracer(tracer, "supervisor.journal_fsync");
  }

 private:
  std::uint64_t append(std::uint8_t type, std::string_view payload);
  /// Appends an op whose payload is the shard id alone.
  std::uint64_t record_shard_op(std::uint8_t type, std::uint32_t shard);

  ControlJournalConfig config_;
  persist::FramedLog log_;
  std::uint64_t since_checkpoint_ = 0;
  obs::Counter* appends_metric_ = nullptr;
  obs::Counter* checkpoints_metric_ = nullptr;
  obs::Counter* replayed_metric_ = nullptr;
  obs::Counter* truncated_metric_ = nullptr;
};

}  // namespace vire::service
