#pragma once
// Write-ahead journal of the localization pipeline's accepted input (see
// docs/robustness.md, "Crash recovery").
//
// The middleware's aggregates — and therefore the engine's fixes — are a
// pure deterministic function of the accepted-reading stream plus the
// evict/update call sequence. Journaling exactly that stream, in order,
// makes the whole pipeline replayable: restore the latest checkpoint, re-run
// the WAL suffix through the normal ingest()/evict_stale()/update() path,
// and the recovered process is bit-identical to one that never crashed.
//
// On-disk format: a persist::FramedLog format (framed_log.h) with magic
// "VWAL", version kWalVersion and segment files wal-<start_sequence>.log.
// Record types and payloads (all integers little-endian, doubles by bit
// pattern):
//     kReading: f64 time | u32 tag | u16 reader | f64 rssi_dbm
//     kEvict:   f64 now
//     kUpdate:  f64 now
//     kAck:     u64 ingest-batch sequence
//
// A crash can tear at most the tail of the newest segment. Both the reader
// and the writer treat the first CRC/decode failure as end-of-log: the
// reader stops there (counting the bad frame), the writer truncates the
// segment at the same point and deletes any later segments, so the log is
// again a valid prefix of history. Frames are numbered by a global sequence
// (header start + position) that survives rotation.
//
// The log stays bounded: after each checkpoint its owner prunes the segments
// below retention_floor(), so recovery and migration read only frames they
// can still need.

#include <cstdint>
#include <deque>
#include <filesystem>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/framed_log.h"
#include "sim/types.h"
#include "support/atomic_file.h"

namespace vire::persist {

inline constexpr std::uint32_t kWalVersion = 1;

class CheckpointStore;

enum class FrameType : std::uint8_t {
  kReading = 1,  ///< one reading accepted by Middleware::ingest
  kEvict = 2,    ///< Middleware::evict_stale(now)
  kUpdate = 3,   ///< engine update(now) boundary — written BEFORE the update
                 ///< runs, so a crash mid-update replays it after recovery
  kAck = 4,      ///< supervisor ingest-batch ack boundary — written AFTER the
                 ///< batch's readings, so a recovered shard reports exactly
                 ///< the batches whose readings are durably journaled
};

struct WalFrame {
  FrameType type = FrameType::kReading;
  std::uint64_t sequence = 0;
  sim::RssiReading reading;         ///< valid for kReading
  sim::SimTime time = 0.0;          ///< valid for kEvict / kUpdate
  std::uint64_t ack_sequence = 0;   ///< valid for kAck
};

struct WalConfig {
  std::filesystem::path dir;
  /// Frames per segment before rotating to a new file.
  std::uint64_t segment_max_frames = 8192;
  FsyncPolicy fsync = FsyncPolicy::kEveryN;
  /// Testing seam (fault::DiskFaultInjector); nullptr in production.
  support::IoFaultHook* fault_hook = nullptr;
};

struct WalReadResult {
  std::vector<WalFrame> frames;  ///< sequence >= from_sequence, in order
  /// Valid frames the walk visited, kept in `frames` or not.
  std::uint64_t frames_walked = 0;
  /// Frames dropped at the first CRC/decode failure (torn tail).
  std::uint64_t corrupt_frames = 0;
  /// Sequence the next appended frame would get.
  std::uint64_t next_sequence = 0;
};

/// Reads every valid frame with sequence >= `from_sequence` from the
/// segments under `dir`. Stops at the first corrupt frame (counting it);
/// missing directory reads as an empty log. Throws std::runtime_error only
/// on environmental I/O errors (unreadable directory).
[[nodiscard]] WalReadResult read_wal(const std::filesystem::path& dir,
                                     std::uint64_t from_sequence = 0);

/// The readings of `tag` journaled under `dir` with time > `horizon`, in
/// journal order: a moved tag's middleware window, when `horizon` is the
/// last poll time minus the window length (the same strict half-open bound
/// Middleware::evict_stale keeps).
[[nodiscard]] std::vector<sim::RssiReading> wal_tag_window(
    const std::filesystem::path& dir, sim::TagId tag, sim::SimTime horizon);

/// Append-only journal writer. Plugs into the middleware as its
/// ReadingJournal (attach_journal) and additionally records engine-update
/// markers. Reopening an existing directory resumes after the valid prefix:
/// the torn tail, if any, is truncated (and counted) exactly as read_wal
/// would skip it.
class WalWriter final : public sim::ReadingJournal {
 public:
  /// Opens (or reopens) the log. When `recovered` is set, the reopen walk,
  /// the only validating pass over the retained segments, also fills it as
  /// read_wal(config.dir, from_sequence) would have read the log before the
  /// torn tail was truncated: the frames at or after `from_sequence`, the
  /// walk's frame count and the torn-frame count. Its next_sequence is this
  /// writer's next_sequence() (1 for an empty log).
  explicit WalWriter(WalConfig config, std::uint64_t from_sequence = 0,
                     WalReadResult* recovered = nullptr);

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens a group write (FramedLog::Batch): the frames appended until it
  /// commits reach the segment in one write(2).
  [[nodiscard]] FramedLog::Batch batch() noexcept {
    return FramedLog::Batch(log_);
  }

  void on_accepted(const sim::RssiReading& reading) override;
  void on_evict(sim::SimTime now) override;
  /// Journal an engine-update boundary. Call immediately BEFORE
  /// engine.update(middleware, now): recovery then replays an update the
  /// crash interrupted, instead of losing it.
  void append_update_marker(sim::SimTime now);
  /// Journal an ingest-batch ack boundary. Call AFTER every reading of the
  /// batch has been journaled: recovery then reports the highest ack marker
  /// it replayed, and the sender resends only batches past it (resends are
  /// idempotent under the middleware's last-write-wins duplicate policy).
  void append_ack_marker(std::uint64_t ack_sequence);

  /// Force an fsync of the current segment now, regardless of policy.
  void sync() { log_.sync(); }

  /// Sequence the next frame will get.
  [[nodiscard]] std::uint64_t next_sequence() const noexcept {
    return log_.next_sequence();
  }
  /// Frames appended by this writer instance.
  [[nodiscard]] std::uint64_t appended_count() const noexcept {
    return log_.appended_count();
  }
  /// Torn frames dropped from the tail when this writer (re)opened the log.
  [[nodiscard]] std::uint64_t truncated_frames() const noexcept {
    return log_.truncated_records();
  }

  /// Deletes segments whose every frame has sequence < `up_to_sequence`
  /// (safe after a checkpoint at that sequence). Returns segments removed.
  std::size_t prune(std::uint64_t up_to_sequence) {
    return log_.prune(up_to_sequence);
  }

  /// The lowest sequence a reader can still need, once `checkpoints` holds
  /// a checkpoint of this log: the lower of the oldest retained checkpoint's
  /// wal_sequence (recovery falls back to it past a corrupt newer one) and
  /// the first update marker behind which every reading frame is at or
  /// before `horizon` (so wal_tag_window with any horizon >= this one reads
  /// the same readings). 0 when no checkpoint or no such marker exists yet.
  /// Horizons passed in must not decrease. A writer reopened over a pruned
  /// log relearns the same answer from the frames it keeps.
  [[nodiscard]] std::uint64_t retention_floor(const CheckpointStore& checkpoints,
                                              sim::SimTime horizon);

  /// Registers vire_persist_wal_{appended,corrupt}_total. Pure side channel.
  void attach_metrics(obs::MetricsRegistry& registry);
  /// Emits persist.wal_fsync spans. Pass nullptr to detach.
  void attach_tracer(obs::Tracer* tracer) noexcept {
    log_.attach_tracer(tracer, "persist.wal_fsync");
  }

  [[nodiscard]] const WalConfig& config() const noexcept { return config_; }

 private:
  std::uint64_t append(FrameType type, std::string_view payload);
  /// Tracks what retention_floor() needs from each frame, appended or
  /// relearned by the reopen walk. `reading_time` matters for kReading only.
  void note(std::uint64_t sequence, FrameType type, sim::SimTime reading_time);

  /// An update marker and the latest reading time journaled before it.
  struct Mark {
    std::uint64_t sequence = 0;
    sim::SimTime latest_reading = 0.0;
  };

  WalConfig config_;
  /// Latest reading time journaled so far (-inf before any reading).
  sim::SimTime latest_reading_;
  /// One per update marker still ahead of the retention floor, in sequence
  /// order; latest_reading never decreases along it. retention_floor()
  /// trims it, so a writer whose owner never prunes keeps one per update.
  std::deque<Mark> marks_;
  /// Reused payload buffer: appending a frame allocates nothing.
  ByteWriter payload_;
  /// Constructed last: its reopen walk feeds note().
  FramedLog log_;
  obs::Counter* appended_metric_ = nullptr;
};

}  // namespace vire::persist
