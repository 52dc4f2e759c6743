#pragma once
// Generic segmented CRC-framed append-only log (docs/robustness.md, "Crash
// recovery"). Every on-disk journal in the repository is a format of this
// log: the reading WAL ("VWAL", src/persist/wal.h) and the supervisor's
// durable control journal ("VCJL", src/service/control_journal.h).
//
// On-disk format (all integers little-endian):
//   segment file <prefix>-<start_sequence>.log:
//     magic[4] | u32 version | u64 start_sequence        (header)
//     record*                                            (append-only)
//   record:
//     u32 payload_len | u8 type | payload | u32 crc32(type byte + payload)
//
// Records carry a 1-based global sequence (segment header start + position)
// that survives rotation. A crash can tear at most the tail of the newest
// segment: both the reader and the writer treat the first CRC failure as
// end-of-log — the reader stops there (counting the bad record), the writer
// truncates the segment at the same byte and deletes any later segments, so
// the log is again a valid prefix of history.
//
// Writes are grouped: a FramedLog::Batch collects the records appended while
// it is open and hands them to the segment in one write(2). The bytes on disk
// are those of appending the records one by one; only the number of physical
// writes changes.
//
// A failed write (short write, ENOSPC) loses its whole batch, or its lone
// append outside one: the writer takes back the sequences it handed out for
// it and, at its next append, cuts the log back to the records before it.
// So every sequence a writer has returned and not taken back names the same
// record on disk.

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "persist/binary_io.h"
#include "support/atomic_file.h"

namespace vire::persist {

enum class FsyncPolicy {
  kOff,     ///< never fsync (benches; data loss bounded only by the OS)
  kEveryN,  ///< fsync after every kFsyncEveryN appended records
};

/// Records appended between two fsyncs under FsyncPolicy::kEveryN.
inline constexpr std::uint64_t kFsyncEveryN = 64;

/// Receives one CRC-valid record of a scan; false marks it undecodable.
using RecordVisitor = std::function<bool(
    std::uint64_t sequence, std::uint8_t type, std::string_view payload)>;

/// Identity of one log family: header magic, format version, file prefix.
/// Two logs with different formats never read each other's segments.
struct FramedLogFormat {
  char magic[4] = {'V', 'L', 'O', 'G'};
  std::uint32_t version = 1;
  /// Segment files are named <file_prefix>-<%012 start_sequence>.log.
  std::string file_prefix = "log";
};

struct FramedLogConfig {
  std::filesystem::path dir;
  FramedLogFormat format;
  /// Records per segment before rotating to a new file.
  std::uint64_t segment_max_records = 8192;
  FsyncPolicy fsync = FsyncPolicy::kOff;
  /// Testing seam (fault::DiskFaultInjector); nullptr in production.
  support::IoFaultHook* fault_hook = nullptr;
  /// Optional payload validator, run on every CRC-valid record of the
  /// writer's reopen walk in sequence order: a record it rejects is treated
  /// exactly like a torn record (end-of-log). Lets typed journals extend
  /// torn-tail semantics to undecodable payloads, and relearn what they
  /// track about the records they keep.
  RecordVisitor validate;
};

struct LogRecord {
  std::uint64_t sequence = 0;  ///< 1-based global sequence
  std::uint8_t type = 0;
  std::string payload;
};

/// What a walk over a log found besides its records.
struct FramedLogScan {
  /// Records dropped at the first CRC/validate failure (torn tail).
  std::uint64_t corrupt_records = 0;
  /// Sequence the next appended record would get.
  std::uint64_t next_sequence = 0;
};

struct FramedLogReadResult : FramedLogScan {
  std::vector<LogRecord> records;  ///< sequence >= from_sequence, in order
};

/// Calls `visit(sequence, type, payload)` for every CRC-valid record of the
/// segments under `dir` that match `format`, in sequence order. A false
/// return marks that record corrupt: the walk stops there exactly as at a
/// CRC failure. A missing directory reads as an empty log. The payload view
/// is valid only during the call.
FramedLogScan scan_framed_log(const std::filesystem::path& dir,
                              const FramedLogFormat& format,
                              const RecordVisitor& visit);

/// Reads every valid record with sequence >= `from_sequence`; `validate`
/// (optional) extends the torn-tail rule to undecodable payloads.
[[nodiscard]] FramedLogReadResult read_framed_log(
    const std::filesystem::path& dir, const FramedLogFormat& format,
    std::uint64_t from_sequence = 0, const RecordVisitor& validate = {});

/// Append-only segmented writer. Reopening an existing directory resumes
/// after the valid prefix: the torn tail, if any, is truncated (and counted)
/// exactly as read_framed_log would skip it.
class FramedLog {
 public:
  /// Group write. While a Batch is open, append() encodes each record into
  /// one pending buffer; commit() hands the buffer to the segment in one
  /// physical write. A rotation or a due fsync writes the pending records
  /// first, so the file bytes and the fsync points are those of appending
  /// one by one. Outside a Batch, append() is a batch of one.
  class Batch {
   public:
    explicit Batch(FramedLog& log) noexcept : log_(&log) {
      log.batching_ = true;
      log.batch_start_ = log.sequence_;
    }
    /// Writes the records still pending when commit() was not reached (an
    /// exception is unwinding); a failure of that write is logged.
    ~Batch();

    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

    /// Closes the batch and writes its records; throws what the write throws
    /// (short write, ENOSPC), and the batch's records are then lost. Later
    /// calls do nothing.
    void commit();

   private:
    FramedLog* log_;  ///< nullptr once committed
  };

  explicit FramedLog(FramedLogConfig config);
  ~FramedLog();

  FramedLog(const FramedLog&) = delete;
  FramedLog& operator=(const FramedLog&) = delete;

  /// Appends one record; returns the global sequence it received. Inside a
  /// Batch the record reaches the file when the batch commits. A write that
  /// throws takes back the sequences of its batch (next_sequence() returns
  /// to the batch's first); the next append first cuts the log back there.
  std::uint64_t append(std::uint8_t type, std::string_view payload);

  /// Calls `visit` for each record from `from_sequence` up to
  /// next_sequence(), in order, until it returns false. Segments wholly
  /// below `from_sequence` are left unread and the records below it are
  /// stepped over by their length: this writer validated every segment it
  /// kept when it opened the log and wrote every later record itself, so
  /// nothing below the floor can end the valid prefix.
  void read_from(std::uint64_t from_sequence, const RecordVisitor& visit) const;

  /// Writes any pending records and fsyncs the current segment now,
  /// regardless of policy.
  void sync();

  /// Deletes segments whose every record has sequence < `up_to_sequence`
  /// (safe after a checkpoint covering that prefix). The open segment is
  /// never removed. Returns segments removed.
  std::size_t prune(std::uint64_t up_to_sequence);

  /// Sequence the next record will get.
  [[nodiscard]] std::uint64_t next_sequence() const noexcept { return sequence_; }
  /// Records appended by this writer instance.
  [[nodiscard]] std::uint64_t appended_count() const noexcept { return appended_; }
  /// Torn records dropped from the tail when this writer (re)opened the log.
  [[nodiscard]] std::uint64_t truncated_records() const noexcept {
    return truncated_;
  }

  /// Emits `span_name` spans (a string literal) around fsyncs. Pass nullptr
  /// to detach.
  void attach_tracer(obs::Tracer* tracer, const char* span_name) noexcept {
    tracer_ = tracer;
    fsync_span_name_ = span_name;
  }

  [[nodiscard]] const FramedLogConfig& config() const noexcept { return config_; }

 private:
  /// Makes the log end before `end_sequence`: walks it from `from_sequence`
  /// with `visit`, truncates the segment holding the end of its valid prefix
  /// there, deletes every later segment and opens the segment to append to.
  void open_log(const RecordVisitor& visit, std::uint64_t from_sequence,
                std::uint64_t end_sequence);
  /// A write failed: take back the sequences of the batch (or lone append) it
  /// belonged to and close the segment until the next append reopens it.
  void abandon_batch() noexcept;
  void open_segment(std::uint64_t start_sequence);
  void close_segment() noexcept;
  void physical_write(std::string_view buffer);
  /// One physical write of the pending records; the buffer is emptied even
  /// when the write throws.
  void write_pending();
  /// fsyncs the open segment inside a span and resets the unsynced count.
  void fsync_segment();

  FramedLogConfig config_;
  int fd_ = -1;
  ByteWriter pending_;  ///< encoded records not yet written
  bool batching_ = false;  ///< a Batch is open
  /// A write failed: the next append cuts the log back to sequence_ first.
  bool reopen_ = false;
  std::uint64_t sequence_ = 0;        ///< next record's global sequence
  /// First sequence of the open Batch, or of the append outside one.
  std::uint64_t batch_start_ = 0;
  std::uint64_t segment_records_ = 0; ///< records in the open segment
  std::uint64_t appended_ = 0;
  std::uint64_t truncated_ = 0;
  std::uint64_t unsynced_ = 0;        ///< records since the last fsync
  obs::Tracer* tracer_ = nullptr;
  const char* fsync_span_name_ = "persist.log_fsync";
};

}  // namespace vire::persist
