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

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "support/atomic_file.h"

namespace vire::persist {

enum class FsyncPolicy {
  kOff,      ///< never fsync (benches; data loss bounded only by the OS)
  kEveryN,   ///< fsync after every N appended records
  kInterval, ///< fsync when more than `fsync_interval_s` passed since the last
};

/// Payload check: false marks a CRC-valid record as undecodable.
using RecordValidator =
    std::function<bool(std::uint8_t type, std::string_view payload)>;
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
  std::uint64_t fsync_every_n = 64;
  double fsync_interval_s = 0.2;
  /// Testing seam (fault::DiskFaultInjector); nullptr in production.
  support::IoFaultHook* fault_hook = nullptr;
  /// Optional payload validator: a CRC-valid record whose payload fails this
  /// check is treated exactly like a torn record (end-of-log). Lets typed
  /// journals extend torn-tail semantics to undecodable payloads.
  RecordValidator validate;
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
    std::uint64_t from_sequence = 0, const RecordValidator& validate = {});

/// Append-only segmented writer. Reopening an existing directory resumes
/// after the valid prefix: the torn tail, if any, is truncated (and counted)
/// exactly as read_framed_log would skip it.
class FramedLog {
 public:
  explicit FramedLog(FramedLogConfig config);
  ~FramedLog();

  FramedLog(const FramedLog&) = delete;
  FramedLog& operator=(const FramedLog&) = delete;

  /// Appends one record; returns the global sequence it received.
  std::uint64_t append(std::uint8_t type, std::string_view payload);

  /// Force an fsync of the current segment now, regardless of policy.
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
  void open_segment(std::uint64_t start_sequence);
  void close_segment() noexcept;
  void physical_write(std::string buffer);
  void maybe_fsync();

  FramedLogConfig config_;
  int fd_ = -1;
  std::uint64_t sequence_ = 0;        ///< next record's global sequence
  std::uint64_t segment_records_ = 0; ///< records in the open segment
  std::uint64_t appended_ = 0;
  std::uint64_t truncated_ = 0;
  std::uint64_t unsynced_ = 0;        ///< records since the last fsync
  double last_sync_monotonic_s_ = 0.0;
  obs::Tracer* tracer_ = nullptr;
  const char* fsync_span_name_ = "persist.log_fsync";
};

}  // namespace vire::persist
