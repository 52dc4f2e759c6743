#include "persist/framed_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "persist/binary_io.h"
#include "support/log.h"

namespace vire::persist {

namespace {

constexpr std::size_t kHeaderSize = 4 + 4 + 8;      // magic + version + start_seq
constexpr std::size_t kRecordOverhead = 4 + 1 + 4;  // len + type + crc
constexpr std::uint64_t kNoEnd = std::numeric_limits<std::uint64_t>::max();

std::filesystem::path segment_path(const std::filesystem::path& dir,
                                   const FramedLogFormat& format,
                                   std::uint64_t start_sequence) {
  char digits[24];
  std::snprintf(digits, sizeof(digits), "%012llu",
                static_cast<unsigned long long>(start_sequence));
  return dir / (format.file_prefix + "-" + digits + ".log");
}

/// Parses `<prefix>-<digits>.log`; nullopt for anything else.
std::optional<std::uint64_t> segment_start(const FramedLogFormat& format,
                                           const std::filesystem::path& path) {
  const std::string name = path.filename().string();
  const std::string prefix = format.file_prefix + "-";
  if (name.size() < prefix.size() + 5 || name.rfind(prefix, 0) != 0 ||
      name.substr(name.size() - 4) != ".log") {
    return std::nullopt;
  }
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - 4);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  return std::stoull(digits);
}

std::vector<std::pair<std::uint64_t, std::filesystem::path>> list_segments(
    const std::filesystem::path& dir, const FramedLogFormat& format) {
  std::vector<std::pair<std::uint64_t, std::filesystem::path>> segments;
  if (!std::filesystem::exists(dir)) return segments;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    if (const auto start = segment_start(format, entry.path())) {
      segments.emplace_back(*start, entry.path());
    }
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

/// Appends one record's frame to `w`.
void encode_record(ByteWriter& w, std::uint8_t type, std::string_view payload) {
  const std::size_t start = w.size();
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u8(type);
  w.raw(payload);
  w.u32(crc32(std::string_view(w.bytes()).substr(start + 4)));
}

struct SegmentScan {
  std::uint64_t start_sequence = 0;
  std::uint64_t records = 0;        ///< valid records
  std::size_t valid_bytes = 0;      ///< header + valid records
  bool corrupt_tail = false;        ///< bytes after the valid prefix
  bool at_end = false;              ///< stopped at the walk's end_sequence
};

/// Scans one segment file: validates the header, then walks records until
/// the first CRC failure, rejected record or EOF. `visit` sees each record
/// only when the header's start sequence equals `expected_start` (0 = any);
/// on a mismatch the scan stops right after the header. Records below
/// `from_sequence` are stepped over by their length, unchecked and unvisited;
/// the scan stops before `end_sequence`. Returns nullopt when the header
/// itself is unreadable (the whole segment is then treated as corrupt).
std::optional<SegmentScan> scan_segment(const std::filesystem::path& path,
                                        const FramedLogFormat& format,
                                        std::uint64_t expected_start,
                                        const RecordVisitor& visit,
                                        std::uint64_t from_sequence,
                                        std::uint64_t end_sequence) {
  const auto file = read_file(path);
  if (!file || file->size() < kHeaderSize ||
      std::memcmp(file->data(), format.magic, 4) != 0) {
    return std::nullopt;
  }
  const std::string_view data(*file);
  ByteReader header(data.substr(4, kHeaderSize - 4));
  const auto version = header.u32();
  const auto start_sequence = header.u64();
  if (!version || *version != format.version || !start_sequence) {
    return std::nullopt;
  }

  SegmentScan scan;
  scan.start_sequence = *start_sequence;
  scan.valid_bytes = kHeaderSize;
  if (expected_start != 0 && scan.start_sequence != expected_start) return scan;
  std::size_t pos = kHeaderSize;
  while (pos < data.size()) {
    if (scan.start_sequence + scan.records >= end_sequence) {
      scan.at_end = true;
      break;
    }
    if (data.size() - pos < kRecordOverhead) {
      scan.corrupt_tail = true;
      break;
    }
    const std::uint32_t payload_len = *ByteReader(data.substr(pos, 4)).u32();
    if (data.size() - pos < kRecordOverhead + payload_len) {
      scan.corrupt_tail = true;
      break;
    }
    if (scan.start_sequence + scan.records < from_sequence) {
      ++scan.records;
      pos += kRecordOverhead + payload_len;
      scan.valid_bytes = pos;
      continue;
    }
    const std::string_view checked = data.substr(pos + 4, 1 + payload_len);
    const std::uint32_t crc =
        *ByteReader(data.substr(pos + 4 + 1 + payload_len, 4)).u32();
    if (crc32(checked) != crc ||
        !visit(scan.start_sequence + scan.records,
               static_cast<std::uint8_t>(checked[0]), checked.substr(1))) {
      scan.corrupt_tail = true;
      break;
    }
    ++scan.records;
    pos += kRecordOverhead + payload_len;
    scan.valid_bytes = pos;
  }
  return scan;
}

/// A walk over a log's segments up to the end of its valid prefix.
struct LogWalk {
  FramedLogScan scan;
  std::filesystem::path last_path;   ///< segment holding the prefix's end
  std::uint64_t last_records = 0;    ///< valid records in it
  std::size_t last_valid_bytes = 0;  ///< its valid length
  bool torn = false;  ///< bytes may follow its valid length: cut there
  /// Segments wholly past the valid prefix (unreadable header, sequence
  /// gap, or anything after a torn segment).
  std::vector<std::filesystem::path> beyond;
};

/// Walks the valid prefix from `from_sequence` to `end_sequence` (scan_segment).
LogWalk walk_log(const std::filesystem::path& dir, const FramedLogFormat& format,
                 const RecordVisitor& visit, std::uint64_t from_sequence,
                 std::uint64_t end_sequence) {
  LogWalk walk;
  const auto segments = list_segments(dir, format);
  std::size_t i = 0;
  // Segment i ends where segment i + 1 starts: skip it when that is at or
  // below from_sequence.
  while (i + 1 < segments.size() && segments[i + 1].first <= from_sequence) ++i;
  for (; i < segments.size(); ++i) {
    const auto scan =
        scan_segment(segments[i].second, format, walk.scan.next_sequence, visit,
                     from_sequence, end_sequence);
    if (!scan) {
      // Unreadable header: the whole segment is one corrupt unit.
      ++walk.scan.corrupt_records;
      break;
    }
    // A gap between segments (rotation lost to a crash before any record was
    // appended is fine; missing records are not) ends the log.
    if (walk.scan.next_sequence != 0 &&
        scan->start_sequence != walk.scan.next_sequence) {
      break;
    }
    walk.scan.next_sequence = scan->start_sequence + scan->records;
    walk.last_path = segments[i].second;
    walk.last_records = scan->records;
    walk.last_valid_bytes = scan->valid_bytes;
    if (scan->corrupt_tail || scan->at_end) {
      // Sequence continuity ends at the first bad record.
      if (scan->corrupt_tail) ++walk.scan.corrupt_records;
      walk.torn = true;
      ++i;
      break;
    }
  }
  for (; i < segments.size(); ++i) walk.beyond.push_back(segments[i].second);
  return walk;
}

}  // namespace

FramedLogScan scan_framed_log(const std::filesystem::path& dir,
                              const FramedLogFormat& format,
                              const RecordVisitor& visit) {
  return walk_log(dir, format, visit, 0, kNoEnd).scan;
}

FramedLogReadResult read_framed_log(const std::filesystem::path& dir,
                                    const FramedLogFormat& format,
                                    std::uint64_t from_sequence,
                                    const RecordVisitor& validate) {
  FramedLogReadResult result;
  static_cast<FramedLogScan&>(result) = scan_framed_log(
      dir, format,
      [&](std::uint64_t sequence, std::uint8_t type, std::string_view payload) {
        if (validate && !validate(sequence, type, payload)) return false;
        if (sequence >= from_sequence) {
          result.records.push_back({sequence, type, std::string(payload)});
        }
        return true;
      });
  return result;
}

FramedLog::FramedLog(FramedLogConfig config) : config_(std::move(config)) {
  if (config_.dir.empty()) {
    throw std::invalid_argument("FramedLog: dir must be set");
  }
  if (config_.segment_max_records == 0) {
    throw std::invalid_argument("FramedLog: segment_max_records must be >= 1");
  }
  std::filesystem::create_directories(config_.dir);

  // Resume after the valid prefix of any existing log, so appended records
  // extend a log read_framed_log() fully accepts.
  open_log(
      [this](std::uint64_t sequence, std::uint8_t type, std::string_view payload) {
        return !config_.validate || config_.validate(sequence, type, payload);
      },
      0, kNoEnd);
}

void FramedLog::open_log(const RecordVisitor& visit, std::uint64_t from_sequence,
                         std::uint64_t end_sequence) {
  close_segment();
  const LogWalk walk =
      walk_log(config_.dir, config_.format, visit, from_sequence, end_sequence);
  truncated_ += walk.scan.corrupt_records;
  if (walk.torn) std::filesystem::resize_file(walk.last_path, walk.last_valid_bytes);
  for (const auto& path : walk.beyond) std::filesystem::remove(path);

  if (walk.last_path.empty()) {
    sequence_ = 1;  // sequences are 1-based; 0 = "no records"
    open_segment(sequence_);
  } else if (walk.last_records < config_.segment_max_records) {
    // Keep appending to the (now clean) last segment.
    sequence_ = walk.scan.next_sequence;
    fd_ = ::open(walk.last_path.c_str(), O_WRONLY | O_APPEND);
    if (fd_ < 0) {
      throw std::runtime_error("FramedLog: open(" + walk.last_path.string() +
                               "): " + std::strerror(errno));
    }
    segment_records_ = walk.last_records;
  } else {
    sequence_ = walk.scan.next_sequence;
    open_segment(sequence_);
  }
  reopen_ = false;
}

void FramedLog::abandon_batch() noexcept {
  const std::uint64_t lost = sequence_ - batch_start_;
  sequence_ = batch_start_;
  appended_ -= lost;
  pending_.clear();
  close_segment();
  reopen_ = true;
}

void FramedLog::read_from(std::uint64_t from_sequence,
                          const RecordVisitor& visit) const {
  (void)walk_log(config_.dir, config_.format, visit, from_sequence, sequence_);
}

FramedLog::~FramedLog() {
  if (fd_ >= 0 && config_.fsync != FsyncPolicy::kOff && unsynced_ > 0) {
    ::fsync(fd_);
  }
  close_segment();
}

void FramedLog::open_segment(std::uint64_t start_sequence) {
  close_segment();
  const std::filesystem::path path =
      segment_path(config_.dir, config_.format, start_sequence);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("FramedLog: open(" + path.string() +
                             "): " + std::strerror(errno));
  }
  ByteWriter header;
  header.raw(std::string_view(config_.format.magic, 4));
  header.u32(config_.format.version);
  header.u64(start_sequence);
  physical_write(header.bytes());
  segment_records_ = 0;
}

void FramedLog::close_segment() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void FramedLog::physical_write(std::string_view buffer) {
  std::size_t write_len = buffer.size();
  bool fail_after_write = false;
  std::string corrupted;  // the bytes a kCorruptByte fault writes instead
  if (config_.fault_hook != nullptr) {
    if (const auto fault = config_.fault_hook->on_write(buffer.size())) {
      switch (fault->kind) {
        case support::IoFaultKind::kShortWrite:
          write_len = buffer.empty() ? 0 : fault->offset % buffer.size();
          fail_after_write = true;
          break;
        case support::IoFaultKind::kEnospc:
          throw std::runtime_error("FramedLog: write: No space left on device "
                                   "(fault injected)");
        case support::IoFaultKind::kCorruptByte:
          // Silent media corruption: the append "succeeds"; only the CRC at
          // read time reveals it.
          if (!buffer.empty()) {
            corrupted.assign(buffer);
            corrupted[fault->offset % corrupted.size()] ^= 0x40;
            buffer = corrupted;
          }
          break;
      }
    }
  }
  std::size_t written = 0;
  while (written < write_len) {
    const ssize_t n = ::write(fd_, buffer.data() + written, write_len - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("FramedLog: write: ") +
                               std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  if (fail_after_write) {
    throw std::runtime_error("FramedLog: short write (fault injected)");
  }
}

void FramedLog::write_pending() {
  if (pending_.size() == 0) return;
  try {
    physical_write(pending_.bytes());
  } catch (...) {
    abandon_batch();
    throw;
  }
  pending_.clear();
}

std::uint64_t FramedLog::append(std::uint8_t type, std::string_view payload) {
  if (reopen_) {
    // Cut the log back to the records before the failed write. All of them
    // are on disk whole (see read_from): the walk checks only the last.
    open_log([](std::uint64_t, std::uint8_t, std::string_view) { return true; },
             sequence_ > 1 ? sequence_ - 1 : 0, sequence_);
    batch_start_ = std::min(batch_start_, sequence_);
  }
  if (!batching_) batch_start_ = sequence_;
  if (segment_records_ >= config_.segment_max_records) {
    write_pending();  // a record never straddles two segments
    if (config_.fsync != FsyncPolicy::kOff && unsynced_ > 0) fsync_segment();
    try {
      open_segment(sequence_);
    } catch (...) {
      abandon_batch();
      throw;
    }
  }
  encode_record(pending_, type, payload);
  if (!batching_) write_pending();
  const std::uint64_t assigned = sequence_;
  ++sequence_;
  ++segment_records_;
  ++appended_;
  ++unsynced_;
  if (config_.fsync == FsyncPolicy::kEveryN && unsynced_ >= kFsyncEveryN) {
    sync();
  }
  return assigned;
}

void FramedLog::sync() {
  write_pending();
  if (fd_ >= 0 && unsynced_ > 0) fsync_segment();
}

void FramedLog::fsync_segment() {
  const obs::TraceSpan span(tracer_, fsync_span_name_);
  if (::fsync(fd_) != 0) {
    support::log_warn("FramedLog: fsync failed: %s", std::strerror(errno));
  }
  unsynced_ = 0;
}

FramedLog::Batch::~Batch() {
  try {
    commit();
  } catch (const std::exception& e) {
    support::log_warn("FramedLog: batch write failed while unwinding: %s",
                      e.what());
  }
}

void FramedLog::Batch::commit() {
  if (log_ == nullptr) return;
  FramedLog& log = *std::exchange(log_, nullptr);
  log.batching_ = false;
  log.write_pending();
}

std::size_t FramedLog::prune(std::uint64_t up_to_sequence) {
  std::size_t removed = 0;
  const auto segments = list_segments(config_.dir, config_.format);
  // The next segment's start is this segment's end, so a segment goes only
  // when it lies wholly before the checkpoint. The open segment is the last
  // in sorted order and is never a candidate.
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i + 1].first <= up_to_sequence) {
      std::filesystem::remove(segments[i].second);
      ++removed;
    }
  }
  return removed;
}

}  // namespace vire::persist
