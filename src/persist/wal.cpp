#include "persist/wal.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "persist/checkpoint.h"

namespace vire::persist {

namespace {

FramedLogFormat wal_format() { return {{'V', 'W', 'A', 'L'}, kWalVersion, "wal"}; }

/// Decodes one frame's payload; false for an unknown type or a payload of
/// the wrong shape (the frame then counts as a torn tail).
bool decode_payload(std::uint8_t type, std::string_view payload, WalFrame& frame) {
  ByteReader r(payload);
  frame.type = static_cast<FrameType>(type);
  switch (frame.type) {
    case FrameType::kReading:
      return read_reading(r, frame.reading) && r.exhausted();
    case FrameType::kEvict:
    case FrameType::kUpdate: {
      const auto now = r.f64();
      if (!r.exhausted()) return false;
      frame.time = *now;
      return true;
    }
    case FrameType::kAck: {
      const auto ack = r.u64();
      if (!r.exhausted()) return false;
      frame.ack_sequence = *ack;
      return true;
    }
  }
  return false;
}

FramedLogConfig log_config(const WalConfig& config, RecordVisitor validate) {
  if (config.dir.empty()) {
    throw std::invalid_argument("WalWriter: dir must be set");
  }
  if (config.segment_max_frames == 0) {
    throw std::invalid_argument("WalWriter: segment_max_frames must be >= 1");
  }
  FramedLogConfig cfg;
  cfg.dir = config.dir;
  cfg.format = wal_format();
  cfg.segment_max_records = config.segment_max_frames;
  cfg.fsync = config.fsync;
  cfg.fault_hook = config.fault_hook;
  cfg.validate = std::move(validate);
  return cfg;
}

}  // namespace

WalReadResult read_wal(const std::filesystem::path& dir,
                       std::uint64_t from_sequence) {
  WalReadResult result;
  const FramedLogScan scan = scan_framed_log(
      dir, wal_format(),
      [&](std::uint64_t sequence, std::uint8_t type, std::string_view payload) {
        WalFrame frame;
        frame.sequence = sequence;
        if (!decode_payload(type, payload, frame)) return false;
        ++result.frames_walked;
        if (sequence >= from_sequence) result.frames.push_back(frame);
        return true;
      });
  result.corrupt_frames = scan.corrupt_records;
  result.next_sequence = scan.next_sequence;
  return result;
}

std::vector<sim::RssiReading> wal_tag_window(const std::filesystem::path& dir,
                                             sim::TagId tag,
                                             sim::SimTime horizon) {
  std::vector<sim::RssiReading> readings;
  for (const WalFrame& frame : read_wal(dir).frames) {
    if (frame.type == FrameType::kReading && frame.reading.tag == tag &&
        frame.reading.time > horizon) {
      readings.push_back(frame.reading);
    }
  }
  return readings;
}

WalWriter::WalWriter(WalConfig config, std::uint64_t from_sequence,
                     WalReadResult* recovered)
    : config_(std::move(config)),
      latest_reading_(-std::numeric_limits<double>::infinity()),
      // The visitor runs only during the reopen walk in log_'s constructor.
      log_(log_config(config_, [this, from_sequence, recovered](
                                   std::uint64_t sequence, std::uint8_t type,
                                   std::string_view payload) {
        WalFrame frame;
        if (!decode_payload(type, payload, frame)) return false;
        note(sequence, frame.type, frame.reading.time);
        if (recovered != nullptr) {
          ++recovered->frames_walked;
          if (sequence >= from_sequence) {
            frame.sequence = sequence;
            recovered->frames.push_back(frame);
          }
        }
        return true;
      })) {
  if (recovered != nullptr) {
    recovered->corrupt_frames = truncated_frames();
    recovered->next_sequence = next_sequence();
  }
}

void WalWriter::note(std::uint64_t sequence, FrameType type,
                     sim::SimTime reading_time) {
  if (type == FrameType::kReading) {
    latest_reading_ = std::max(latest_reading_, reading_time);
  } else if (type == FrameType::kUpdate) {
    marks_.push_back({sequence, latest_reading_});
  }
}

std::uint64_t WalWriter::retention_floor(const CheckpointStore& checkpoints,
                                         sim::SimTime horizon) {
  const std::vector<std::uint64_t> stored = checkpoints.stored_sequences();
  if (stored.empty()) return 0;
  // The marks at or before the horizon are a prefix of marks_; the last of
  // them is the answer, and the horizon only grows, so the rest can go.
  while (marks_.size() > 1 && marks_[1].latest_reading <= horizon) {
    marks_.pop_front();
  }
  if (marks_.empty() || marks_.front().latest_reading > horizon) return 0;
  return std::min(stored.front(), marks_.front().sequence);
}

void WalWriter::attach_metrics(obs::MetricsRegistry& registry) {
  appended_metric_ =
      &registry.counter("vire_persist_wal_appended_total", {},
                        "Frames appended to the write-ahead journal");
  appended_metric_->inc(appended_count());
  registry
      .counter("vire_persist_wal_corrupt_total", {},
               "Torn/corrupt WAL frames dropped (truncated at open or skipped "
               "at read)")
      .inc(truncated_frames());
}

std::uint64_t WalWriter::append(FrameType type, std::string_view payload) {
  const std::uint64_t sequence =
      log_.append(static_cast<std::uint8_t>(type), payload);
  if (appended_metric_ != nullptr) appended_metric_->inc();
  return sequence;
}

void WalWriter::on_accepted(const sim::RssiReading& reading) {
  payload_.clear();
  write_reading(payload_, reading);
  note(append(FrameType::kReading, payload_.bytes()), FrameType::kReading,
       reading.time);
}

void WalWriter::on_evict(sim::SimTime now) {
  payload_.clear();
  payload_.f64(now);
  append(FrameType::kEvict, payload_.bytes());
}

void WalWriter::append_update_marker(sim::SimTime now) {
  payload_.clear();
  payload_.f64(now);
  note(append(FrameType::kUpdate, payload_.bytes()), FrameType::kUpdate, now);
}

void WalWriter::append_ack_marker(std::uint64_t ack_sequence) {
  payload_.clear();
  payload_.u64(ack_sequence);
  append(FrameType::kAck, payload_.bytes());
}

}  // namespace vire::persist
