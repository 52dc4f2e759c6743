#include "persist/wal.h"

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

bool valid_payload(std::uint8_t type, std::string_view payload) {
  WalFrame frame;
  return decode_payload(type, payload, frame);
}

FramedLogConfig log_config(const WalConfig& config) {
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
  cfg.fsync_every_n = config.fsync_every_n;
  cfg.fsync_interval_s = config.fsync_interval_s;
  cfg.fault_hook = config.fault_hook;
  cfg.validate = valid_payload;
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

WalWriter::WalWriter(WalConfig config)
    : config_(std::move(config)), log_(log_config(config_)) {}

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

void WalWriter::append(FrameType type, std::string_view payload) {
  log_.append(static_cast<std::uint8_t>(type), payload);
  if (appended_metric_ != nullptr) appended_metric_->inc();
}

void WalWriter::on_accepted(const sim::RssiReading& reading) {
  ByteWriter w;
  write_reading(w, reading);
  append(FrameType::kReading, w.bytes());
}

void WalWriter::on_evict(sim::SimTime now) {
  ByteWriter w;
  w.f64(now);
  append(FrameType::kEvict, w.bytes());
}

void WalWriter::append_update_marker(sim::SimTime now) {
  ByteWriter w;
  w.f64(now);
  append(FrameType::kUpdate, w.bytes());
}

void WalWriter::append_ack_marker(std::uint64_t ack_sequence) {
  ByteWriter w;
  w.u64(ack_sequence);
  append(FrameType::kAck, w.bytes());
}

}  // namespace vire::persist
