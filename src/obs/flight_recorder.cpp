#include "obs/flight_recorder.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/exporters.h"

namespace vire::obs {

FlightRecorder::FlightRecorder(std::size_t capacity) : slots_(capacity) {}

void FlightRecorder::record(FixRecord rec) {
  if (slots_.empty()) return;
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  slots_[head % slots_.size()] = std::move(rec);
  head_.store(head + 1, std::memory_order_release);
}

std::size_t FlightRecorder::size() const noexcept {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(total_recorded(), slots_.size()));
}

std::vector<FixRecord> FlightRecorder::snapshot() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t count = std::min<std::uint64_t>(head, slots_.size());
  std::vector<FixRecord> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(slots_[(head - count + i) % slots_.size()]);
  }
  return out;
}

std::optional<FixRecord> FlightRecorder::last_for_tag(std::uint32_t tag) const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t count = std::min<std::uint64_t>(head, slots_.size());
  for (std::uint64_t i = 0; i < count; ++i) {
    const FixRecord& rec = slots_[(head - 1 - i) % slots_.size()];
    if (rec.tag == tag) return rec;
  }
  return std::nullopt;
}

void FlightRecorder::clear() { head_.store(0, std::memory_order_release); }

std::string_view to_string(FixQuality q) noexcept {
  switch (q) {
    case FixQuality::kOk:
      return "ok";
    case FixQuality::kDegraded:
      return "degraded";
    case FixQuality::kHold:
      return "hold";
    case FixQuality::kInvalid:
      return "invalid";
  }
  return "invalid";
}

std::string_view to_string(FixDecision d) noexcept {
  switch (d) {
    case FixDecision::kVire:
      return "vire";
    case FixDecision::kFallback:
      return "fallback";
    case FixDecision::kHold:
      return "hold";
    case FixDecision::kNone:
      return "none";
  }
  return "none";
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

/// JSON has no NaN literal; undetected readers encode as null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  return format_double(v);
}

}  // namespace

std::string to_json(const FixRecord& rec) {
  std::ostringstream out;
  out << "{\"sequence\":" << rec.sequence << ",\"time\":" << json_number(rec.time)
      << ",\"tag\":" << rec.tag << ",\"name\":\"" << json_escape(rec.name)
      << "\",\"quality\":\"" << to_string(rec.quality) << "\",\"decision\":\""
      << to_string(rec.decision) << "\",\"valid\":" << (rec.valid ? "true" : "false")
      << ",\"used_fallback\":" << (rec.used_fallback ? "true" : "false")
      << ",\"age_s\":" << json_number(rec.age_s) << ",\"position\":["
      << json_number(rec.x) << "," << json_number(rec.y) << "],\"readers\":[";
  for (std::size_t k = 0; k < rec.readers.size(); ++k) {
    out << (k == 0 ? "" : ",") << "{\"rssi_dbm\":" << json_number(rec.readers[k].rssi_dbm)
        << ",\"healthy\":" << (rec.readers[k].healthy ? "true" : "false") << "}";
  }
  out << "],\"refinement\":{\"initial_threshold_db\":"
      << json_number(rec.refinement.initial_threshold_db)
      << ",\"final_threshold_db\":" << json_number(rec.refinement.final_threshold_db)
      << ",\"steps\":" << rec.refinement.steps << ",\"survivors_per_step\":[";
  for (std::size_t i = 0; i < rec.refinement.survivors_per_step.size(); ++i) {
    out << (i == 0 ? "" : ",") << rec.refinement.survivors_per_step[i];
  }
  out << "]},\"survivor_count\":" << rec.survivor_count << ",\"clusters\":[";
  for (std::size_t i = 0; i < rec.clusters.size(); ++i) {
    out << (i == 0 ? "" : ",") << "{\"size\":" << rec.clusters[i].size
        << ",\"weight\":" << json_number(rec.clusters[i].weight) << "}";
  }
  out << "],\"stage_seconds\":{\"elimination\":"
      << json_number(rec.elimination_seconds)
      << ",\"weighting\":" << json_number(rec.weighting_seconds) << "}}";
  return out.str();
}

std::string to_json(const FlightRecorder& recorder) {
  const auto records = recorder.snapshot();
  std::ostringstream out;
  out << "{\"total_recorded\":" << recorder.total_recorded()
      << ",\"capacity\":" << recorder.capacity() << ",\"records\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    out << (i == 0 ? "" : ",") << to_json(records[i]);
  }
  out << "]}";
  return out.str();
}

std::string to_text(const FixRecord& rec) {
  std::ostringstream out;
  out << "fix #" << rec.sequence << "  tag " << rec.tag;
  if (!rec.name.empty()) out << " (" << rec.name << ")";
  out << "  t=" << format_double(rec.time) << " s\n";
  out << "  quality: " << to_string(rec.quality)
      << "  decision: " << to_string(rec.decision);
  if (rec.locate_reused) out << "  [locate reused]";
  if (rec.used_fallback) out << "  [landmarc fallback]";
  if (rec.age_s > 0.0) out << "  age " << format_double(rec.age_s) << " s";
  out << "\n  position: (" << format_double(rec.x) << ", " << format_double(rec.y)
      << ")\n  readers:\n";
  for (std::size_t k = 0; k < rec.readers.size(); ++k) {
    out << "    reader " << k << ": ";
    if (std::isnan(rec.readers[k].rssi_dbm)) {
      out << "undetected";
    } else {
      out << format_double(rec.readers[k].rssi_dbm) << " dBm";
    }
    out << (rec.readers[k].healthy ? "  healthy" : "  QUARANTINED") << "\n";
  }
  out << "  threshold refinement: " << format_double(rec.refinement.initial_threshold_db)
      << " dB -> " << format_double(rec.refinement.final_threshold_db) << " dB in "
      << rec.refinement.steps << " steps";
  if (!rec.refinement.survivors_per_step.empty()) {
    out << "  (survivors:";
    for (const std::uint64_t n : rec.refinement.survivors_per_step) out << " " << n;
    out << ")";
  }
  out << "\n  survivors: " << rec.survivor_count << " regions in "
      << rec.clusters.size() << " clusters\n";
  for (std::size_t i = 0; i < rec.clusters.size(); ++i) {
    out << "    cluster " << i << ": " << rec.clusters[i].size
        << " regions, weight " << format_double(rec.clusters[i].weight) << "\n";
  }
  out << "  stage wall time: elimination "
      << format_double(1e3 * rec.elimination_seconds) << " ms, weighting "
      << format_double(1e3 * rec.weighting_seconds) << " ms\n";
  return out.str();
}

void write_flight_dump(const FlightRecorder& recorder,
                       const std::filesystem::path& path) {
  if (path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
  }
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("write_flight_dump: cannot open " + path.string());
  }
  out << to_json(recorder) << '\n';
}

}  // namespace vire::obs
