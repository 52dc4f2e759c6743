#pragma once
// Engine checkpoints: a versioned, CRC-protected snapshot of everything the
// localization pipeline mutates between updates (see docs/robustness.md,
// "Crash recovery"). A checkpoint plus the WAL suffix written after it is a
// complete recipe for reconstructing the crashed process bit for bit.
//
// File format (checkpoint_<wal_sequence>.ckpt, all little-endian), sealed
// with persist::seal:
//   "VCKP" magic | body | u32 crc32(body)
//   body: u32 version | u64 config_fingerprint | u64 wal_sequence
//         | f64 sim_time | engine state | middleware window | counter samples
//
// Checkpoints are written through support::atomic_write_file (temp file +
// rename), so a crash mid-write leaves the previous checkpoint intact. The
// store keeps the newest `keep` files; loading walks newest-to-oldest and
// falls back past any file whose CRC, version or config fingerprint does not
// match, counting each rejection.

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/localization_engine.h"
#include "obs/metrics.h"
#include "persist/binary_io.h"
#include "sim/middleware.h"

namespace vire::persist {

inline constexpr std::uint32_t kCheckpointVersion = 1;

/// The one binary codec of each record type. The checkpoint file format is
/// built on the state codecs; the wire layer reuses them verbatim for
/// cross-process tag migration (kExportTag/kImportTag) and reference seeding
/// (kSeedExport/kSeedImport), so exported state is byte-compatible with
/// checkpointed state. The read_* functions return false (leaving the output
/// partially written) on any structural error.
void write_engine_state(ByteWriter& w, const engine::EngineStateSnapshot& s);
bool read_engine_state(ByteReader& r, engine::EngineStateSnapshot& s);
void write_middleware_snapshot(ByteWriter& w, const sim::Middleware::Snapshot& s);
bool read_middleware_snapshot(ByteReader& r, sim::Middleware::Snapshot& s);
void write_tag_state(ByteWriter& w, const engine::TagStateSnapshot& s);
bool read_tag_state(ByteReader& r, engine::TagStateSnapshot& s);

/// One reading: f64 time | u32 tag | u16 reader | f64 rssi_dbm. The WAL's
/// kReading frame, the wire's ingest batches and the control journal's
/// kBatch op all carry it. Inline: it runs once per reading on the ingest
/// path.
inline constexpr std::size_t kReadingEncoding = 8 + 4 + 2 + 8;

inline void write_reading(ByteWriter& w, const sim::RssiReading& reading) {
  w.f64(reading.time);
  w.u32(reading.tag);
  w.u16(reading.reader);
  w.f64(reading.rssi_dbm);
}

inline bool read_reading(ByteReader& r, sim::RssiReading& out) {
  const auto time = r.f64();
  const auto tag = r.u32();
  const auto reader = r.u16();
  const auto rssi = r.f64();
  if (!r.ok()) return false;
  out = {*time, *tag, *reader, *rssi};
  return true;
}

/// Reading batch: u32 count | reading*.
inline void write_readings(ByteWriter& w,
                           std::span<const sim::RssiReading> readings) {
  w.u32(static_cast<std::uint32_t>(readings.size()));
  for (const sim::RssiReading& reading : readings) write_reading(w, reading);
}

/// Fails before reserving when the claimed count cannot fit the bytes left.
inline bool read_readings(ByteReader& r, std::vector<sim::RssiReading>& out) {
  const auto count = r.u32();
  if (!r.ok() || std::size_t{*count} * kReadingEncoding > r.remaining()) {
    return false;
  }
  out.clear();
  out.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    sim::RssiReading reading;
    if (!read_reading(r, reading)) return false;
    out.push_back(reading);
  }
  return true;
}

/// One fix: u32 tag | str name | f64 time | u8 valid | u8 quality |
/// f64 x4 (position, smoothed) | u64 survivors | u8 fallback | f64 age. The
/// wire's fix replies and the control journal's latest-fix cache carry it.
/// Smallest encoding (empty name), for bounding claimed fix counts:
inline constexpr std::size_t kMinFixEncoding = 67;

inline void write_fix(ByteWriter& w, const engine::Fix& fix) {
  w.u32(fix.tag);
  w.str(fix.name);
  w.f64(fix.time);
  w.u8(fix.valid ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(fix.quality));
  w.f64(fix.position.x);
  w.f64(fix.position.y);
  w.f64(fix.smoothed_position.x);
  w.f64(fix.smoothed_position.y);
  w.u64(fix.survivor_count);
  w.u8(fix.used_fallback ? 1 : 0);
  w.f64(fix.age_s);
}

/// False on truncation or an out-of-range flag or quality byte.
inline bool read_fix(ByteReader& r, engine::Fix& out) {
  const auto tag = r.u32();
  auto name = r.str();
  const auto time = r.f64();
  const auto valid = r.u8();
  const auto quality = r.u8();
  const auto px = r.f64();
  const auto py = r.f64();
  const auto sx = r.f64();
  const auto sy = r.f64();
  const auto survivors = r.u64();
  const auto fallback = r.u8();
  const auto age = r.f64();
  if (!r.ok()) return false;
  if (*valid > 1 || *fallback > 1 ||
      *quality > static_cast<std::uint8_t>(engine::FixQuality::kInvalid)) {
    return false;
  }
  out.tag = *tag;
  out.name = std::move(*name);
  out.time = *time;
  out.valid = *valid != 0;
  out.quality = static_cast<engine::FixQuality>(*quality);
  out.position = {*px, *py};
  out.smoothed_position = {*sx, *sy};
  out.survivor_count = static_cast<std::size_t>(*survivors);
  out.used_fallback = *fallback != 0;
  out.age_s = *age;
  return true;
}

/// Fingerprint of every EngineConfig field that affects fix values — the
/// algorithm, degradation and tracking knobs. The observability block is
/// deliberately EXCLUDED: it is a pure side channel (fixes are bit-identical
/// with tracing and the flight recorder on or off), so a checkpoint taken
/// with tracing on restores cleanly into an engine running without it.
[[nodiscard]] std::uint64_t engine_config_fingerprint(
    const engine::EngineConfig& config) noexcept;

struct Checkpoint {
  std::uint64_t config_fingerprint = 0;
  /// WAL sequence the next frame would get at snapshot time: recovery
  /// replays frames with sequence >= this.
  std::uint64_t wal_sequence = 0;
  /// Simulation time of the last completed engine update.
  sim::SimTime sim_time = 0.0;
  engine::EngineStateSnapshot engine;
  sim::Middleware::Snapshot middleware;
  /// Counter values at snapshot time; restored registry-wide on recovery so
  /// post-replay counters match the uninterrupted run.
  struct CounterSample {
    std::string name;
    std::string labels;
    std::uint64_t value = 0;
  };
  std::vector<CounterSample> counters;
};

/// Body + magic + CRC, ready for atomic_write_file.
[[nodiscard]] std::string serialize(const Checkpoint& checkpoint);
/// nullopt when the magic, CRC, version or structure is invalid.
[[nodiscard]] std::optional<Checkpoint> deserialize(std::string_view data);

/// Every counter currently in `registry`, in registration order.
[[nodiscard]] std::vector<Checkpoint::CounterSample> sample_counters(
    const obs::MetricsRegistry& registry);
/// Raises each named counter to its sampled value (counters are monotonic —
/// a current value above the sample is left alone, with a warning).
void restore_counters(obs::MetricsRegistry& registry,
                      const std::vector<Checkpoint::CounterSample>& samples);

struct CheckpointStoreConfig {
  std::filesystem::path dir;
  /// Newest checkpoints kept on disk; older ones are pruned after a write.
  std::size_t keep = 3;
};

class CheckpointStore {
 public:
  explicit CheckpointStore(CheckpointStoreConfig config);

  /// Serializes and atomically writes checkpoint_<wal_sequence>.ckpt, then
  /// prunes beyond `keep`. Throws std::runtime_error when every write
  /// attempt fails (the previous checkpoint file is untouched either way).
  void write(const Checkpoint& checkpoint);

  struct LoadResult {
    std::optional<Checkpoint> checkpoint;  ///< newest valid, if any
    std::uint64_t rejected = 0;  ///< files skipped (CRC/version/config mismatch)
  };
  /// Walks checkpoints newest-to-oldest and returns the first that
  /// deserializes AND matches `expected_config_fingerprint`. Never throws on
  /// bad files — that is the fallback path working as designed.
  [[nodiscard]] LoadResult load_newest_valid(
      std::uint64_t expected_config_fingerprint) const;

  /// Sequences present on disk, oldest first (diagnostics/tests).
  [[nodiscard]] std::vector<std::uint64_t> stored_sequences() const;

  /// Registers vire_persist_checkpoint_{written,loaded,rejected}_total.
  void attach_metrics(obs::MetricsRegistry& registry);

  [[nodiscard]] const CheckpointStoreConfig& config() const noexcept {
    return config_;
  }

 private:
  CheckpointStoreConfig config_;
  obs::Counter* written_metric_ = nullptr;
  obs::Counter* loaded_metric_ = nullptr;
  obs::Counter* rejected_metric_ = nullptr;
};

}  // namespace vire::persist
