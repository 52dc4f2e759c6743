#pragma once
// Flight recorder: full provenance for the last N localization fixes, so a
// bad fix can be *explained* after the fact — which readers contributed and
// whether they were healthy, how the adaptive threshold refinement walked
// down, which clusters survived with what weight, and which rung of the
// degradation ladder produced the answer. The aggregate metrics
// (obs/metrics.h) say *that* quality dropped; the recorder says *why this
// fix*.
//
// Concurrency contract: the ring is lock-free in the Perfetto sense — a
// fixed array of slots published through one atomic sequence counter, no
// mutex, no allocation on overwrite. It is single-writer by design: the
// engine records in its serial merge phase (the same rule its metrics
// follow, preserving worker-count bit-identity), and snapshots are taken
// from the pipeline thread between updates. Cross-thread snapshotting while
// a record() is in flight is not supported.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace vire::obs {

/// Confidence ladder of a fix, from best to worst (engine::FixQuality names
/// this type; docs/robustness.md). kOk and kDegraded carry a fresh position;
/// kHold re-serves the last good one; kInvalid has no usable position.
enum class FixQuality {
  kOk,        ///< all readers healthy, full VIRE estimate
  kDegraded,  ///< produced while readers were quarantined (VIRE subset or fallback)
  kHold,      ///< last good fix re-served within the staleness cap
  kInvalid,   ///< nothing usable (and no recent fix to hold)
};

/// Which rung of the degradation ladder answered a fix.
enum class FixDecision { kVire, kFallback, kHold, kNone };

/// "ok" / "degraded" / "hold" / "invalid".
[[nodiscard]] std::string_view to_string(FixQuality q) noexcept;
/// "vire" / "fallback" / "hold" / "none".
[[nodiscard]] std::string_view to_string(FixDecision d) noexcept;

/// One reader's contribution to a fix: the (health-masked) RSSI it reported
/// for the tag and the health monitor's verdict at that update.
struct ReaderObservation {
  double rssi_dbm = 0.0;  ///< NaN = undetected or quarantined-and-masked
  bool healthy = true;
};

/// The adaptive threshold-reduction walk of one locate (paper Sec. 4.3).
struct RefinementPath {
  double initial_threshold_db = 0.0;
  double final_threshold_db = 0.0;
  int steps = 0;
  /// Surviving-region count after the initial pass, then after each
  /// accepted reduction step (size == steps + 1 when a VIRE result exists).
  std::vector<std::uint64_t> survivors_per_step;
};

/// One surviving 4-connected cluster: its region count and the summed
/// normalised weight its regions contributed to the centroid.
struct ClusterInfo {
  std::uint64_t size = 0;
  double weight = 0.0;
};

/// Full provenance of one fix.
struct FixRecord {
  std::uint64_t sequence = 0;  ///< monotone per engine, across updates
  double time = 0.0;           ///< engine update time (sim seconds)
  std::uint32_t tag = 0;
  std::string name;
  FixQuality quality = FixQuality::kInvalid;
  FixDecision decision = FixDecision::kNone;
  bool valid = false;
  /// The VIRE locate was answered from the tag's memo (same grid, same RSSI
  /// bits as its previous locate); its stage seconds are then 0.
  bool locate_reused = false;
  bool used_fallback = false;
  double age_s = 0.0;  ///< staleness of a held fix
  double x = 0.0, y = 0.0;
  std::vector<ReaderObservation> readers;
  RefinementPath refinement;
  std::uint64_t survivor_count = 0;
  std::vector<ClusterInfo> clusters;
  double elimination_seconds = 0.0;
  double weighting_seconds = 0.0;
};

class FlightRecorder {
 public:
  /// @param capacity fixes retained; 0 disables recording entirely
  ///        (record() becomes a no-op).
  explicit FlightRecorder(std::size_t capacity = 256);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends one record, overwriting the oldest when full. Single-writer —
  /// see the file comment.
  void record(FixRecord rec);

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t size() const noexcept;
  /// Records ever written (including overwritten ones).
  [[nodiscard]] std::uint64_t total_recorded() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  /// Retained records, oldest first.
  [[nodiscard]] std::vector<FixRecord> snapshot() const;
  /// Most recent retained record for `tag` (nullopt if none).
  [[nodiscard]] std::optional<FixRecord> last_for_tag(std::uint32_t tag) const;
  void clear();

 private:
  std::vector<FixRecord> slots_;
  std::atomic<std::uint64_t> head_{0};
};

/// JSON document for one record (all provenance fields, round-trip doubles;
/// NaN RSSI encodes as null).
[[nodiscard]] std::string to_json(const FixRecord& rec);
/// {"records":[...]} over the retained records, oldest first.
[[nodiscard]] std::string to_json(const FlightRecorder& recorder);
/// Human-readable multi-line rendering (the `explain_fix` output).
[[nodiscard]] std::string to_text(const FixRecord& rec);

/// Writes to_json(recorder) to `path`, creating parent directories. Throws
/// std::runtime_error on I/O failure.
void write_flight_dump(const FlightRecorder& recorder,
                       const std::filesystem::path& path);

}  // namespace vire::obs
