#pragma once
// HealthMonitor: per-reader health scoring for the localization engine.
//
// VIRE implicitly assumes all K readers deliver a fresh, trustworthy RSSI
// field. In deployment, readers die, feed stale caches, or return corrupted
// values — and an unhealthy reader poisons the whole pipeline, because the
// elimination step intersects its proximity map with everyone else's. The
// monitor watches each reader's view of the REFERENCE tags (whose readings
// are dense and always-on, so they double as per-reader health probes —
// the same trick the paper uses them for calibration) and quarantines
// readers that fail either check:
//
//   * coverage — the fraction of reference tags the reader currently hears
//     drops below `min_valid_fraction` (outage, severe packet loss);
//   * disturbance — the median absolute change of its reference readings
//     between consecutive assessments exceeds `max_median_jump_db` (bias
//     steps, spike bursts; a physical field never moves every reference
//     link by 10+ dB at once);
//   * staleness — its reference readings have not changed for
//     `stale_after_s` while time advanced (frozen cache / stuck pipeline).
//
// Hysteresis (quarantine_after / recover_after consecutive assessments)
// keeps single noisy windows from flapping the mask. Everything is a pure
// function of the reading history, so assessments are deterministic.

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "sim/types.h"

namespace vire::engine {

struct HealthConfig {
  bool enabled = true;
  /// A reader hearing fewer than this fraction of the reference tags is
  /// suspect (coverage check).
  double min_valid_fraction = 0.5;
  /// Median |delta| of a reader's reference readings between consecutive
  /// assessments above this is suspect (disturbance check).
  double max_median_jump_db = 10.0;
  /// Reference readings unchanged for longer than this while time advances
  /// mark the reader suspect (staleness check). <= 0 disables the check.
  double stale_after_s = 60.0;
  /// Consecutive suspect assessments before quarantine.
  int quarantine_after = 2;
  /// Consecutive clean assessments before a quarantined reader recovers.
  int recover_after = 2;
};

enum class ReaderHealth { kHealthy, kQuarantined };

/// The monitor's complete mutable state, for engine checkpoints
/// (src/persist/). Restoring it into a monitor with the same reader count
/// and config reproduces every subsequent assessment bit for bit — the
/// hysteresis streaks, staleness clocks and last-seen readings all resume
/// exactly where the checkpointed process left them.
struct HealthMonitorState {
  struct Reader {
    bool quarantined = false;
    int suspect_streak = 0;
    int clean_streak = 0;
    std::vector<double> last_rssi;
    sim::SimTime last_change = 0.0;
    bool seen = false;
  };
  std::vector<Reader> readers;
  std::uint64_t quarantines = 0;
  std::uint64_t recoveries = 0;
};

class HealthMonitor {
 public:
  HealthMonitor(int reader_count, HealthConfig config = {});

  /// One assessment from the current reference readings (row-major over
  /// reference tags, one K-entry RssiVector each — the same snapshot the
  /// engine feeds the virtual grid). `now` is the engine update time.
  void assess(const std::vector<sim::RssiVector>& reference_rssi, sim::SimTime now);

  /// true = reader usable. All-true until assess() finds problems (and
  /// always all-true when disabled).
  [[nodiscard]] const std::vector<bool>& healthy_mask() const noexcept {
    return healthy_mask_;
  }
  [[nodiscard]] int healthy_count() const noexcept;
  [[nodiscard]] bool all_healthy() const noexcept;
  [[nodiscard]] ReaderHealth status(int reader) const {
    return status_.at(static_cast<std::size_t>(reader));
  }
  /// Did the last assess() change the mask? The engine forces a virtual-grid
  /// rebuild when it did, so quarantined readers leave the grid immediately.
  [[nodiscard]] bool mask_changed() const noexcept { return mask_changed_; }
  [[nodiscard]] int reader_count() const noexcept {
    return static_cast<int>(status_.size());
  }
  [[nodiscard]] std::uint64_t quarantine_count() const noexcept { return quarantines_; }
  [[nodiscard]] std::uint64_t recovery_count() const noexcept { return recoveries_; }
  [[nodiscard]] const HealthConfig& config() const noexcept { return config_; }

  /// Registers per-reader status gauges (vire_health_reader_healthy),
  /// quarantine/recovery counters and the healthy-reader gauge. Registry
  /// must outlive the monitor. Pure side channel.
  void attach_metrics(obs::MetricsRegistry& registry);

  /// Checkpoint support: export / reinstate the full mutable state.
  /// restore() throws if the snapshot's reader count differs; it republishes
  /// gauges but never bumps the quarantine/recovery *counters* — the
  /// persistence layer restores registry counters itself, so restoring here
  /// too would double-count.
  [[nodiscard]] HealthMonitorState snapshot() const;
  void restore(const HealthMonitorState& snapshot);

 private:
  struct ReaderState {
    ReaderHealth status = ReaderHealth::kHealthy;
    int suspect_streak = 0;
    int clean_streak = 0;
    /// Last seen reference readings of this reader (one per reference tag).
    std::vector<double> last_rssi;
    /// Last time this reader's readings changed (staleness clock).
    sim::SimTime last_change = 0.0;
    bool seen = false;
  };

  [[nodiscard]] bool is_suspect(int reader,
                                const std::vector<sim::RssiVector>& reference_rssi,
                                sim::SimTime now);
  void publish_metrics();

  HealthConfig config_;
  std::vector<ReaderHealth> status_;
  std::vector<ReaderState> state_;
  std::vector<bool> healthy_mask_;
  bool mask_changed_ = false;
  std::uint64_t quarantines_ = 0;
  std::uint64_t recoveries_ = 0;

  std::vector<obs::Gauge*> reader_gauges_;
  obs::Counter* quarantines_metric_ = nullptr;
  obs::Counter* recoveries_metric_ = nullptr;
  obs::Gauge* healthy_gauge_ = nullptr;
};

}  // namespace vire::engine
