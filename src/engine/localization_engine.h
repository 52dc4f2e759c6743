#pragma once
// LocalizationEngine: the application layer a deployment actually runs.
//
// The paper's system architecture is readers -> central server -> location
// estimates. This engine is that server's core loop: it owns the localizer,
// refreshes the virtual reference grid from the middleware's current
// reference readings (rate-limited — the paper notes the proximity map is
// "updated if the RSSI reading of a real reference tag is changed"),
// localizes every registered tracking tag, and maintains a smoothed track
// per tag. Consumers poll `update()` and get a list of fixes.
//
// Graceful degradation (see docs/robustness.md): a per-reader HealthMonitor
// scores every reader against the reference field and quarantines unhealthy
// ones; localization then runs over the healthy subset only. When the
// healthy subset is too small for VIRE's quorum the engine falls back to
// LANDMARC-style k-NN over the real reference tags, and when even that
// fails it holds the last good fix for a bounded time. Every fix carries a
// FixQuality level so consumers can tell a confident estimate from a
// degraded or held one.
//
// Concurrency: an engine is serial and owned by one thread. A fleet scales
// by giving each shard process its own engine (docs/service.md); the
// Supervisor's merged polls are bit-identical to one engine fed the whole
// stream (tests/service/shard_equivalence_test.cpp). update() runs in three
// phases (snapshot the batch in tag order, locate every tag, merge in tag
// order) so the stage="locate" histogram and the engine.locate span time the
// locates alone. A tag whose RSSI bits and virtual grid are unchanged since
// its last locate reuses it (docs/algorithm.md, "Reused locates").

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/tracking_filter.h"
#include "core/vire_localizer.h"
#include "engine/health_monitor.h"
#include "env/deployment.h"
#include "landmarc/landmarc.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/middleware.h"

namespace vire::engine {

/// How the engine degrades when readers fail (see docs/robustness.md).
struct DegradationConfig {
  /// Per-reader health scoring; disable for the strict paper pipeline.
  HealthConfig health;
  /// When quarantines shrink the healthy set below `min_valid_readers`,
  /// localize with LANDMARC k-NN over the real reference tags instead of
  /// dropping the tag. Engages only while at least one reader is
  /// quarantined — a tag that is simply out of range with a healthy reader
  /// fleet still reports invalid, as before.
  bool enable_fallback = true;
  landmarc::LandmarcConfig fallback;
  /// Minimum healthy readers with valid readings for the fallback path.
  int fallback_min_readers = 2;
  /// When neither VIRE nor the fallback produces a position, re-emit the
  /// tag's last good fix as quality kHold for at most this long (seconds);
  /// 0 disables holding and such tags go straight to kInvalid.
  double hold_max_age_s = 20.0;
};

/// Tracing + flight-recorder knobs (see docs/observability.md). Both are
/// pure side channels: fixes are bit-identical with them on or off.
struct ObservabilityConfig {
  /// Start the span tracer enabled. It can be toggled at runtime through
  /// tracer().set_enabled(); disabled tracing costs one relaxed atomic load
  /// per instrumentation point.
  bool enable_tracing = false;
  /// Trace ring capacity in events (oldest events are overwritten).
  std::size_t trace_capacity = 65536;
  /// Fixes retained by the flight recorder; 0 disables provenance capture.
  std::size_t flight_recorder_fixes = 256;
  /// update() latency SLO (seconds); an update slower than this triggers an
  /// anomaly dump. 0 disables the latency trigger.
  double update_latency_slo_s = 0.0;
  /// Where anomaly-triggered dumps land (trace + flight JSON per anomaly).
  /// The default is cwd-relative, so deployments running several engines
  /// from one working directory (e.g. supervised vire_shardd fleets) must
  /// point each process somewhere unique — vire_shardd defaults this to
  /// `<data-dir>/obs`.
  std::filesystem::path anomaly_dump_dir = "obs_out";
  /// Anomaly dumps are capped per engine lifetime so a flapping reader
  /// cannot fill the disk; 0 disables auto-dumping entirely.
  int max_auto_dumps = 4;
};

struct EngineConfig {
  core::VireConfig vire = core::recommended_vire_config();
  core::TrackingFilterConfig tracking;
  bool enable_tracking = true;
  /// The virtual grid is rebuilt from fresh reference readings at most this
  /// often (seconds). 0 rebuilds on every update. Independent of the rate
  /// limit, a rebuild is skipped entirely when the reference readings are
  /// unchanged since the last one (the paper's "updated if the RSSI reading
  /// of a real reference tag is changed"), and forced whenever the health
  /// mask changes so quarantined readers leave the grid immediately.
  double min_refresh_interval_s = 10.0;
  /// A tag whose RSSI vector has fewer than this many valid healthy readers
  /// is not localized with VIRE (the fallback/hold ladder takes over).
  int min_valid_readers = 3;
  DegradationConfig degradation;
  ObservabilityConfig observability;
};

/// Confidence ladder of a Fix, from best to worst. kOk and kDegraded carry a
/// fresh position (valid == true); kHold re-serves the last good position;
/// kInvalid has no usable position (the coordinates are the default origin,
/// never NaN — check quality/valid, not the numbers). The flight recorder
/// stores the same type, so the enum lives in obs/flight_recorder.h.
using FixQuality = obs::FixQuality;
using obs::to_string;

/// The engine's complete mutable state, for crash-safe checkpoints
/// (src/persist/). Everything update() reads or writes across calls is here:
/// restoring a snapshot into an engine built from the same deployment and
/// config reproduces every subsequent fix bit for bit.
/// Maps are flattened to sorted vectors so serialization is deterministic.
struct EngineStateSnapshot {
  std::vector<sim::TagId> reference_ids;
  /// (tag id, display name), in tag order.
  std::vector<std::pair<sim::TagId, std::string>> tracked;
  HealthMonitorState health;
  bool has_last_refresh = false;
  sim::SimTime last_refresh = 0.0;
  /// Post-mask reference readings behind the current virtual grid; restore()
  /// rebuilds the grid from these when grid_rebuilds > 0, so the unchanged-
  /// readings rebuild skip behaves exactly as in the uninterrupted run.
  std::vector<sim::RssiVector> last_reference_rssi;
  int grid_rebuilds = 0;
  std::uint64_t fix_sequence = 0;
  int auto_dumps = 0;
  struct Tracker {
    sim::TagId tag = 0;
    core::TrackingFilterState state;
  };
  std::vector<Tracker> trackers;
  struct Hold {
    sim::TagId tag = 0;
    sim::SimTime time = 0.0;
    geom::Vec2 position;
    geom::Vec2 smoothed;
  };
  std::vector<Hold> last_good;
  struct Quality {
    sim::TagId tag = 0;
    FixQuality quality = FixQuality::kInvalid;
  };
  std::vector<Quality> last_quality;
};

/// One tracked tag's complete per-tag state, for migrating a tag between
/// engines (the sharded service's rebalancing, src/service/). Everything
/// update() keeps per tag is here; exporting from one engine and importing
/// into another — together with replaying the tag's reading window through
/// the destination middleware — reproduces the tag's subsequent fixes bit
/// for bit, exactly as if it had always lived on the destination.
struct TagStateSnapshot {
  std::string name;
  bool has_tracker = false;
  core::TrackingFilterState tracker;
  bool has_last_good = false;
  sim::SimTime last_good_time = 0.0;
  geom::Vec2 last_good_position;
  geom::Vec2 last_good_smoothed;
  bool has_last_quality = false;
  FixQuality last_quality = FixQuality::kInvalid;
};

/// One localization result for one tracked tag.
struct Fix {
  sim::TagId tag = 0;
  std::string name;
  sim::SimTime time = 0.0;
  /// True iff this update produced a fresh position (quality kOk/kDegraded).
  bool valid = false;
  FixQuality quality = FixQuality::kInvalid;
  geom::Vec2 position;          ///< raw estimate (last good one for kHold)
  geom::Vec2 smoothed_position; ///< track-filtered (== position if disabled)
  std::size_t survivor_count = 0;
  /// True when the LANDMARC k-NN fallback produced the position.
  bool used_fallback = false;
  /// Age of the underlying estimate: 0 for fresh fixes, time since the last
  /// good fix for kHold.
  double age_s = 0.0;
};

class LocalizationEngine {
 public:
  LocalizationEngine(const env::Deployment& deployment, EngineConfig config = {});

  /// Declares which middleware tag ids are the reference tags, in the
  /// deployment's row-major grid order (e.g. the ids returned by
  /// RfidSimulator::add_reference_tags()).
  void set_reference_ids(std::vector<sim::TagId> ids);

  /// Registers a tag to be localized on every update.
  void track(sim::TagId id, std::string name = {});
  void untrack(sim::TagId id);

  /// Migration support (see TagStateSnapshot): the complete per-tag state of
  /// one tracked tag, or nullopt when the tag is not tracked here.
  [[nodiscard]] std::optional<TagStateSnapshot> export_tag(sim::TagId id) const;
  /// Registers `id` (as by track()) and reinstates its exported state. An
  /// existing tag's state is replaced.
  void import_tag(sim::TagId id, const TagStateSnapshot& state);
  [[nodiscard]] std::size_t tracked_count() const noexcept { return tags_.size(); }

  /// Pulls reference + tracking readings from the middleware at time `now`,
  /// assessing reader health, refreshing the virtual grid if due, and
  /// returns one Fix per tracked tag. Throws std::logic_error if reference
  /// ids were never set.
  std::vector<Fix> update(const sim::Middleware& middleware, sim::SimTime now);

  /// The smoothed track of a tag (nullptr if not tracked / no fix yet).
  [[nodiscard]] const core::TrackingFilter* tracker(sim::TagId id) const;

  /// Diagnostics: how many times the virtual grid has been rebuilt.
  [[nodiscard]] int grid_rebuilds() const noexcept { return grid_rebuilds_; }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

  /// The per-reader health monitor driving the degradation ladder.
  [[nodiscard]] const HealthMonitor& health() const noexcept { return health_; }

  /// The engine's metrics registry (counters, stage timers, distributions —
  /// see docs/observability.md for the catalog). Always populated; callers
  /// export it with obs::to_prometheus()/obs::to_json(). Other components
  /// (e.g. the middleware) may register their metrics here too, so one
  /// export covers the whole pipeline. Instrumentation is a pure side
  /// channel: fixes are bit-identical with or without consumers reading it.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }

  /// The pipeline span tracer (Chrome trace-event JSON; see
  /// docs/observability.md). Always constructed; starts enabled iff
  /// ObservabilityConfig::enable_tracing. Other components plug into the
  /// same timeline via their attach_tracer() (middleware, fault injector).
  [[nodiscard]] obs::Tracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] const obs::Tracer& tracer() const noexcept { return tracer_; }

  /// Full provenance of the last N fixes (N =
  /// ObservabilityConfig::flight_recorder_fixes; empty when 0).
  [[nodiscard]] const obs::FlightRecorder& flight_recorder() const noexcept {
    return recorder_;
  }

  /// Writes `<stem>_trace.json` (Chrome trace-event) and `<stem>_flight.json`
  /// (flight-recorder dump) under `dir`, creating it if needed, and returns
  /// the two paths. Throws std::runtime_error on I/O failure. The anomaly
  /// auto-dump calls this with stem "anomaly_<n>" (failures there are logged,
  /// never thrown into update()).
  std::pair<std::filesystem::path, std::filesystem::path> dump_provenance(
      const std::filesystem::path& dir, const std::string& stem = "vire") const;

  /// Anomaly dumps written so far (capped at max_auto_dumps).
  [[nodiscard]] int auto_dump_count() const noexcept { return auto_dumps_; }

  /// Reference tag ids as declared with set_reference_ids() (empty before).
  [[nodiscard]] const std::vector<sim::TagId>& reference_ids() const noexcept {
    return reference_ids_;
  }

  /// Checkpoint support: export / reinstate the full mutable state.
  /// restore() rebuilds the virtual grid from the snapshot's reference
  /// readings (when one existed) WITHOUT bumping the rebuild metrics — the
  /// persistence layer restores registry counters separately, and a restored
  /// engine must count exactly like the uninterrupted one. Throws
  /// std::invalid_argument when the snapshot is structurally incompatible
  /// (reference/reader counts differ from this engine's deployment).
  [[nodiscard]] EngineStateSnapshot snapshot() const;
  void restore(const EngineStateSnapshot& snapshot);

 private:
  void refresh_references(const std::vector<sim::RssiVector>& reference_rssi,
                          sim::SimTime now, bool force);
  [[nodiscard]] obs::Counter* quality_counter(FixQuality q) const noexcept;

  /// Pointers into metrics_ for the hot path (registered at construction).
  struct Instruments {
    obs::Counter* updates = nullptr;
    obs::Counter* fixes_valid = nullptr;
    obs::Counter* fixes_invalid = nullptr;
    obs::Counter* fixes_quality[4] = {nullptr, nullptr, nullptr, nullptr};
    obs::Counter* fallback_locates = nullptr;
    obs::Counter* locates_reused = nullptr;
    obs::Counter* grid_rebuilds = nullptr;
    obs::Counter* grid_partial_rebuilds = nullptr;
    obs::Counter* grid_skips_rate_limited = nullptr;
    obs::Counter* grid_skips_unchanged = nullptr;
    obs::Histogram* grid_rebuild_planes = nullptr;
    obs::Histogram* update_seconds = nullptr;
    obs::Histogram* degraded_update_seconds = nullptr;
    obs::Histogram* stage_interpolation = nullptr;
    obs::Histogram* stage_elimination = nullptr;
    obs::Histogram* stage_weighting = nullptr;
    obs::Histogram* stage_locate = nullptr;
    obs::Histogram* survivors = nullptr;
    obs::Histogram* refinement_steps = nullptr;
    obs::Counter* anomaly_quality = nullptr;
    obs::Counter* anomaly_latency = nullptr;
  };

  /// Last fresh (kOk/kDegraded) estimate per tag, for the bounded hold.
  struct LastGood {
    sim::SimTime time = 0.0;
    geom::Vec2 position;
    geom::Vec2 smoothed;
  };

  /// Everything the engine keeps for one tracked tag.
  struct TagState {
    sim::TagId id = 0;
    std::string name;
    /// Created by the tag's first valid fix (when tracking is enabled).
    std::optional<core::TrackingFilter> tracker;
    std::optional<LastGood> last_good;
    /// Previous update's quality, for the quality-transition anomaly trigger
    /// (a tag leaving kOk).
    std::optional<FixQuality> last_quality;
    /// Locate memo (docs/algorithm.md, "Reused locates"). `rssi` is the
    /// post-mask vector of the tag's latest update; when memo_generation is
    /// nonzero, `located` is what locate_summary(rssi) returned on grid
    /// generation memo_generation. Never checkpointed: a restored, imported
    /// or re-tracked tag starts empty and recomputes the same fix.
    sim::RssiVector rssi;
    std::uint64_t memo_generation = 0;
    std::optional<core::LocateSummary> located;
  };

  /// The slot of `id`, or nullptr when it is not tracked.
  [[nodiscard]] TagState* find_tag(sim::TagId id) noexcept;
  [[nodiscard]] const TagState* find_tag(sim::TagId id) const noexcept;

  env::Deployment deployment_;
  EngineConfig config_;
  core::VireLocalizer localizer_;
  landmarc::LandmarcLocalizer fallback_;
  HealthMonitor health_;
  std::vector<sim::TagId> reference_ids_;
  /// One slot per tracked tag, sorted by id: the tag order of update()'s
  /// fixes and of snapshot()'s lists.
  std::vector<TagState> tags_;
  std::optional<sim::SimTime> last_refresh_;
  /// Reference readings behind the current virtual grid; a refresh whose
  /// readings match is skipped without rebuilding.
  std::vector<sim::RssiVector> last_reference_rssi_;
  int grid_rebuilds_ = 0;
  /// Bumped whenever the localizer's grid changes (every interpolation and
  /// restore()); a locate memo is valid only on its own generation.
  std::uint64_t grid_generation_ = 1;
  obs::MetricsRegistry metrics_;
  Instruments inst_;
  obs::Tracer tracer_;
  obs::FlightRecorder recorder_;
  std::uint64_t fix_sequence_ = 0;
  int auto_dumps_ = 0;
};

}  // namespace vire::engine
