#include "engine/localization_engine.h"

#include <cmath>
#include <exception>
#include <limits>
#include <stdexcept>
#include <utility>

#include "support/atomic_file.h"
#include "support/log.h"

namespace vire::engine {

namespace {

/// NaN-aware sample equality: an undetected link (NaN) that stays
/// undetected counts as unchanged.
bool same_reading(double a, double b) noexcept {
  return a == b || (std::isnan(a) && std::isnan(b));
}

bool same_readings(const std::vector<sim::RssiVector>& a,
                   const std::vector<sim::RssiVector>& b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t j = 0; j < a.size(); ++j) {
    if (a[j].size() != b[j].size()) return false;
    for (std::size_t k = 0; k < a[j].size(); ++k) {
      if (!same_reading(a[j][k], b[j][k])) return false;
    }
  }
  return true;
}

/// Blanks quarantined readers' entries out of an RSSI vector. NaN is exactly
/// "not detected", which every downstream consumer (elimination, LANDMARC
/// signal distance, the grid interpolation) already skips.
void apply_mask(sim::RssiVector& rssi, const std::vector<bool>& mask) {
  const std::size_t n = rssi.size() < mask.size() ? rssi.size() : mask.size();
  for (std::size_t k = 0; k < n; ++k) {
    if (!mask[k]) rssi[k] = std::numeric_limits<double>::quiet_NaN();
  }
}

}  // namespace

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

LocalizationEngine::LocalizationEngine(const env::Deployment& deployment,
                                       EngineConfig config)
    : deployment_(deployment),
      config_(config),
      localizer_(deployment.reference_grid(), config.vire),
      fallback_(config.degradation.fallback),
      health_(deployment.reader_count(), config.degradation.health),
      tracer_(config.observability.trace_capacity),
      recorder_(config.observability.flight_recorder_fixes) {
  if (config_.degradation.fallback_min_readers < 1) {
    throw std::invalid_argument(
        "LocalizationEngine: fallback_min_readers must be >= 1");
  }
  if (config_.degradation.hold_max_age_s < 0.0) {
    throw std::invalid_argument("LocalizationEngine: hold_max_age_s must be >= 0");
  }

  const auto latency = obs::default_latency_buckets_s();
  inst_.updates = &metrics_.counter("vire_engine_updates_total", {},
                                    "update() calls served");
  inst_.fixes_valid = &metrics_.counter("vire_engine_fixes_total", "valid=\"true\"",
                                        "Fixes produced, by validity");
  inst_.fixes_invalid = &metrics_.counter("vire_engine_fixes_total", "valid=\"false\"",
                                          "Fixes produced, by validity");
  for (const FixQuality q : {FixQuality::kOk, FixQuality::kDegraded,
                             FixQuality::kHold, FixQuality::kInvalid}) {
    inst_.fixes_quality[static_cast<std::size_t>(q)] = &metrics_.counter(
        "vire_engine_fixes_by_quality_total",
        "quality=\"" + std::string(to_string(q)) + "\"",
        "Fixes produced, by quality level (see docs/robustness.md)");
  }
  inst_.fallback_locates = &metrics_.counter(
      "vire_engine_fallback_locates_total", {},
      "Fixes produced by the LANDMARC k-NN fallback path");
  inst_.grid_rebuilds = &metrics_.counter(
      "vire_engine_grid_rebuilds_total", {},
      "Virtual-grid rebuilds from fresh reference readings");
  inst_.grid_partial_rebuilds = &metrics_.counter(
      "vire_engine_grid_partial_rebuilds_total", {},
      "Grid refreshes that re-interpolated only the dirty reader planes "
      "(subset of vire_engine_grid_rebuilds_total)");
  inst_.grid_skips_rate_limited = &metrics_.counter(
      "vire_engine_grid_rebuild_skips_total", "reason=\"rate_limited\"",
      "Rebuilds skipped, by reason");
  inst_.grid_skips_unchanged = &metrics_.counter(
      "vire_engine_grid_rebuild_skips_total", "reason=\"unchanged\"",
      "Rebuilds skipped, by reason");
  inst_.grid_rebuild_planes = &metrics_.histogram(
      "vire_engine_grid_rebuild_planes", obs::linear_buckets(0.0, 1.0, 17), {},
      "Reader planes re-interpolated per grid rebuild (the rebuild scope: "
      "full rebuilds observe the reader count, partial ones the dirty subset)");
  inst_.update_seconds = &metrics_.histogram("vire_engine_update_seconds", latency,
                                             {}, "End-to-end update() latency");
  inst_.degraded_update_seconds = &metrics_.histogram(
      "vire_engine_degraded_update_seconds", latency, {},
      "update() latency while at least one reader is quarantined");
  inst_.stage_interpolation =
      &metrics_.histogram("vire_engine_stage_seconds", latency,
                          "stage=\"interpolation\"", "Per-stage wall time");
  inst_.stage_elimination =
      &metrics_.histogram("vire_engine_stage_seconds", latency,
                          "stage=\"elimination\"", "Per-stage wall time");
  inst_.stage_weighting = &metrics_.histogram(
      "vire_engine_stage_seconds", latency, "stage=\"weighting\"",
      "Per-stage wall time");
  inst_.stage_locate = &metrics_.histogram("vire_engine_stage_seconds", latency,
                                           "stage=\"locate\"", "Per-stage wall time");
  inst_.survivors = &metrics_.histogram(
      "vire_engine_survivors", obs::exponential_buckets(1.0, 2.0, 11), {},
      "Surviving virtual regions per valid fix");
  inst_.refinement_steps = &metrics_.histogram(
      "vire_engine_threshold_refinement_steps", obs::linear_buckets(0.0, 1.0, 15),
      {}, "Adaptive threshold-reduction steps per locate");
  inst_.anomaly_quality = &metrics_.counter(
      "vire_engine_anomaly_dumps_total", "trigger=\"quality_drop\"",
      "Anomaly-triggered provenance dumps, by trigger");
  inst_.anomaly_latency = &metrics_.counter(
      "vire_engine_anomaly_dumps_total", "trigger=\"latency_slo\"",
      "Anomaly-triggered provenance dumps, by trigger");
  metrics_
      .gauge("vire_engine_kernel_isa",
             "isa=\"" + std::string(core::locate_kernel_isa()) + "\"",
             "Instruction set the locate kernels run on (fixes are bit-identical "
             "on every one; timings are not)")
      .set(1.0);
  health_.attach_metrics(metrics_);

  tracer_.set_enabled(config_.observability.enable_tracing);
  tracer_.set_thread_name("engine");
}

void LocalizationEngine::set_reference_ids(std::vector<sim::TagId> ids) {
  if (static_cast<int>(ids.size()) != deployment_.reference_count()) {
    throw std::invalid_argument(
        "LocalizationEngine: reference id count must match the deployment");
  }
  if (ids == reference_ids_) return;  // re-registration must keep warm history
  reference_ids_ = std::move(ids);
  last_refresh_.reset();         // force a rebuild on the next update
  last_reference_rssi_.clear();  // readings of old ids are not comparable
}

void LocalizationEngine::track(sim::TagId id, std::string name) {
  tracked_[id] = name.empty() ? "tag-" + std::to_string(id) : std::move(name);
}

void LocalizationEngine::untrack(sim::TagId id) {
  tracked_.erase(id);
  trackers_.erase(id);
  last_good_.erase(id);
  last_quality_.erase(id);
}

std::optional<TagStateSnapshot> LocalizationEngine::export_tag(sim::TagId id) const {
  const auto tracked = tracked_.find(id);
  if (tracked == tracked_.end()) return std::nullopt;
  TagStateSnapshot state;
  state.name = tracked->second;
  if (const auto it = trackers_.find(id); it != trackers_.end()) {
    state.has_tracker = true;
    state.tracker = it->second.state();
  }
  if (const auto it = last_good_.find(id); it != last_good_.end()) {
    state.has_last_good = true;
    state.last_good_time = it->second.time;
    state.last_good_position = it->second.position;
    state.last_good_smoothed = it->second.smoothed;
  }
  if (const auto it = last_quality_.find(id); it != last_quality_.end()) {
    state.has_last_quality = true;
    state.last_quality = it->second;
  }
  return state;
}

void LocalizationEngine::import_tag(sim::TagId id, const TagStateSnapshot& state) {
  track(id, state.name);
  if (state.has_tracker) {
    auto [it, inserted] =
        trackers_.try_emplace(id, core::TrackingFilter(config_.tracking));
    (void)inserted;
    it->second.restore(state.tracker);
  } else {
    trackers_.erase(id);
  }
  if (state.has_last_good) {
    last_good_[id] = {state.last_good_time, state.last_good_position,
                      state.last_good_smoothed};
  } else {
    last_good_.erase(id);
  }
  if (state.has_last_quality) {
    last_quality_[id] = state.last_quality;
  } else {
    last_quality_.erase(id);
  }
}

std::pair<std::filesystem::path, std::filesystem::path>
LocalizationEngine::dump_provenance(const std::filesystem::path& dir,
                                    const std::string& stem) const {
  const std::filesystem::path trace_path = dir / (stem + "_trace.json");
  const std::filesystem::path flight_path = dir / (stem + "_flight.json");
  // Write-temp-then-rename: a crash mid-dump leaves either the previous dump
  // or a complete new one, never truncated JSON (see support/atomic_file.h).
  support::atomic_write_file(trace_path, tracer_.to_chrome_json() + "\n");
  support::atomic_write_file(flight_path, obs::to_json(recorder_) + "\n");
  return {trace_path, flight_path};
}

EngineStateSnapshot LocalizationEngine::snapshot() const {
  EngineStateSnapshot snap;
  snap.reference_ids = reference_ids_;
  snap.tracked.assign(tracked_.begin(), tracked_.end());
  snap.health = health_.snapshot();
  snap.has_last_refresh = last_refresh_.has_value();
  snap.last_refresh = last_refresh_.value_or(0.0);
  snap.last_reference_rssi = last_reference_rssi_;
  snap.grid_rebuilds = grid_rebuilds_;
  snap.fix_sequence = fix_sequence_;
  snap.auto_dumps = auto_dumps_;
  snap.trackers.reserve(trackers_.size());
  for (const auto& [tag, tracker] : trackers_) {
    snap.trackers.push_back({tag, tracker.state()});
  }
  snap.last_good.reserve(last_good_.size());
  for (const auto& [tag, hold] : last_good_) {
    snap.last_good.push_back({tag, hold.time, hold.position, hold.smoothed});
  }
  snap.last_quality.reserve(last_quality_.size());
  for (const auto& [tag, quality] : last_quality_) {
    snap.last_quality.push_back({tag, quality});
  }
  return snap;
}

void LocalizationEngine::restore(const EngineStateSnapshot& snapshot) {
  if (!snapshot.reference_ids.empty() &&
      static_cast<int>(snapshot.reference_ids.size()) !=
          deployment_.reference_count()) {
    throw std::invalid_argument(
        "LocalizationEngine::restore: snapshot reference count does not match "
        "the deployment");
  }
  health_.restore(snapshot.health);  // validates the reader count

  reference_ids_ = snapshot.reference_ids;
  tracked_.clear();
  for (const auto& [tag, name] : snapshot.tracked) tracked_[tag] = name;
  if (snapshot.has_last_refresh) {
    last_refresh_ = snapshot.last_refresh;
  } else {
    last_refresh_.reset();
  }
  last_reference_rssi_ = snapshot.last_reference_rssi;
  grid_rebuilds_ = snapshot.grid_rebuilds;
  fix_sequence_ = snapshot.fix_sequence;
  auto_dumps_ = snapshot.auto_dumps;

  trackers_.clear();
  for (const EngineStateSnapshot::Tracker& t : snapshot.trackers) {
    auto [it, inserted] = trackers_.try_emplace(
        t.tag, core::TrackingFilter(config_.tracking));
    (void)inserted;
    it->second.restore(t.state);
  }
  last_good_.clear();
  for (const EngineStateSnapshot::Hold& h : snapshot.last_good) {
    last_good_[h.tag] = {h.time, h.position, h.smoothed};
  }
  last_quality_.clear();
  for (const EngineStateSnapshot::Quality& q : snapshot.last_quality) {
    last_quality_[q.tag] = q.quality;
  }

  // Rebuild the virtual grid the checkpointed engine was running on, from the
  // stored (post-mask) reference readings. Deliberately no metric increments
  // and no grid_rebuilds_ bump: the persistence layer restores counters
  // registry-wide, and refresh_references()'s unchanged-skip must see exactly
  // the state the uninterrupted engine had.
  if (grid_rebuilds_ > 0 && !last_reference_rssi_.empty()) {
    localizer_.set_reference_rssi(last_reference_rssi_);
  }
}

const core::TrackingFilter* LocalizationEngine::tracker(sim::TagId id) const {
  const auto it = trackers_.find(id);
  return it == trackers_.end() ? nullptr : &it->second;
}

obs::Counter* LocalizationEngine::quality_counter(FixQuality q) const noexcept {
  return inst_.fixes_quality[static_cast<std::size_t>(q)];
}

void LocalizationEngine::refresh_references(
    const std::vector<sim::RssiVector>& reference_rssi, sim::SimTime now,
    bool force) {
  const bool due = force || !last_refresh_.has_value() ||
                   now - *last_refresh_ >= config_.min_refresh_interval_s;
  if (!due) {
    inst_.grid_skips_rate_limited->inc();
    return;
  }
  last_refresh_ = now;
  if (grid_rebuilds_ > 0 && same_readings(reference_rssi, last_reference_rssi_)) {
    inst_.grid_skips_unchanged->inc();
    return;  // unchanged references: the current grid is still exact
  }

  // Dirty-reader diff: when a comparable previous reference field exists,
  // find which reader columns actually changed (NaN-aware, like the
  // unchanged-skip above). Clean readers' planes were interpolated from
  // identical inputs, so re-interpolating only the dirty planes is
  // bit-identical to a full rebuild — see docs/algorithm.md.
  std::vector<int> dirty_readers;
  std::size_t reader_columns = 0;
  bool comparable = grid_rebuilds_ > 0 && !reference_rssi.empty() &&
                    reference_rssi.size() == last_reference_rssi_.size();
  if (comparable) {
    reader_columns = reference_rssi.front().size();
    for (std::size_t j = 0; j < reference_rssi.size(); ++j) {
      if (reference_rssi[j].size() != reader_columns ||
          last_reference_rssi_[j].size() != reader_columns) {
        comparable = false;
        break;
      }
    }
  }
  if (comparable) {
    for (std::size_t k = 0; k < reader_columns; ++k) {
      for (std::size_t j = 0; j < reference_rssi.size(); ++j) {
        if (!same_reading(reference_rssi[j][k], last_reference_rssi_[j][k])) {
          dirty_readers.push_back(static_cast<int>(k));
          break;
        }
      }
    }
  }
  const bool partial = comparable && dirty_readers.size() < reader_columns;
  {
    const obs::ScopedTimer timer(inst_.stage_interpolation);
    // Args are only materialised when tracing is on (the ternary keeps the
    // disabled path allocation-free).
    const obs::TraceSpan span(
        &tracer_, "engine.interpolation",
        tracer_.enabled() ? "{\"references\":" +
                                std::to_string(reference_rssi.size()) +
                                ",\"dirty_readers\":" +
                                (partial ? std::to_string(dirty_readers.size())
                                         : std::string("-1")) +
                                "}"
                          : std::string{});
    if (partial) {
      localizer_.update_reference_rssi(reference_rssi, dirty_readers);
    } else {
      localizer_.set_reference_rssi(reference_rssi);
    }
  }
  last_reference_rssi_ = reference_rssi;
  ++grid_rebuilds_;
  inst_.grid_rebuilds->inc();
  if (partial) {
    inst_.grid_partial_rebuilds->inc();
    inst_.grid_rebuild_planes->observe(static_cast<double>(dirty_readers.size()));
  } else {
    inst_.grid_rebuild_planes->observe(
        reference_rssi.empty()
            ? 0.0
            : static_cast<double>(reference_rssi.front().size()));
  }
}

std::vector<Fix> LocalizationEngine::update(const sim::Middleware& middleware,
                                            sim::SimTime now) {
  if (reference_ids_.empty()) {
    throw std::logic_error("LocalizationEngine: set_reference_ids() first");
  }
  const obs::Stopwatch update_watch;
  inst_.updates->inc();
  // Trace args are only materialised when tracing is on (the ternaries keep
  // the disabled path allocation-free; a null/disabled TraceSpan reads no
  // clock and takes no lock).
  const obs::TraceSpan update_span(
      &tracer_, "engine.update",
      tracer_.enabled() ? "{\"sim_time\":" + std::to_string(now) +
                              ",\"tags\":" + std::to_string(tracked_.size()) + "}"
                        : std::string{});

  // Reference readings are fetched on every update: the health monitor needs
  // them as probes even when the grid refresh is rate-limited.
  std::vector<sim::RssiVector> reference_rssi;
  reference_rssi.reserve(reference_ids_.size());
  for (const sim::TagId id : reference_ids_) {
    reference_rssi.push_back(middleware.rssi_vector(id));
  }
  {
    const obs::TraceSpan span(&tracer_, "engine.health");
    health_.assess(reference_rssi, now);
  }
  const std::vector<bool>& mask = health_.healthy_mask();
  const bool degraded_mode = !health_.all_healthy();

  // Quarantined readers are blanked out of the reference field before the
  // grid sees it, and a mask flip forces an immediate rebuild — the healthy
  // path (no quarantine, no flip) runs on the untouched readings and stays
  // bit-identical to the degradation-free engine.
  if (degraded_mode) {
    for (sim::RssiVector& row : reference_rssi) apply_mask(row, mask);
  }
  refresh_references(reference_rssi, now, health_.mask_changed());

  // The fallback localizer compares tracking tags against the *real*
  // reference tags' current (mask-blanked) readings — LANDMARC needs no
  // virtual grid, which is exactly why it survives reader loss better.
  const bool fallback_ready =
      config_.degradation.enable_fallback && degraded_mode &&
      health_.healthy_count() >= config_.degradation.fallback_min_readers;
  if (fallback_ready) {
    std::vector<landmarc::Reference> references;
    references.reserve(reference_rssi.size());
    const auto& positions = deployment_.reference_positions();
    for (std::size_t j = 0; j < reference_rssi.size(); ++j) {
      references.push_back({positions[j], reference_rssi[j]});
    }
    fallback_.set_references(std::move(references));
  }

  // Snapshot the batch in tag order, locate every item, then merge in tag
  // order. Keeping the locates in their own phase lets the stage="locate"
  // histogram and the engine.locate span time them alone. Each item keeps
  // the compact LocateSummary (position and provenance), not the per-node
  // vectors of a full VireResult, until the merge.
  struct Item {
    sim::TagId id;
    const std::string* name;
    sim::RssiVector rssi;
    int valid_readers = 0;
    std::optional<core::LocateSummary> result;
    std::optional<landmarc::LandmarcResult> fallback;
    core::LocateStats stats;
  };
  std::vector<Item> items;
  items.reserve(tracked_.size());
  for (const auto& [id, name] : tracked_) {
    Item item{id, &name, middleware.rssi_vector(id), 0, std::nullopt,
              std::nullopt, {}};
    if (degraded_mode) apply_mask(item.rssi, mask);
    for (double v : item.rssi) {
      if (!std::isnan(v)) ++item.valid_readers;
    }
    items.push_back(std::move(item));
  }

  // Histograms are fed in the merge below; a locate writes only its own
  // item (results and timings).
  {
    const obs::ScopedTimer locate_timer(inst_.stage_locate);
    const obs::TraceSpan span(
        &tracer_, "engine.locate",
        tracer_.enabled() ? "{\"items\":" + std::to_string(items.size()) + "}"
                          : std::string{});
    for (Item& item : items) {
      const bool tracing = tracer_.enabled();
      const double locate_start_us = tracing ? tracer_.now_us() : 0.0;
      if (item.valid_readers >= config_.min_valid_readers && item.valid_readers > 0) {
        item.result = localizer_.locate_summary(item.rssi, &item.stats);
        if (tracing && item.result) {
          // Elimination runs first inside locate(), weighting follows; both
          // durations come from the stage timers, so the child spans are laid
          // end to end from the measured locate start.
          const std::string tag_args = "{\"tag\":" + std::to_string(item.id) + "}";
          const double elim_end_us =
              locate_start_us + 1e6 * item.stats.elimination_seconds;
          tracer_.complete("engine.elimination", locate_start_us, elim_end_us,
                           tag_args);
          tracer_.complete("engine.weighting", elim_end_us,
                           elim_end_us + 1e6 * item.stats.weighting_seconds,
                           tag_args);
        }
      }
      if (!item.result && fallback_ready &&
          item.valid_readers >= config_.degradation.fallback_min_readers) {
        item.fallback = fallback_.locate(item.rssi);
      }
      if (tracing) {
        tracer_.complete("engine.locate_tag", locate_start_us, tracer_.now_us(),
                         "{\"tag\":" + std::to_string(item.id) + "}");
      }
    }
  }

  // Merge in tag order: tracker updates, hold bookkeeping, Fix assembly and
  // all provenance capture (flight records, quality transitions).
  std::vector<Fix> fixes;
  fixes.reserve(items.size());
  bool quality_drop = false;
  const double merge_start_us = tracer_.enabled() ? tracer_.now_us() : 0.0;
  for (Item& item : items) {
    Fix fix;
    fix.tag = item.id;
    fix.name = *item.name;
    fix.time = now;
    if (item.result) {
      fix.valid = true;
      fix.quality = degraded_mode ? FixQuality::kDegraded : FixQuality::kOk;
      fix.position = item.result->estimate.position;
      fix.survivor_count = item.result->estimate.survivor_count;
      inst_.stage_elimination->observe(item.stats.elimination_seconds);
      inst_.stage_weighting->observe(item.stats.weighting_seconds);
      inst_.survivors->observe(static_cast<double>(fix.survivor_count));
      inst_.refinement_steps->observe(
          static_cast<double>(item.result->refinement_steps));
    } else if (item.fallback) {
      fix.valid = true;
      fix.quality = FixQuality::kDegraded;
      fix.used_fallback = true;
      fix.position = item.fallback->position;
      inst_.fallback_locates->inc();
    }
    if (fix.valid) {
      inst_.fixes_valid->inc();
      if (config_.enable_tracking) {
        auto [it, inserted] =
            trackers_.try_emplace(item.id, core::TrackingFilter(config_.tracking));
        (void)inserted;
        fix.smoothed_position = it->second.update(now, fix.position);
      } else {
        fix.smoothed_position = fix.position;
      }
      last_good_[item.id] = {now, fix.position, fix.smoothed_position};
    } else {
      // Neither path produced a position: serve the last good fix while it
      // is fresh enough, otherwise report invalid (position stays at the
      // default origin — never NaN; consumers must check valid/quality).
      const auto held = last_good_.find(item.id);
      if (held != last_good_.end() && config_.degradation.hold_max_age_s > 0.0 &&
          now - held->second.time <= config_.degradation.hold_max_age_s) {
        fix.quality = FixQuality::kHold;
        fix.position = held->second.position;
        fix.smoothed_position = held->second.smoothed;
        fix.age_s = now - held->second.time;
      } else {
        fix.quality = FixQuality::kInvalid;
      }
      inst_.fixes_invalid->inc();
    }
    quality_counter(fix.quality)->inc();

    // Quality-transition tracking: a tag leaving kOk is the anomaly trigger;
    // every transition becomes a global instant so Perfetto lines it up with
    // the fault markers that caused it.
    const auto prev = last_quality_.find(item.id);
    const FixQuality previous =
        prev == last_quality_.end() ? fix.quality : prev->second;
    if (previous != fix.quality) {
      if (tracer_.enabled()) {
        tracer_.instant("engine.quality_transition",
                        "{\"tag\":" + std::to_string(item.id) + ",\"from\":\"" +
                            std::string(to_string(previous)) + "\",\"to\":\"" +
                            std::string(to_string(fix.quality)) + "\"}",
                        'g');
      }
      if (previous == FixQuality::kOk) quality_drop = true;
    }
    last_quality_[item.id] = fix.quality;

    if (recorder_.capacity() > 0) {
      obs::FixRecord rec;
      rec.sequence = fix_sequence_++;
      rec.time = now;
      rec.tag = static_cast<std::uint32_t>(item.id);
      rec.name = fix.name;
      rec.quality = std::string(to_string(fix.quality));
      rec.decision = item.result        ? "vire"
                     : item.fallback    ? "fallback"
                     : fix.quality == FixQuality::kHold ? "hold"
                                                        : "none";
      rec.valid = fix.valid;
      rec.used_fallback = fix.used_fallback;
      rec.age_s = fix.age_s;
      rec.x = fix.position.x;
      rec.y = fix.position.y;
      rec.readers.reserve(item.rssi.size());
      for (std::size_t k = 0; k < item.rssi.size(); ++k) {
        rec.readers.push_back(
            {item.rssi[k], k < mask.size() ? static_cast<bool>(mask[k]) : true});
      }
      if (item.result) {
        const core::LocateSummary& located = *item.result;
        rec.refinement.initial_threshold_db = located.initial_threshold_db;
        rec.refinement.final_threshold_db = located.final_threshold_db;
        rec.refinement.steps = located.refinement_steps;
        rec.refinement.survivors_per_step.assign(located.survivors_per_step.begin(),
                                                 located.survivors_per_step.end());
        rec.survivor_count = fix.survivor_count;
        const core::EstimateSummary& est = located.estimate;
        rec.clusters.reserve(est.cluster_sizes.size());
        for (std::size_t c = 0; c < est.cluster_sizes.size(); ++c) {
          rec.clusters.push_back({est.cluster_sizes[c], est.cluster_weights[c]});
        }
        rec.elimination_seconds = item.stats.elimination_seconds;
        rec.weighting_seconds = item.stats.weighting_seconds;
      }
      recorder_.record(std::move(rec));
    }

    fixes.push_back(std::move(fix));
  }
  if (tracer_.enabled()) {
    tracer_.complete("engine.merge", merge_start_us, tracer_.now_us());
  }

  const double elapsed = update_watch.elapsed_seconds();
  inst_.update_seconds->observe(elapsed);
  if (degraded_mode) inst_.degraded_update_seconds->observe(elapsed);

  const bool latency_breach =
      config_.observability.update_latency_slo_s > 0.0 &&
      elapsed > config_.observability.update_latency_slo_s;
  if (latency_breach && tracer_.enabled()) {
    tracer_.instant("engine.latency_slo_breach",
                    "{\"elapsed_s\":" + std::to_string(elapsed) + ",\"slo_s\":" +
                        std::to_string(config_.observability.update_latency_slo_s) +
                        "}",
                    'g');
  }
  if ((quality_drop || latency_breach) && config_.observability.max_auto_dumps > 0 &&
      auto_dumps_ < config_.observability.max_auto_dumps) {
    if (quality_drop) inst_.anomaly_quality->inc();
    if (latency_breach) inst_.anomaly_latency->inc();
    const std::string stem = "anomaly_" + std::to_string(auto_dumps_);
    ++auto_dumps_;
    try {
      dump_provenance(config_.observability.anomaly_dump_dir, stem);
    } catch (const std::exception& e) {
      support::log_warn("anomaly provenance dump (%s) failed: %s", stem.c_str(),
                        e.what());
    }
  }
  return fixes;
}

}  // namespace vire::engine
