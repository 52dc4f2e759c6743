#include "engine/localization_engine.h"

#include <algorithm>
#include <cmath>
#include <bit>
#include <cstdint>
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

/// Bit equality of two RSSI vectors. Unlike ==, NaN matches the same NaN and
/// -0 does not match +0, so equal bits mean locate_summary() sees the same
/// input.
bool same_bits(const sim::RssiVector& a, const sim::RssiVector& b) noexcept {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  });
}

/// The first slot whose id is not below `id`, in slots sorted by id.
template <typename Slots>
auto slot_bound(Slots& slots, sim::TagId id) {
  return std::lower_bound(slots.begin(), slots.end(), id,
                          [](const auto& slot, sim::TagId key) { return slot.id < key; });
}

/// The slot of `id`, inserted with only its id set when absent.
template <typename Slot>
Slot& insert_slot(std::vector<Slot>& slots, sim::TagId id) {
  auto it = slot_bound(slots, id);
  if (it == slots.end() || it->id != id) {
    it = slots.insert(it, Slot{});
    it->id = id;
  }
  return *it;
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
  inst_.locates_reused = &metrics_.counter(
      "vire_engine_locates_reused_total", {},
      "VIRE locates answered from the tag's memo: the same grid generation and "
      "the same RSSI bits as the tag's previous locate");
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

LocalizationEngine::TagState* LocalizationEngine::find_tag(sim::TagId id) noexcept {
  const auto it = slot_bound(tags_, id);
  return it != tags_.end() && it->id == id ? &*it : nullptr;
}

const LocalizationEngine::TagState* LocalizationEngine::find_tag(
    sim::TagId id) const noexcept {
  return const_cast<LocalizationEngine*>(this)->find_tag(id);
}

void LocalizationEngine::track(sim::TagId id, std::string name) {
  insert_slot(tags_, id).name = name.empty() ? "tag-" + std::to_string(id) : std::move(name);
}

void LocalizationEngine::untrack(sim::TagId id) {
  if (const TagState* slot = find_tag(id)) {
    tags_.erase(tags_.begin() + (slot - tags_.data()));
  }
}

std::optional<TagStateSnapshot> LocalizationEngine::export_tag(sim::TagId id) const {
  const TagState* slot = find_tag(id);
  if (slot == nullptr) return std::nullopt;
  TagStateSnapshot state;
  state.name = slot->name;
  if (slot->tracker) {
    state.has_tracker = true;
    state.tracker = slot->tracker->state();
  }
  if (slot->last_good) {
    state.has_last_good = true;
    state.last_good_time = slot->last_good->time;
    state.last_good_position = slot->last_good->position;
    state.last_good_smoothed = slot->last_good->smoothed;
  }
  if (slot->last_quality) {
    state.has_last_quality = true;
    state.last_quality = *slot->last_quality;
  }
  return state;
}

void LocalizationEngine::import_tag(sim::TagId id, const TagStateSnapshot& state) {
  track(id, state.name);
  TagState& slot = *find_tag(id);
  slot.tracker.reset();
  if (state.has_tracker) {
    slot.tracker.emplace(config_.tracking).restore(state.tracker);
  }
  slot.last_good.reset();
  if (state.has_last_good) {
    slot.last_good = LastGood{state.last_good_time, state.last_good_position,
                              state.last_good_smoothed};
  }
  slot.last_quality.reset();
  if (state.has_last_quality) slot.last_quality = state.last_quality;
  slot.memo_generation = 0;
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
  snap.health = health_.snapshot();
  snap.has_last_refresh = last_refresh_.has_value();
  snap.last_refresh = last_refresh_.value_or(0.0);
  snap.last_reference_rssi = last_reference_rssi_;
  snap.grid_rebuilds = grid_rebuilds_;
  snap.fix_sequence = fix_sequence_;
  snap.auto_dumps = auto_dumps_;
  snap.tracked.reserve(tags_.size());
  for (const TagState& slot : tags_) {
    snap.tracked.emplace_back(slot.id, slot.name);
    if (slot.tracker) snap.trackers.push_back({slot.id, slot.tracker->state()});
    if (slot.last_good) {
      snap.last_good.push_back({slot.id, slot.last_good->time,
                                slot.last_good->position, slot.last_good->smoothed});
    }
    if (slot.last_quality) snap.last_quality.push_back({slot.id, *slot.last_quality});
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
  // Per-tag state is kept only for tracked tags; a snapshot with state for an
  // untracked one was not written by an engine.
  std::vector<TagState> tags;
  tags.reserve(snapshot.tracked.size());
  for (const auto& [tag, name] : snapshot.tracked) insert_slot(tags, tag).name = name;
  const auto slot_of = [&tags](sim::TagId tag) -> TagState& {
    const auto it = slot_bound(tags, tag);
    if (it == tags.end() || it->id != tag) {
      throw std::invalid_argument(
          "LocalizationEngine::restore: snapshot holds per-tag state for an "
          "untracked tag");
    }
    return *it;
  };
  for (const EngineStateSnapshot::Tracker& t : snapshot.trackers) {
    slot_of(t.tag).tracker.emplace(config_.tracking).restore(t.state);
  }
  for (const EngineStateSnapshot::Hold& h : snapshot.last_good) {
    slot_of(h.tag).last_good = LastGood{h.time, h.position, h.smoothed};
  }
  for (const EngineStateSnapshot::Quality& q : snapshot.last_quality) {
    slot_of(q.tag).last_quality = q.quality;
  }
  health_.restore(snapshot.health);  // validates the reader count

  reference_ids_ = snapshot.reference_ids;
  tags_ = std::move(tags);
  if (snapshot.has_last_refresh) {
    last_refresh_ = snapshot.last_refresh;
  } else {
    last_refresh_.reset();
  }
  last_reference_rssi_ = snapshot.last_reference_rssi;
  grid_rebuilds_ = snapshot.grid_rebuilds;
  fix_sequence_ = snapshot.fix_sequence;
  auto_dumps_ = snapshot.auto_dumps;

  // Rebuild the virtual grid the checkpointed engine was running on, from the
  // stored (post-mask) reference readings. Deliberately no metric increments
  // and no grid_rebuilds_ bump: the persistence layer restores counters
  // registry-wide, and refresh_references()'s unchanged-skip must see exactly
  // the state the uninterrupted engine had.
  ++grid_generation_;
  if (grid_rebuilds_ > 0 && !last_reference_rssi_.empty()) {
    localizer_.set_reference_rssi(last_reference_rssi_);
  }
}

const core::TrackingFilter* LocalizationEngine::tracker(sim::TagId id) const {
  const TagState* slot = find_tag(id);
  return slot != nullptr && slot->tracker ? &*slot->tracker : nullptr;
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
    ++grid_generation_;
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
                              ",\"tags\":" + std::to_string(tags_.size()) + "}"
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
  // histogram and the engine.locate span time them alone. A tag's locate
  // lands in its slot's memo (the compact LocateSummary, not the per-node
  // vectors of a full VireResult), where the merge reads it.
  struct Item {
    TagState* slot = nullptr;
    int valid_readers = 0;
    /// The tag's VIRE locate for this update (in its slot), or null.
    const core::LocateSummary* result = nullptr;
    /// locate_summary() was skipped: the memo matched.
    bool reused = false;
    std::optional<landmarc::LandmarcResult> fallback;
    core::LocateStats stats;
  };
  std::vector<Item> items;
  items.reserve(tags_.size());
  for (TagState& slot : tags_) {
    sim::RssiVector rssi = middleware.rssi_vector(slot.id);
    if (degraded_mode) apply_mask(rssi, mask);
    if (!same_bits(rssi, slot.rssi)) {
      slot.rssi = std::move(rssi);
      slot.memo_generation = 0;
    }
    Item item;
    item.slot = &slot;
    for (double v : slot.rssi) {
      if (!std::isnan(v)) ++item.valid_readers;
    }
    items.push_back(std::move(item));
  }

  // Histograms and counters are fed in the merge below; a locate writes only
  // its own item and its own slot's memo.
  {
    const obs::ScopedTimer locate_timer(inst_.stage_locate);
    const obs::TraceSpan span(
        &tracer_, "engine.locate",
        tracer_.enabled() ? "{\"items\":" + std::to_string(items.size()) + "}"
                          : std::string{});
    for (Item& item : items) {
      TagState& slot = *item.slot;
      const bool tracing = tracer_.enabled();
      const double locate_start_us = tracing ? tracer_.now_us() : 0.0;
      if (item.valid_readers >= config_.min_valid_readers && item.valid_readers > 0) {
        // locate_summary() is a pure function of the grid and the vector, so
        // a memo from the same grid generation and the same RSSI bits is
        // exactly what it would return (docs/algorithm.md, "Reused locates").
        item.reused = slot.memo_generation == grid_generation_;
        if (!item.reused) {
          slot.located = localizer_.locate_summary(slot.rssi, &item.stats);
          slot.memo_generation = grid_generation_;
          if (tracing && slot.located) {
            // Elimination runs first inside locate(), weighting follows; both
            // durations come from the stage timers, so the child spans are
            // laid end to end from the measured locate start.
            const std::string tag_args = "{\"tag\":" + std::to_string(slot.id) + "}";
            const double elim_end_us =
                locate_start_us + 1e6 * item.stats.elimination_seconds;
            tracer_.complete("engine.elimination", locate_start_us, elim_end_us,
                             tag_args);
            tracer_.complete("engine.weighting", elim_end_us,
                             elim_end_us + 1e6 * item.stats.weighting_seconds,
                             tag_args);
          }
        }
        if (slot.located) item.result = &*slot.located;
      }
      if (item.result == nullptr && fallback_ready &&
          item.valid_readers >= config_.degradation.fallback_min_readers) {
        item.fallback = fallback_.locate(slot.rssi);
      }
      if (tracing) {
        tracer_.complete("engine.locate_tag", locate_start_us, tracer_.now_us(),
                         "{\"tag\":" + std::to_string(slot.id) + "}");
      }
    }
  }

  // Merge in tag order: tracker updates, hold bookkeeping, Fix assembly and
  // all provenance capture (flight records, quality transitions).
  std::vector<Fix> fixes;
  fixes.reserve(items.size());
  bool quality_drop = false;
  const double merge_start_us = tracer_.enabled() ? tracer_.now_us() : 0.0;
  for (const Item& item : items) {
    TagState& slot = *item.slot;
    Fix fix;
    fix.tag = slot.id;
    fix.name = slot.name;
    fix.time = now;
    if (item.reused) inst_.locates_reused->inc();
    if (item.result != nullptr) {
      fix.valid = true;
      fix.quality = degraded_mode ? FixQuality::kDegraded : FixQuality::kOk;
      fix.position = item.result->estimate.position;
      fix.survivor_count = item.result->estimate.survivor_count;
      if (!item.reused) {
        inst_.stage_elimination->observe(item.stats.elimination_seconds);
        inst_.stage_weighting->observe(item.stats.weighting_seconds);
      }
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
        if (!slot.tracker) slot.tracker.emplace(config_.tracking);
        fix.smoothed_position = slot.tracker->update(now, fix.position);
      } else {
        fix.smoothed_position = fix.position;
      }
      slot.last_good = LastGood{now, fix.position, fix.smoothed_position};
    } else {
      // Neither path produced a position: serve the last good fix while it
      // is fresh enough, otherwise report invalid (position stays at the
      // default origin — never NaN; consumers must check valid/quality).
      const std::optional<LastGood>& held = slot.last_good;
      if (held && config_.degradation.hold_max_age_s > 0.0 &&
          now - held->time <= config_.degradation.hold_max_age_s) {
        fix.quality = FixQuality::kHold;
        fix.position = held->position;
        fix.smoothed_position = held->smoothed;
        fix.age_s = now - held->time;
      } else {
        fix.quality = FixQuality::kInvalid;
      }
      inst_.fixes_invalid->inc();
    }
    quality_counter(fix.quality)->inc();

    // Quality-transition tracking: a tag leaving kOk is the anomaly trigger;
    // every transition becomes a global instant so Perfetto lines it up with
    // the fault markers that caused it.
    const FixQuality previous = slot.last_quality.value_or(fix.quality);
    if (previous != fix.quality) {
      if (tracer_.enabled()) {
        tracer_.instant("engine.quality_transition",
                        "{\"tag\":" + std::to_string(slot.id) + ",\"from\":\"" +
                            std::string(to_string(previous)) + "\",\"to\":\"" +
                            std::string(to_string(fix.quality)) + "\"}",
                        'g');
      }
      if (previous == FixQuality::kOk) quality_drop = true;
    }
    slot.last_quality = fix.quality;

    if (recorder_.capacity() > 0) {
      obs::FixRecord rec;
      rec.sequence = fix_sequence_++;
      rec.time = now;
      rec.tag = static_cast<std::uint32_t>(slot.id);
      rec.name = fix.name;
      rec.quality = fix.quality;
      rec.decision = item.result != nullptr ? obs::FixDecision::kVire
                     : item.fallback        ? obs::FixDecision::kFallback
                     : fix.quality == FixQuality::kHold ? obs::FixDecision::kHold
                                                        : obs::FixDecision::kNone;
      rec.valid = fix.valid;
      rec.used_fallback = fix.used_fallback;
      rec.locate_reused = item.reused;
      rec.age_s = fix.age_s;
      rec.x = fix.position.x;
      rec.y = fix.position.y;
      rec.readers.reserve(slot.rssi.size());
      for (std::size_t k = 0; k < slot.rssi.size(); ++k) {
        rec.readers.push_back(
            {slot.rssi[k], k < mask.size() ? static_cast<bool>(mask[k]) : true});
      }
      if (item.result != nullptr) {
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
