#include "core/vire_localizer.h"

#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"

namespace vire::core {

VireConfig recommended_vire_config() {
  VireConfig config;
  config.virtual_grid.subdivision = 10;
  config.virtual_grid.method = InterpolationMethod::kLinear;
  config.virtual_grid.boundary_extension_cells = 5;
  config.elimination.mode = ThresholdMode::kAdaptive;
  config.elimination.min_area_cell_fraction = 0.6;
  config.weighting = WeightingMode::kCombined;
  return config;
}

VireLocalizer::VireLocalizer(const geom::RegularGrid& real_grid, VireConfig config)
    : real_grid_(real_grid), config_(config), elimination_(config.elimination) {}

void VireLocalizer::set_reference_rssi(
    const std::vector<sim::RssiVector>& reference_rssi) {
  virtual_grid_.emplace(real_grid_, reference_rssi, config_.virtual_grid);
}

void VireLocalizer::update_reference_rssi(
    const std::vector<sim::RssiVector>& reference_rssi,
    const std::vector<int>& dirty_readers) {
  if (!virtual_grid_) {
    set_reference_rssi(reference_rssi);
    return;
  }
  virtual_grid_->reinterpolate_readers(reference_rssi, dirty_readers);
}

std::optional<VireResult> VireLocalizer::locate(const sim::RssiVector& tracking,
                                                const std::vector<bool>& reader_mask,
                                                LocateStats* stats) const {
  if (reader_mask.size() != tracking.size()) {
    throw std::invalid_argument("VireLocalizer: reader_mask size mismatch");
  }
  bool all_healthy = true;
  for (const bool healthy : reader_mask) all_healthy = all_healthy && healthy;
  if (all_healthy) return locate(tracking, stats);
  // Masked readers become NaN: elimination skips NaN readers, so their maps
  // never join the intersection and the weighting never sees them.
  sim::RssiVector masked = tracking;
  for (std::size_t k = 0; k < masked.size(); ++k) {
    if (!reader_mask[k]) masked[k] = std::numeric_limits<double>::quiet_NaN();
  }
  return locate(masked, stats);
}

std::optional<VireResult> VireLocalizer::locate(const sim::RssiVector& tracking,
                                                LocateStats* stats) const {
  if (!virtual_grid_) return std::nullopt;
  VireResult result;
  {
    const obs::Stopwatch watch;
    result.elimination = elimination_.run(*virtual_grid_, tracking);
    if (stats != nullptr) stats->elimination_seconds = watch.elapsed_seconds();
  }
  {
    const obs::Stopwatch watch;
    result.estimate =
        compute_estimate(*virtual_grid_, result.elimination.survivors, tracking,
                         config_.weighting, config_.w1_exponent);
    if (stats != nullptr) stats->weighting_seconds = watch.elapsed_seconds();
  }
  if (result.estimate.nodes.empty()) return std::nullopt;
  result.position = result.estimate.position;
  return result;
}

std::optional<LocateSummary> VireLocalizer::locate_summary(const sim::RssiVector& tracking,
                                                           LocateStats* stats) const {
  if (!virtual_grid_) return std::nullopt;
  EliminationResult elimination;
  {
    const obs::Stopwatch watch;
    elimination = elimination_.run(*virtual_grid_, tracking);
    if (stats != nullptr) stats->elimination_seconds = watch.elapsed_seconds();
  }
  LocateSummary summary;
  {
    const obs::Stopwatch watch;
    summary.estimate = summarize_estimate(*virtual_grid_, elimination.survivors, tracking,
                                          config_.weighting, config_.w1_exponent);
    if (stats != nullptr) stats->weighting_seconds = watch.elapsed_seconds();
  }
  if (summary.estimate.survivor_count == 0) return std::nullopt;
  summary.refinement_steps = elimination.refinement_steps;
  summary.initial_threshold_db = elimination.initial_threshold_db;
  summary.final_threshold_db = elimination.final_threshold_db;
  summary.survivors_per_step = std::move(elimination.survivors_per_step);
  return summary;
}

}  // namespace vire::core
