#include "core/elimination.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace vire::core {

EliminationEngine::EliminationEngine(EliminationConfig config) : config_(config) {
  // Thresholds must be finite: the spread kernel below reads a NaN distance
  // as +inf, which only matches "NaN never marks" for finite thresholds (and
  // an infinite start would never finish the adaptive walk).
  const bool finite = std::isfinite(config.fixed_threshold_db) &&
                      std::isfinite(config.initial_threshold_db) &&
                      std::isfinite(config.step_db) &&
                      std::isfinite(config.min_threshold_db);
  if (!finite || config.fixed_threshold_db < 0.0 || config.initial_threshold_db <= 0.0 ||
      config.step_db <= 0.0 || config.min_threshold_db < 0.0 ||
      config.min_area_cell_fraction < 0.0) {
    throw std::invalid_argument("EliminationEngine: invalid parameters");
  }
}

std::size_t EliminationEngine::min_survivors(const VirtualGrid& grid) const noexcept {
  const int n = grid.config().subdivision;
  const auto per_cell = static_cast<double>(n) * static_cast<double>(n);
  const auto wanted =
      static_cast<std::size_t>(per_cell * config_.min_area_cell_fraction);
  return std::max<std::size_t>(1, wanted);
}

EliminationResult EliminationEngine::run(const VirtualGrid& grid,
                                         const sim::RssiVector& tracking) const {
  if (static_cast<int>(tracking.size()) != grid.reader_count()) {
    throw std::invalid_argument("EliminationEngine: tracking vector size mismatch");
  }
  if (config_.mode == ThresholdMode::kAdaptivePerReader) {
    return run_adaptive_per_reader(grid, tracking);
  }
  return run_common_threshold(grid, tracking);
}

std::vector<ProximityMap> proximity_maps(const VirtualGrid& grid,
                                         const sim::RssiVector& tracking,
                                         const EliminationResult& result) {
  if (result.thresholds_db.size() != tracking.size()) {
    throw std::invalid_argument("proximity_maps: thresholds/tracking size mismatch");
  }
  std::vector<ProximityMap> maps;
  for (std::size_t k = 0; k < tracking.size(); ++k) {
    if (std::isnan(tracking[k])) continue;
    maps.emplace_back(grid, static_cast<int>(k), tracking[k], result.thresholds_db[k]);
  }
  return maps;
}

namespace {

/// Readers with a valid tracking RSSI (NaN readers cannot vote).
std::vector<int> valid_readers(const sim::RssiVector& tracking) {
  std::vector<int> out;
  for (std::size_t k = 0; k < tracking.size(); ++k) {
    if (!std::isnan(tracking[k])) out.push_back(static_cast<int>(k));
  }
  return out;
}

/// Per-node spread of the voting readers' distances d_k = |S_k(T_i) - s_k|:
/// `hi` is the largest, `lo` the smallest, with a NaN distance (a NaN node
/// value) read as +inf. Reader k's map marks node i iff d_k <= t, and a NaN
/// d_k never marks; for a finite t that makes, bit for bit,
///   intersection of the maps at t == {i : hi[i] <= t}
///   union of the maps at t        == {i : lo[i] <= t}.
/// One pass over the K reader planes thus serves every threshold step.
struct DistanceSpread {
  std::vector<double> hi;
  std::vector<double> lo;
};

DistanceSpread distance_spread(const VirtualGrid& grid, const sim::RssiVector& tracking,
                               const std::vector<int>& readers) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = grid.node_count();
  DistanceSpread spread;
  spread.hi.assign(n, 0.0);
  spread.lo.assign(n, kInf);
  double* const hi = spread.hi.data();
  double* const lo = spread.lo.data();
  for (const int k : readers) {
    const double* const values = grid.reader_values(k).data();
    const double s = tracking[static_cast<std::size_t>(k)];
    for (std::size_t i = 0; i < n; ++i) {
      double d = std::abs(values[i] - s);
      d = d == d ? d : kInf;  // NaN -> +inf, branch-free
      hi[i] = hi[i] < d ? d : hi[i];
      lo[i] = d < lo[i] ? d : lo[i];
    }
  }
  return spread;
}

/// Number of entries <= threshold: the intersection size when run on `hi`.
std::size_t count_at_most(const std::vector<double>& values, double threshold) {
  return static_cast<std::size_t>(std::count_if(
      values.begin(), values.end(), [threshold](double v) { return v <= threshold; }));
}

}  // namespace

EliminationResult EliminationEngine::run_common_threshold(
    const VirtualGrid& grid, const sim::RssiVector& tracking) const {
  const bool adaptive = config_.mode == ThresholdMode::kAdaptive;
  const double start =
      adaptive ? config_.initial_threshold_db : config_.fixed_threshold_db;
  EliminationResult result;
  result.thresholds_db.assign(tracking.size(), start);
  result.initial_threshold_db = start;
  result.final_threshold_db = start;
  const std::vector<int> readers = valid_readers(tracking);
  if (readers.empty()) {
    result.survivors.assign(grid.node_count(), false);
    return result;
  }
  const DistanceSpread spread = distance_spread(grid, tracking, readers);

  // Adaptive: walk the common threshold downward and keep the smallest one
  // whose intersection still covers the minimum area. Each step is a count
  // over `hi`; the mask is packed once, for the accepted threshold.
  double best_threshold = start;
  std::size_t best_count = count_at_most(spread.hi, start);
  result.survivors_per_step.push_back(best_count);
  if (adaptive) {
    const std::size_t min_area = min_survivors(grid);
    for (double threshold = start - config_.step_db;
         threshold >= config_.min_threshold_db - 1e-12;
         threshold -= config_.step_db) {
      const std::size_t survivors = count_at_most(spread.hi, threshold);
      if (survivors < min_area) break;
      best_threshold = threshold;
      best_count = survivors;
      ++result.refinement_steps;
      result.survivors_per_step.push_back(survivors);
    }
  }
  for (const int k : readers) {
    result.thresholds_db[static_cast<std::size_t>(k)] = best_threshold;
  }
  result.final_threshold_db = best_threshold;

  // An empty intersection (a too-small fixed threshold "sweeps away" the
  // real position, paper Sec. 5.3, or the readers fully disagree) falls back
  // to the union of the per-reader maps so a deployed system still answers.
  // The resulting scatter drives the left-hand rise of the Fig. 8 U-curve.
  fill_mask_from_distances(best_count == 0 ? spread.lo : spread.hi, best_threshold,
                           result.survivors);
  return result;
}

EliminationResult EliminationEngine::run_adaptive_per_reader(
    const VirtualGrid& grid, const sim::RssiVector& tracking) const {
  EliminationResult result;
  result.thresholds_db.assign(tracking.size(), config_.initial_threshold_db);
  result.initial_threshold_db = config_.initial_threshold_db;
  result.final_threshold_db = config_.initial_threshold_db;
  std::vector<ProximityMap> maps = proximity_maps(grid, tracking, result);
  if (maps.empty()) {
    result.survivors.assign(grid.node_count(), false);
    return result;
  }
  const std::size_t min_area = min_survivors(grid);
  std::vector<bool> frozen(maps.size(), false);
  BitMask intersection = intersect_maps(maps);
  result.survivors_per_step.push_back(count_marked(intersection));

  // Greedy: shrink the largest-area unfrozen reader while the intersection
  // keeps the minimum area, then freeze it and move to the next.
  while (true) {
    int best = -1;
    std::size_t best_marked = 0;
    for (std::size_t i = 0; i < maps.size(); ++i) {
      if (frozen[i]) continue;
      if (best < 0 || maps[i].marked_count() > best_marked) {
        best = static_cast<int>(i);
        best_marked = maps[i].marked_count();
      }
    }
    if (best < 0) break;
    const auto i = static_cast<std::size_t>(best);

    while (maps[i].threshold_db() - config_.step_db >=
           config_.min_threshold_db - 1e-12) {
      ProximityMap trial(grid, maps[i].reader(), maps[i].tracking_rssi_dbm(),
                         maps[i].threshold_db() - config_.step_db);
      // Intersection with the trial map swapped in — no map-vector copy.
      BitMask trial_intersection = trial.mask();
      for (std::size_t m = 0; m < maps.size(); ++m) {
        if (m != i) trial_intersection &= maps[m].mask();
      }
      if (count_marked(trial_intersection) < min_area) break;
      maps[i] = std::move(trial);
      intersection = std::move(trial_intersection);
      ++result.refinement_steps;
      result.survivors_per_step.push_back(count_marked(intersection));
    }
    frozen[i] = true;
  }

  result.final_threshold_db = maps.front().threshold_db();
  for (const ProximityMap& map : maps) {
    result.thresholds_db[static_cast<std::size_t>(map.reader())] = map.threshold_db();
    result.final_threshold_db = std::min(result.final_threshold_db, map.threshold_db());
  }
  result.survivors = std::move(intersection);
  if (result.survivors.none()) {
    for (const ProximityMap& map : maps) result.survivors |= map.mask();
  }
  return result;
}

}  // namespace vire::core
