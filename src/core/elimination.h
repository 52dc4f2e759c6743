#pragma once
// Elimination of unlikely positions (paper Sec. 4.3).
//
// Fixed mode: every reader uses the same threshold; the per-reader proximity
// maps are intersected. Used by the Fig. 8 threshold sweep.
//
// Adaptive mode (the paper's threshold-reduction algorithm; the paper notes
// "at the last, the same threshold will be selected"): starting from a
// generous initial threshold, the common threshold is reduced step by step
// and stops just before the surviving intersection would drop below a
// minimum area (by default half a physical cell's worth of virtual regions
// — shrinking further makes the estimate latch onto single noisy regions).
//
// Both common-threshold modes run as one pass over the K reader planes that
// records, per node, the largest and smallest reader distance: the
// intersection at threshold t is then "largest <= t" and the union fallback
// "smallest <= t", so no per-reader map is ever built (docs/algorithm.md,
// "Data layout & SIMD").
//
// AdaptivePerReader mode: the literal greedy reading of the paper's
// three-step procedure — repeatedly pick the reader with the largest marked
// area and shrink its own threshold while the intersection keeps the
// minimum area. Kept for the ablation bench.

#include <vector>

#include "core/proximity_map.h"
#include "core/virtual_grid.h"
#include "sim/types.h"

namespace vire::core {

enum class ThresholdMode { kFixed, kAdaptive, kAdaptivePerReader };

struct EliminationConfig {
  ThresholdMode mode = ThresholdMode::kAdaptive;
  /// Threshold for kFixed mode (dB). Paper Fig. 8: best near 1-1.5 dB.
  double fixed_threshold_db = 1.5;
  /// Starting threshold for the adaptive modes (generous => large area).
  double initial_threshold_db = 4.0;
  /// Reduction step (dB).
  double step_db = 0.25;
  /// Lower bound on any threshold.
  double min_threshold_db = 0.5;
  /// Adaptive modes keep at least this fraction of one physical cell's
  /// virtual regions alive (0.5 => n^2/2 regions for subdivision n).
  double min_area_cell_fraction = 0.5;
};

struct EliminationResult {
  /// Intersection of the per-reader maps: the "most probable regions".
  BitMask survivors;
  /// Final per-reader thresholds (all equal except per-reader mode). The
  /// per-reader maps they define are rebuilt on demand by proximity_maps().
  std::vector<double> thresholds_db;
  /// Threshold-reduction steps actually applied by the adaptive modes (0 for
  /// kFixed): the refinement depth the runtime metrics track per locate.
  int refinement_steps = 0;
  /// Threshold-refinement provenance (the flight recorder's "why this fix"
  /// path): the starting common threshold, the accepted final one (the
  /// smallest per-reader threshold in kAdaptivePerReader mode), and the
  /// surviving-intersection size after the initial pass plus each accepted
  /// reduction — size refinement_steps + 1 whenever any reader voted.
  double initial_threshold_db = 0.0;
  double final_threshold_db = 0.0;
  std::vector<std::size_t> survivors_per_step;
  [[nodiscard]] std::size_t survivor_count() const noexcept {
    return count_marked(survivors);
  }
};

class EliminationEngine {
 public:
  explicit EliminationEngine(EliminationConfig config = {});

  /// Runs elimination for one tracking RSSI vector against the virtual grid.
  /// Readers whose tracking RSSI is NaN are skipped (their map marks
  /// nothing and does not participate in the intersection).
  [[nodiscard]] EliminationResult run(const VirtualGrid& grid,
                                      const sim::RssiVector& tracking) const;

  [[nodiscard]] const EliminationConfig& config() const noexcept { return config_; }

  /// Minimum surviving-region count for a grid (from min_area_cell_fraction).
  [[nodiscard]] std::size_t min_survivors(const VirtualGrid& grid) const noexcept;

 private:
  /// kFixed and kAdaptive: one common threshold for every voting reader.
  [[nodiscard]] EliminationResult run_common_threshold(
      const VirtualGrid& grid, const sim::RssiVector& tracking) const;
  [[nodiscard]] EliminationResult run_adaptive_per_reader(
      const VirtualGrid& grid, const sim::RssiVector& tracking) const;

  EliminationConfig config_;
};

/// The final per-reader proximity maps of `result` (diagnostics, Fig. 5-style
/// rendering): one map per reader with a non-NaN tracking RSSI, in reader
/// order, each at its threshold in result.thresholds_db. `tracking` must be
/// the vector the result was computed from.
[[nodiscard]] std::vector<ProximityMap> proximity_maps(const VirtualGrid& grid,
                                                       const sim::RssiVector& tracking,
                                                       const EliminationResult& result);

}  // namespace vire::core
