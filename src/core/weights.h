#pragma once
// Weighted-centroid estimation over the surviving regions (paper Sec. 4.3).
//
// Two weighting factors:
//   w1_i — RSSI-discrepancy weight. The paper's printed formula computes a
//          discrepancy d_i = sum_k |S_k(T_i)-S_k(R)| / (K*|S_k(T_i)|); the
//          accompanying text requires closer matches to weigh MORE, so we
//          use the normalised inverse 1/(d_i + eps) (see DESIGN.md note 1).
//   w2_i — density weight. With n_ci the size of the 4-connected cluster of
//          surviving regions containing region i, n_a the total region
//          count, and p_i = n_ci/n_a, w2_i ∝ p_i * n_ci = n_ci^2 / n_a,
//          normalised over survivors — "the densest area has the largest
//          weight".
// Combined: w_i = w1_i * w2_i, renormalised; (x,y) = sum_i w_i (x_i, y_i).

#include <vector>

#include "core/bitmask.h"
#include "core/virtual_grid.h"
#include "geom/vec2.h"
#include "sim/types.h"

namespace vire::core {

/// Which weights participate (kCombined is the paper; others for ablation).
enum class WeightingMode { kCombined, kW1Only, kW2Only, kUniform };

[[nodiscard]] std::string_view to_string(WeightingMode m) noexcept;

/// 4-connected component labelling of a mask laid out row-major on a
/// cols x rows lattice. Returns a label per cell (-1 for false cells) and
/// fills `component_sizes[label]`. The vector<bool> overload converts and
/// delegates (kept for callers/tests that still hold unpacked masks).
[[nodiscard]] std::vector<int> label_components(const BitMask& mask,
                                                int cols, int rows,
                                                std::vector<std::size_t>& component_sizes);
[[nodiscard]] std::vector<int> label_components(const std::vector<bool>& mask,
                                                int cols, int rows,
                                                std::vector<std::size_t>& component_sizes);

struct WeightedEstimate {
  geom::Vec2 position;
  std::vector<std::size_t> nodes;  ///< surviving node indices
  std::vector<double> weights;     ///< normalised, aligned with `nodes`
  /// Diagnostics: per-survivor raw w1/w2 (pre-normalisation).
  std::vector<double> w1;
  std::vector<double> w2;
  /// Per-cluster provenance: region count and total normalised weight of
  /// each 4-connected surviving cluster (aligned; cluster order = label
  /// order from label_components). Empty when nothing survived.
  std::vector<std::size_t> cluster_sizes;
  std::vector<double> cluster_weights;
};

/// Computes the weighted centroid of the surviving regions.
/// Returns nodes empty (position {0,0}) if no region survived.
/// `w1_exponent` sharpens the discrepancy weight: w1 = (1/(d+eps))^p. The
/// paper's formula corresponds to p = 1, which is also the VireConfig
/// default; p = 2 mirrors LANDMARC's own 1/E^2 convention and tightens the
/// centroid (see bench_ablation_weights). p = 1 takes w1 = 1/(d+eps) without
/// calling std::pow. That is bit-identical, not an approximation: glibc's pow
/// is accurate to < 1 ULP and the exact result x is representable, so
/// pow(x, 1.0) returns x itself. tests/core/weights_test.cpp pins this bit
/// for bit over the whole exponent range, so a libm that differs fails there.
[[nodiscard]] WeightedEstimate compute_estimate(const VirtualGrid& grid,
                                                const BitMask& survivors,
                                                const sim::RssiVector& tracking,
                                                WeightingMode mode = WeightingMode::kCombined,
                                                double w1_exponent = 1.0);
[[nodiscard]] WeightedEstimate compute_estimate(const VirtualGrid& grid,
                                                const std::vector<bool>& survivors,
                                                const sim::RssiVector& tracking,
                                                WeightingMode mode = WeightingMode::kCombined,
                                                double w1_exponent = 1.0);

}  // namespace vire::core
