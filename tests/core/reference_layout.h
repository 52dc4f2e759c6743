#pragma once
// Test-only reference implementation of the PRE-SoA data layout: nested
// per-reader vectors for the virtual grid, std::vector<bool> proximity
// masks, and the scalar elimination / weighting loops exactly as they were
// before the flat-array/bitset refactor. layout_equivalence_test.cpp runs
// both pipelines over fuzzed scenarios and asserts bit-for-bit agreement —
// this header is the executable specification of "nothing moved".
//
// Deliberately NOT shared with production code: it must stay a faithful
// transcription of the old loops, even where that is slower or clumsier.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "core/elimination.h"
#include "core/interpolation.h"
#include "core/weights.h"
#include "geom/grid.h"
#include "sim/types.h"

namespace vire::core::reference {

inline constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// The old VirtualGrid storage: values[k][node].
struct NestedGrid {
  geom::RegularGrid lattice{{0.0, 0.0}, 1.0, 2, 2};
  int subdivision = 1;
  int extension = 0;
  std::vector<std::vector<double>> values;
  [[nodiscard]] std::size_t node_count() const { return lattice.node_count(); }
  [[nodiscard]] int reader_count() const { return static_cast<int>(values.size()); }
};

/// Old out-of-lattice extrapolation (verbatim from the pre-refactor
/// virtual_grid.cpp).
inline double extrapolate_bilinear(const std::vector<double>& values, int cols,
                                   int rows, double gx, double gy) {
  const int c0 = std::clamp(static_cast<int>(std::floor(gx)), 0, cols - 2);
  const int r0 = std::clamp(static_cast<int>(std::floor(gy)), 0, rows - 2);
  const double fx = gx - c0;
  const double fy = gy - r0;
  auto node = [&](int c, int r) {
    return values[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols) +
                  static_cast<std::size_t>(c)];
  };
  const double v00 = node(c0, r0);
  const double v10 = node(c0 + 1, r0);
  const double v01 = node(c0, r0 + 1);
  const double v11 = node(c0 + 1, r0 + 1);
  if (std::isnan(v00) || std::isnan(v10) || std::isnan(v01) || std::isnan(v11)) {
    return kNan;
  }
  const double bottom = v00 + (v10 - v00) * fx;
  const double top = v01 + (v11 - v01) * fx;
  return bottom + (top - bottom) * fy;
}

/// Old VirtualGrid constructor loop: one nested vector per reader, per-node
/// interpolate_at / extrapolate dispatch.
inline NestedGrid build_grid(const geom::RegularGrid& real_grid,
                             const std::vector<sim::RssiVector>& reference_rssi,
                             int subdivision, int extension,
                             InterpolationMethod method) {
  NestedGrid grid;
  grid.subdivision = subdivision;
  grid.extension = extension;
  const double step = real_grid.step() / subdivision;
  const geom::Vec2 origin{real_grid.origin().x - extension * step,
                          real_grid.origin().y - extension * step};
  const int cols = (real_grid.cols() - 1) * subdivision + 1 + 2 * extension;
  const int rows = (real_grid.rows() - 1) * subdivision + 1 + 2 * extension;
  grid.lattice = geom::RegularGrid{origin, step, cols, rows};

  const int reader_count = static_cast<int>(reference_rssi.front().size());
  const int real_cols = real_grid.cols();
  const int real_rows = real_grid.rows();
  grid.values.assign(static_cast<std::size_t>(reader_count),
                     std::vector<double>(grid.lattice.node_count(), kNan));
  for (int k = 0; k < reader_count; ++k) {
    std::vector<double> real_values(real_grid.node_count());
    for (std::size_t j = 0; j < reference_rssi.size(); ++j) {
      real_values[j] = reference_rssi[j][static_cast<std::size_t>(k)];
    }
    auto& out = grid.values[static_cast<std::size_t>(k)];
    for (int vr = 0; vr < rows; ++vr) {
      for (int vc = 0; vc < cols; ++vc) {
        const double gx = static_cast<double>(vc - extension) / subdivision;
        const double gy = static_cast<double>(vr - extension) / subdivision;
        const std::size_t node = grid.lattice.to_linear({vc, vr});
        const bool inside = gx >= 0.0 && gx <= real_cols - 1 && gy >= 0.0 &&
                            gy <= real_rows - 1;
        out[node] = inside ? interpolate_at(real_values, real_cols, real_rows, gx,
                                            gy, method)
                           : extrapolate_bilinear(real_values, real_cols,
                                                  real_rows, gx, gy);
      }
    }
  }
  return grid;
}

/// Old ProximityMap constructor loop.
inline std::vector<bool> proximity_mask(const std::vector<double>& values,
                                        double tracking_rssi, double threshold) {
  std::vector<bool> mask(values.size(), false);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double v = values[i];
    if (std::isnan(v) || std::isnan(tracking_rssi)) continue;
    if (std::abs(v - tracking_rssi) <= threshold) mask[i] = true;
  }
  return mask;
}

inline std::size_t count(const std::vector<bool>& mask) {
  std::size_t n = 0;
  for (const bool b : mask) n += b ? 1 : 0;
  return n;
}

inline std::vector<bool> intersect(const std::vector<std::vector<bool>>& masks) {
  if (masks.empty()) return {};
  std::vector<bool> out = masks.front();
  for (std::size_t m = 1; m < masks.size(); ++m) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = out[i] && masks[m][i];
  }
  return out;
}

inline std::vector<bool> unite(const std::vector<std::vector<bool>>& masks,
                               std::size_t node_count) {
  std::vector<bool> out(node_count, false);
  for (const auto& mask : masks) {
    for (std::size_t i = 0; i < mask.size(); ++i) out[i] = out[i] || mask[i];
  }
  return out;
}

/// Result mirror of EliminationResult with the old representations.
struct EliminationRef {
  std::vector<bool> survivors;
  std::vector<double> thresholds_db;
  std::vector<std::vector<bool>> maps;
  std::vector<std::size_t> map_counts;
  int refinement_steps = 0;
  double initial_threshold_db = 0.0;
  double final_threshold_db = 0.0;
  std::vector<std::size_t> survivors_per_step;
};

inline std::vector<int> valid_readers(const sim::RssiVector& tracking) {
  std::vector<int> out;
  for (std::size_t k = 0; k < tracking.size(); ++k) {
    if (!std::isnan(tracking[k])) out.push_back(static_cast<int>(k));
  }
  return out;
}

inline std::size_t min_survivors(const NestedGrid& grid,
                                 const EliminationConfig& config) {
  const auto per_cell = static_cast<double>(grid.subdivision) *
                        static_cast<double>(grid.subdivision);
  const auto wanted =
      static_cast<std::size_t>(per_cell * config.min_area_cell_fraction);
  return std::max<std::size_t>(1, wanted);
}

inline std::vector<std::vector<bool>> build_masks(const NestedGrid& grid,
                                                  const sim::RssiVector& tracking,
                                                  const std::vector<int>& readers,
                                                  double threshold) {
  std::vector<std::vector<bool>> masks;
  masks.reserve(readers.size());
  for (const int k : readers) {
    masks.push_back(proximity_mask(grid.values[static_cast<std::size_t>(k)],
                                   tracking[static_cast<std::size_t>(k)],
                                   threshold));
  }
  return masks;
}

/// Old elimination, all three modes, transcribed onto the nested layout.
inline EliminationRef run_elimination(const NestedGrid& grid,
                                      const sim::RssiVector& tracking,
                                      const EliminationConfig& config) {
  EliminationRef result;
  const std::vector<int> readers = valid_readers(tracking);

  if (config.mode == ThresholdMode::kFixed) {
    result.thresholds_db.assign(tracking.size(), config.fixed_threshold_db);
    result.initial_threshold_db = config.fixed_threshold_db;
    result.final_threshold_db = config.fixed_threshold_db;
    result.maps = build_masks(grid, tracking, readers, config.fixed_threshold_db);
    result.survivors = result.maps.empty()
                           ? std::vector<bool>(grid.node_count(), false)
                           : intersect(result.maps);
    if (!result.maps.empty()) {
      result.survivors_per_step.push_back(count(result.survivors));
    }
    if (!result.maps.empty() && count(result.survivors) == 0) {
      result.survivors = unite(result.maps, grid.node_count());
    }
  } else if (config.mode == ThresholdMode::kAdaptive) {
    result.thresholds_db.assign(tracking.size(), config.initial_threshold_db);
    result.initial_threshold_db = config.initial_threshold_db;
    result.final_threshold_db = config.initial_threshold_db;
    if (readers.empty()) {
      result.survivors.assign(grid.node_count(), false);
      return result;
    }
    const std::size_t min_area = min_survivors(grid, config);
    double best_threshold = config.initial_threshold_db;
    auto best_maps = build_masks(grid, tracking, readers, best_threshold);
    auto best_intersection = intersect(best_maps);
    result.survivors_per_step.push_back(count(best_intersection));
    for (double threshold = config.initial_threshold_db - config.step_db;
         threshold >= config.min_threshold_db - 1e-12;
         threshold -= config.step_db) {
      auto maps = build_masks(grid, tracking, readers, threshold);
      auto intersection = intersect(maps);
      if (count(intersection) < min_area) break;
      best_threshold = threshold;
      best_maps = std::move(maps);
      best_intersection = std::move(intersection);
      ++result.refinement_steps;
      result.survivors_per_step.push_back(count(best_intersection));
    }
    for (const int k : readers) {
      result.thresholds_db[static_cast<std::size_t>(k)] = best_threshold;
    }
    result.final_threshold_db = best_threshold;
    result.maps = std::move(best_maps);
    result.survivors = std::move(best_intersection);
    if (count(result.survivors) == 0) {
      result.survivors = unite(result.maps, grid.node_count());
    }
  } else {  // kAdaptivePerReader
    result.thresholds_db.assign(tracking.size(), config.initial_threshold_db);
    result.initial_threshold_db = config.initial_threshold_db;
    result.final_threshold_db = config.initial_threshold_db;
    if (readers.empty()) {
      result.survivors.assign(grid.node_count(), false);
      return result;
    }
    const std::size_t min_area = min_survivors(grid, config);
    auto maps = build_masks(grid, tracking, readers, config.initial_threshold_db);
    std::vector<double> thresholds(readers.size(), config.initial_threshold_db);
    std::vector<bool> frozen(readers.size(), false);
    auto intersection = intersect(maps);
    result.survivors_per_step.push_back(count(intersection));
    while (true) {
      int best = -1;
      std::size_t best_marked = 0;
      for (std::size_t i = 0; i < maps.size(); ++i) {
        if (frozen[i]) continue;
        if (best < 0 || count(maps[i]) > best_marked) {
          best = static_cast<int>(i);
          best_marked = count(maps[i]);
        }
      }
      if (best < 0) break;
      const auto i = static_cast<std::size_t>(best);
      while (thresholds[i] - config.step_db >= config.min_threshold_db - 1e-12) {
        const double candidate = thresholds[i] - config.step_db;
        auto trial =
            proximity_mask(grid.values[static_cast<std::size_t>(readers[i])],
                           tracking[static_cast<std::size_t>(readers[i])],
                           candidate);
        auto trial_maps = maps;
        trial_maps[i] = trial;
        auto trial_intersection = intersect(trial_maps);
        if (count(trial_intersection) < min_area) break;
        thresholds[i] = candidate;
        maps[i] = std::move(trial);
        intersection = std::move(trial_intersection);
        ++result.refinement_steps;
        result.survivors_per_step.push_back(count(intersection));
      }
      frozen[i] = true;
    }
    for (std::size_t i = 0; i < readers.size(); ++i) {
      result.thresholds_db[static_cast<std::size_t>(readers[i])] = thresholds[i];
    }
    result.final_threshold_db =
        *std::min_element(thresholds.begin(), thresholds.end());
    result.maps = std::move(maps);
    result.survivors = std::move(intersection);
    if (count(result.survivors) == 0) {
      result.survivors = unite(result.maps, grid.node_count());
    }
  }
  result.map_counts.reserve(result.maps.size());
  for (const auto& m : result.maps) result.map_counts.push_back(count(m));
  return result;
}

/// Flood-fill 4-connected labelling, seeded from each unlabelled set cell in
/// ascending index order (the labelling compute_estimate used before it
/// switched to runs). Kept here so the oracle never calls the production
/// labeller it is checking.
inline std::vector<int> label_components(const std::vector<bool>& mask, int cols,
                                         int rows,
                                         std::vector<std::size_t>& component_sizes) {
  component_sizes.clear();
  std::vector<int> labels(mask.size(), -1);
  const auto width = static_cast<std::size_t>(cols);
  const std::size_t n = static_cast<std::size_t>(cols) * static_cast<std::size_t>(rows);
  std::vector<std::size_t> stack;
  for (std::size_t seed = 0; seed < n; ++seed) {
    if (!mask[seed] || labels[seed] >= 0) continue;
    const int label = static_cast<int>(component_sizes.size());
    std::size_t size = 0;
    labels[seed] = label;
    stack.push_back(seed);
    auto visit = [&](std::size_t idx) {
      if (mask[idx] && labels[idx] < 0) {
        labels[idx] = label;
        stack.push_back(idx);
      }
    };
    while (!stack.empty()) {
      const std::size_t cur = stack.back();
      stack.pop_back();
      ++size;
      const std::size_t col = cur % width;
      if (col > 0) visit(cur - 1);
      if (col + 1 < width) visit(cur + 1);
      if (cur >= width) visit(cur - width);
      if (cur + width < n) visit(cur + width);
    }
    component_sizes.push_back(size);
  }
  return labels;
}

/// Old compute_estimate on the nested layout (w1/w2 weighted centroid).
/// Returns the centroid, the surviving nodes and normalised weights, and
/// each cluster's size and summed weight.
struct EstimateRef {
  geom::Vec2 position;
  std::vector<std::size_t> nodes;
  std::vector<double> weights;
  std::vector<std::size_t> cluster_sizes;
  std::vector<double> cluster_weights;
};

inline EstimateRef compute_estimate(const NestedGrid& grid,
                                    const std::vector<bool>& survivors,
                                    const sim::RssiVector& tracking,
                                    WeightingMode mode, double w1_exponent) {
  EstimateRef est;
  std::vector<std::size_t> component_sizes;
  const std::vector<int> labels = label_components(
      survivors, grid.lattice.cols(), grid.lattice.rows(), component_sizes);

  constexpr double kEps = 1e-6;
  const int reader_count = grid.reader_count();
  std::vector<double> w1s;
  std::vector<double> w2s;
  for (std::size_t node = 0; node < survivors.size(); ++node) {
    if (!survivors[node]) continue;
    double discrepancy = 0.0;
    int used = 0;
    for (int k = 0; k < reader_count; ++k) {
      const double s_node = grid.values[static_cast<std::size_t>(k)][node];
      const double s_track = tracking[static_cast<std::size_t>(k)];
      if (std::isnan(s_node) || std::isnan(s_track)) continue;
      const double denom = std::max(std::abs(s_node), kEps);
      discrepancy += std::abs(s_node - s_track) / denom;
      ++used;
    }
    if (used == 0) continue;
    discrepancy /= used;
    const double w1 = std::pow(1.0 / (discrepancy + kEps), w1_exponent);
    const auto size = static_cast<double>(
        component_sizes[static_cast<std::size_t>(labels[node])]);
    const double w2 = size * size;
    est.nodes.push_back(node);
    w1s.push_back(w1);
    w2s.push_back(w2);
  }
  est.cluster_sizes = component_sizes;
  est.cluster_weights.assign(component_sizes.size(), 0.0);
  if (est.nodes.empty()) return est;

  est.weights.resize(est.nodes.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < est.nodes.size(); ++i) {
    double w = 1.0;
    switch (mode) {
      case WeightingMode::kCombined: w = w1s[i] * w2s[i]; break;
      case WeightingMode::kW1Only: w = w1s[i]; break;
      case WeightingMode::kW2Only: w = w2s[i]; break;
      case WeightingMode::kUniform: w = 1.0; break;
    }
    est.weights[i] = w;
    sum += w;
  }
  geom::Vec2 position{0.0, 0.0};
  for (std::size_t i = 0; i < est.nodes.size(); ++i) {
    est.weights[i] /= sum;
    position += grid.lattice.position(est.nodes[i]) * est.weights[i];
    est.cluster_weights[static_cast<std::size_t>(labels[est.nodes[i]])] +=
        est.weights[i];
  }
  est.position = position;
  return est;
}

}  // namespace vire::core::reference
