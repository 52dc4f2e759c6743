#include "core/weights.h"

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

namespace vire::core {

std::string_view to_string(WeightingMode m) noexcept {
  switch (m) {
    case WeightingMode::kCombined: return "w1*w2";
    case WeightingMode::kW1Only: return "w1-only";
    case WeightingMode::kW2Only: return "w2-only";
    case WeightingMode::kUniform: return "uniform";
  }
  return "unknown";
}

std::vector<int> label_components(const std::vector<bool>& mask, int cols, int rows,
                                  std::vector<std::size_t>& component_sizes) {
  return label_components(BitMask(mask), cols, rows, component_sizes);
}

std::vector<int> label_components(const BitMask& mask, int cols, int rows,
                                  std::vector<std::size_t>& component_sizes) {
  if (mask.size() != static_cast<std::size_t>(cols) * static_cast<std::size_t>(rows)) {
    throw std::invalid_argument("label_components: mask/lattice size mismatch");
  }
  component_sizes.clear();
  std::vector<int> labels(mask.size(), -1);
  const auto width = static_cast<std::size_t>(cols);
  const std::size_t n = mask.size();
  // Each stack entry carries its column, so neighbours are found by index
  // arithmetic alone: the % and / happen once per component, not per node.
  struct Cell {
    std::size_t idx;
    std::size_t col;
  };
  std::vector<Cell> stack;

  mask.for_each_set([&](std::size_t seed) {
    if (labels[seed] >= 0) return;
    const int label = static_cast<int>(component_sizes.size());
    std::size_t size = 0;
    labels[seed] = label;
    stack.push_back({seed, seed % width});
    auto visit = [&](std::size_t idx, std::size_t col) {
      if (mask.test(idx) && labels[idx] < 0) {
        labels[idx] = label;
        stack.push_back({idx, col});
      }
    };
    while (!stack.empty()) {
      const Cell cur = stack.back();
      stack.pop_back();
      ++size;
      if (cur.col > 0) visit(cur.idx - 1, cur.col - 1);
      if (cur.col + 1 < width) visit(cur.idx + 1, cur.col + 1);
      if (cur.idx >= width) visit(cur.idx - width, cur.col);
      if (cur.idx + width < n) visit(cur.idx + width, cur.col);
    }
    component_sizes.push_back(size);
  });
  return labels;
}

WeightedEstimate compute_estimate(const VirtualGrid& grid,
                                  const std::vector<bool>& survivors,
                                  const sim::RssiVector& tracking,
                                  WeightingMode mode, double w1_exponent) {
  return compute_estimate(grid, BitMask(survivors), tracking, mode, w1_exponent);
}

WeightedEstimate compute_estimate(const VirtualGrid& grid,
                                  const BitMask& survivors,
                                  const sim::RssiVector& tracking,
                                  WeightingMode mode, double w1_exponent) {
  WeightedEstimate est;
  if (survivors.size() != grid.node_count()) {
    throw std::invalid_argument("compute_estimate: survivor mask size mismatch");
  }

  std::vector<std::size_t> component_sizes;
  const std::vector<int> labels = label_components(
      survivors, grid.grid().cols(), grid.grid().rows(), component_sizes);

  constexpr double kEps = 1e-6;
  const int reader_count = grid.reader_count();

  const std::size_t survivor_count = survivors.count();
  est.nodes.reserve(survivor_count);
  est.w1.reserve(survivor_count);
  est.w2.reserve(survivor_count);
  survivors.for_each_set([&](std::size_t node) {
    // w1: inverse normalised RSSI discrepancy across readers.
    double discrepancy = 0.0;
    int used = 0;
    for (int k = 0; k < reader_count; ++k) {
      const double s_node = grid.rssi(k, node);
      const double s_track = tracking[static_cast<std::size_t>(k)];
      if (std::isnan(s_node) || std::isnan(s_track)) continue;
      const double denom = std::max(std::abs(s_node), kEps);
      discrepancy += std::abs(s_node - s_track) / denom;
      ++used;
    }
    if (used == 0) return;  // node incomparable with this tracking vector
    discrepancy /= used;
    // pow(x, 1.0) == x exactly (see weights.h), so the default exponent
    // skips the libm call without moving a bit.
    const double base = 1.0 / (discrepancy + kEps);
    const double w1 = w1_exponent == 1.0 ? base : std::pow(base, w1_exponent);

    // w2: density weight n_ci^2 (normalisation constants cancel below).
    const auto size = static_cast<double>(component_sizes[
        static_cast<std::size_t>(labels[node])]);
    const double w2 = size * size;

    est.nodes.push_back(node);
    est.w1.push_back(w1);
    est.w2.push_back(w2);
  });

  est.cluster_weights.assign(component_sizes.size(), 0.0);
  est.cluster_sizes = std::move(component_sizes);
  if (est.nodes.empty()) return est;

  est.weights.resize(est.nodes.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < est.nodes.size(); ++i) {
    double w = 1.0;
    switch (mode) {
      case WeightingMode::kCombined: w = est.w1[i] * est.w2[i]; break;
      case WeightingMode::kW1Only: w = est.w1[i]; break;
      case WeightingMode::kW2Only: w = est.w2[i]; break;
      case WeightingMode::kUniform: w = 1.0; break;
    }
    est.weights[i] = w;
    sum += w;
  }
  geom::Vec2 position{0.0, 0.0};
  for (std::size_t i = 0; i < est.nodes.size(); ++i) {
    est.weights[i] /= sum;
    position += grid.position(est.nodes[i]) * est.weights[i];
    est.cluster_weights[static_cast<std::size_t>(labels[est.nodes[i]])] +=
        est.weights[i];
  }
  est.position = position;
  return est;
}

}  // namespace vire::core
