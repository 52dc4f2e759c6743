#include "core/weights.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/locate_kernels.h"

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

namespace {

/// The one weighting kernel behind compute_estimate() and
/// summarize_estimate() (core/locate_kernels.inc).
void weigh(const VirtualGrid& grid, const BitMask& survivors,
           const sim::RssiVector& tracking, WeightingMode mode, double w1_exponent,
           EstimateSummary& out, WeightedEstimate* per_node) {
  if (survivors.size() != grid.node_count()) {
    throw std::invalid_argument("compute_estimate: survivor mask size mismatch");
  }
  detail::kernels().weigh(grid.grid(), grid.planes(), survivors, tracking, mode,
                          w1_exponent, out, per_node);
}

}  // namespace

std::vector<int> label_components(const BitMask& mask, int cols, int rows,
                                  std::vector<std::size_t>& component_sizes) {
  if (cols < 0 || rows < 0 ||
      mask.size() != static_cast<std::size_t>(cols) * static_cast<std::size_t>(rows)) {
    throw std::invalid_argument("label_components: mask/lattice size mismatch");
  }
  detail::LocateScratch& scratch = detail::locate_scratch();
  detail::kernels().label_runs(mask, static_cast<std::size_t>(cols),
                               static_cast<std::size_t>(rows), scratch.runs,
                               scratch.parent, component_sizes);
  std::vector<int> labels(mask.size(), -1);
  for (const detail::Run& run : scratch.runs) {
    std::fill(labels.begin() + static_cast<std::ptrdiff_t>(run.start),
              labels.begin() + static_cast<std::ptrdiff_t>(run.end),
              static_cast<int>(run.label));
  }
  return labels;
}

WeightedEstimate compute_estimate(const VirtualGrid& grid, const BitMask& survivors,
                                  const sim::RssiVector& tracking, WeightingMode mode,
                                  double w1_exponent) {
  WeightedEstimate est;
  EstimateSummary summary;
  weigh(grid, survivors, tracking, mode, w1_exponent, summary, &est);
  est.position = summary.position;
  est.cluster_sizes = std::move(summary.cluster_sizes);
  est.cluster_weights = std::move(summary.cluster_weights);
  return est;
}

EstimateSummary summarize_estimate(const VirtualGrid& grid, const BitMask& survivors,
                                   const sim::RssiVector& tracking, WeightingMode mode,
                                   double w1_exponent) {
  EstimateSummary summary;
  weigh(grid, survivors, tracking, mode, w1_exponent, summary, nullptr);
  return summary;
}

}  // namespace vire::core
