#include "core/virtual_grid.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace vire::core {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Bilinear with *unclamped* fractional offsets relative to the nearest
/// valid cell — linear extrapolation for the boundary-extension ring. Used
/// by the non-linear interpolation methods; the kLinear sweep folds this
/// expression into interpolate_linear_plane().
double extrapolate_bilinear(std::span<const double> values, int cols, int rows,
                            double gx, double gy) {
  const int c0 = std::clamp(static_cast<int>(std::floor(gx)), 0, cols - 2);
  const int r0 = std::clamp(static_cast<int>(std::floor(gy)), 0, rows - 2);
  const double fx = gx - c0;  // may lie outside [0,1]
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

geom::RegularGrid make_virtual_lattice(const geom::RegularGrid& real_grid,
                                       const VirtualGridConfig& config) {
  if (config.subdivision < 1) {
    throw std::invalid_argument("VirtualGrid: subdivision must be >= 1");
  }
  if (config.boundary_extension_cells < 0) {
    throw std::invalid_argument("VirtualGrid: boundary extension must be >= 0");
  }
  const int n = config.subdivision;
  const int e = config.boundary_extension_cells;
  const double step = real_grid.step() / n;
  const geom::Vec2 origin{real_grid.origin().x - e * step,
                          real_grid.origin().y - e * step};
  const int cols = (real_grid.cols() - 1) * n + 1 + 2 * e;
  const int rows = (real_grid.rows() - 1) * n + 1 + 2 * e;
  return {origin, step, cols, rows};
}

}  // namespace

VirtualGrid::VirtualGrid(const geom::RegularGrid& real_grid,
                         const std::vector<sim::RssiVector>& reference_rssi,
                         VirtualGridConfig config)
    : config_(config),
      real_grid_(real_grid),
      virtual_grid_(make_virtual_lattice(real_grid, config)) {
  if (reference_rssi.size() != real_grid.node_count()) {
    throw std::invalid_argument(
        "VirtualGrid: reference RSSI count must match the real grid");
  }
  if (reference_rssi.empty()) {
    throw std::invalid_argument("VirtualGrid: empty reference set");
  }
  reader_count_ = static_cast<int>(reference_rssi.front().size());
  validate_references(reference_rssi);

  node_count_ = virtual_grid_.node_count();
  values_.assign(static_cast<std::size_t>(reader_count_) * node_count_, kNan);

  // Per-reader scalar field over the real lattice, one plane per reader.
  for (int k = 0; k < reader_count_; ++k) interpolate_reader(k, reference_rssi);
}

void VirtualGrid::validate_references(
    const std::vector<sim::RssiVector>& reference_rssi) const {
  for (const auto& v : reference_rssi) {
    if (static_cast<int>(v.size()) != reader_count_) {
      throw std::invalid_argument("VirtualGrid: inconsistent reader counts");
    }
  }
}

void VirtualGrid::reinterpolate_readers(
    const std::vector<sim::RssiVector>& reference_rssi,
    const std::vector<int>& readers) {
  if (reference_rssi.size() != real_grid_.node_count()) {
    throw std::invalid_argument(
        "VirtualGrid: reference RSSI count must match the real grid");
  }
  validate_references(reference_rssi);
  for (const int k : readers) {
    if (k < 0 || k >= reader_count_) {
      throw std::invalid_argument("VirtualGrid: reader index out of range");
    }
  }
  for (const int k : readers) interpolate_reader(k, reference_rssi);
}

void VirtualGrid::interpolate_reader(
    int k, const std::vector<sim::RssiVector>& reference_rssi) {
  const int real_cols = real_grid_.cols();
  const int real_rows = real_grid_.rows();
  const int n = config_.subdivision;
  const int e = config_.boundary_extension_cells;

  std::vector<double> real_values(real_grid_.node_count());
  for (std::size_t j = 0; j < reference_rssi.size(); ++j) {
    real_values[j] = reference_rssi[j][static_cast<std::size_t>(k)];
  }
  const std::span<double> out{values_.data() + static_cast<std::size_t>(k) * node_count_,
                              node_count_};
  if (config_.method == InterpolationMethod::kLinear) {
    interpolate_linear_plane(real_values, real_cols, real_rows, n, e,
                             virtual_grid_.cols(), virtual_grid_.rows(), out);
    return;
  }
  for (int vr = 0; vr < virtual_grid_.rows(); ++vr) {
    for (int vc = 0; vc < virtual_grid_.cols(); ++vc) {
      const double gx = static_cast<double>(vc - e) / n;
      const double gy = static_cast<double>(vr - e) / n;
      const std::size_t node = virtual_grid_.to_linear({vc, vr});
      const bool inside = gx >= 0.0 && gx <= real_cols - 1 && gy >= 0.0 &&
                          gy <= real_rows - 1;
      out[node] = inside ? interpolate_at(real_values, real_cols, real_rows, gx,
                                          gy, config_.method)
                         : extrapolate_bilinear(real_values, real_cols, real_rows,
                                                gx, gy);
    }
  }
}

bool VirtualGrid::node_valid(std::size_t node) const {
  for (int k = 0; k < reader_count_; ++k) {
    if (std::isnan(values_[static_cast<std::size_t>(k) * node_count_ + node])) {
      return false;
    }
  }
  return true;
}

}  // namespace vire::core
