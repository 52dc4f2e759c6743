#include "core/interpolation.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "core/locate_kernels.h"

namespace vire::core {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

double node(std::span<const double> values, int cols, int c, int r) {
  return values[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols) +
                static_cast<std::size_t>(c)];
}

/// Bilinear over the cell containing (gx, gy). NaN if any corner is NaN.
double bilinear(std::span<const double> values, int cols, int rows, double gx,
                double gy) {
  const int c0 = std::clamp(static_cast<int>(std::floor(gx)), 0, cols - 2);
  const int r0 = std::clamp(static_cast<int>(std::floor(gy)), 0, rows - 2);
  const double fx = std::clamp(gx - c0, 0.0, 1.0);
  const double fy = std::clamp(gy - r0, 0.0, 1.0);
  const double v00 = node(values, cols, c0, r0);
  const double v10 = node(values, cols, c0 + 1, r0);
  const double v01 = node(values, cols, c0, r0 + 1);
  const double v11 = node(values, cols, c0 + 1, r0 + 1);
  if (std::isnan(v00) || std::isnan(v10) || std::isnan(v01) || std::isnan(v11)) {
    return kNan;
  }
  const double bottom = v00 + (v10 - v00) * fx;
  const double top = v01 + (v11 - v01) * fx;
  return bottom + (top - bottom) * fy;
}

/// 1D sample with linearly-extrapolated ghost points beyond the lattice:
/// sample(-1) = 2*v[0] - v[1], sample(n) = 2*v[n-1] - v[n-2]. Clamping would
/// duplicate the edge sample and break the spline's linear precision in the
/// first/last cell. Returns NaN if any contributing node is NaN.
double sample_1d_extrapolated(const std::function<double(int)>& at, int i, int n) {
  if (i >= 0 && i < n) return at(i);
  if (i < 0) {
    const double v0 = at(0), v1 = at(std::min(1, n - 1));
    return v0 + (v0 - v1) * static_cast<double>(-i);
  }
  const double vn = at(n - 1), vp = at(std::max(0, n - 2));
  return vn + (vn - vp) * static_cast<double>(i - (n - 1));
}

double catmull_rom_2d(std::span<const double> values, int cols, int rows, double gx,
                      double gy) {
  const int c1 = std::clamp(static_cast<int>(std::floor(gx)), 0, cols - 2);
  const int r1 = std::clamp(static_cast<int>(std::floor(gy)), 0, rows - 2);
  const double tx = std::clamp(gx - c1, 0.0, 1.0);
  const double ty = std::clamp(gy - r1, 0.0, 1.0);

  double row_vals[4];
  for (int dr = -1; dr <= 2; ++dr) {
    const int r = std::clamp(r1 + dr, 0, rows - 1);
    const auto at_col = [&](int c) { return node(values, cols, c, r); };
    double p[4];
    for (int dc = -1; dc <= 2; ++dc) {
      p[dc + 1] = sample_1d_extrapolated(at_col, c1 + dc, cols);
      if (std::isnan(p[dc + 1])) return bilinear(values, cols, rows, gx, gy);
    }
    const double interim = catmull_rom(p[0], p[1], p[2], p[3], tx);
    row_vals[dr + 1] = interim;
  }
  // Extrapolate ghost rows the same way.
  double q[4];
  for (int dr = -1; dr <= 2; ++dr) {
    const int r = r1 + dr;
    if (r >= 0 && r < rows) {
      q[dr + 1] = row_vals[dr + 1];
    } else if (r < 0) {
      // rows r1-1 < 0 implies r1 == 0: mirror linearly from rows 0 and 1.
      q[dr + 1] = 2.0 * row_vals[1] - row_vals[2];
    } else {
      q[dr + 1] = 2.0 * row_vals[2] - row_vals[1];
    }
    if (std::isnan(q[dr + 1])) return bilinear(values, cols, rows, gx, gy);
  }
  return catmull_rom(q[0], q[1], q[2], q[3], ty);
}

double polynomial_2d(std::span<const double> values, int cols, int rows, double gx,
                     double gy) {
  // Separable full-degree Lagrange: interpolate each row at gx, then the
  // row results at gy. Any NaN in the lattice forces the bilinear fallback.
  for (double v : values) {
    if (std::isnan(v)) return bilinear(values, cols, rows, gx, gy);
  }
  std::vector<double> row_at_gx(static_cast<std::size_t>(rows));
  std::vector<double> row(static_cast<std::size_t>(cols));
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) row[static_cast<std::size_t>(c)] = node(values, cols, c, r);
    row_at_gx[static_cast<std::size_t>(r)] = lagrange(row, gx);
  }
  return lagrange(row_at_gx, gy);
}

}  // namespace

std::string_view to_string(InterpolationMethod m) noexcept {
  switch (m) {
    case InterpolationMethod::kLinear: return "linear";
    case InterpolationMethod::kCatmullRom: return "catmull-rom";
    case InterpolationMethod::kPolynomial: return "polynomial";
  }
  return "unknown";
}

double catmull_rom(double p0, double p1, double p2, double p3, double t) noexcept {
  const double t2 = t * t;
  const double t3 = t2 * t;
  return 0.5 * ((2.0 * p1) + (-p0 + p2) * t +
                (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3) * t2 +
                (-p0 + 3.0 * p1 - 3.0 * p2 + p3) * t3);
}

double lagrange(std::span<const double> y, double x) {
  const std::size_t n = y.size();
  if (n == 0) return kNan;
  if (n == 1) return y[0];
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double basis = 1.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      basis *= (x - static_cast<double>(j)) /
               (static_cast<double>(i) - static_cast<double>(j));
    }
    sum += y[i] * basis;
  }
  return sum;
}

void interpolate_linear_plane(std::span<const double> real_values, int real_cols,
                              int real_rows, int subdivision, int extension,
                              int virtual_cols, int virtual_rows,
                              std::span<double> out) {
  detail::kernels().interpolate_linear_plane(real_values, real_cols, real_rows,
                                             subdivision, extension, virtual_cols,
                                             virtual_rows, out);
}

double interpolate_at(std::span<const double> values, int cols, int rows, double gx,
                      double gy, InterpolationMethod method) {
  if (cols < 2 || rows < 2 ||
      values.size() < static_cast<std::size_t>(cols) * static_cast<std::size_t>(rows)) {
    return kNan;
  }
  gx = std::clamp(gx, 0.0, static_cast<double>(cols - 1));
  gy = std::clamp(gy, 0.0, static_cast<double>(rows - 1));
  switch (method) {
    case InterpolationMethod::kLinear:
      return bilinear(values, cols, rows, gx, gy);
    case InterpolationMethod::kCatmullRom:
      return catmull_rom_2d(values, cols, rows, gx, gy);
    case InterpolationMethod::kPolynomial:
      return polynomial_2d(values, cols, rows, gx, gy);
  }
  return kNan;
}

}  // namespace vire::core
