#pragma once
// The virtual reference grid (paper Sec. 4.2).
//
// Each physical cell (4 real reference tags, 1 m pitch in the paper's
// testbed) is subdivided into n x n virtual cells; the virtual reference
// tags at the subdivision nodes get per-reader RSSI values by interpolating
// the real tags' readings. For an R x C real grid the virtual lattice has
// ((C-1)n + 1) x ((R-1)n + 1) nodes; the paper's N^2 ≈ 900 corresponds to
// n = 10 on the 4x4 testbed (31^2 = 961 nodes).
//
// Storage is one flat row-major array, values_[k * node_count + node]: the
// proximity-map sweep walks a whole reader plane linearly, so keeping each
// plane contiguous (and planes adjacent) is what lets that loop vectorize.
// See docs/algorithm.md, "Data layout & SIMD".

#include <span>
#include <vector>

#include "core/interpolation.h"
#include "geom/grid.h"
#include "sim/types.h"

namespace vire::core {

struct VirtualGridConfig {
  /// Subdivision factor n (>= 1). n = 1 reproduces the real grid.
  int subdivision = 10;
  InterpolationMethod method = InterpolationMethod::kLinear;
  /// Extend the lattice this many *virtual* cells beyond the real grid on
  /// every side, filling values by linear extrapolation of the edge real
  /// tags. This is the library's boundary-compensation extension (paper
  /// Sec. 6 future work: tags "slightly placed outside the boundary" such
  /// as Tag 9 suffer most); 0 reproduces the paper exactly.
  int boundary_extension_cells = 0;
};

/// Per-reader RSSI values at every virtual node. Immutable through the
/// accessors; reinterpolate_readers() refreshes a subset of reader planes in
/// place when only those readers' reference readings changed.
class VirtualGrid {
 public:
  /// @param real_grid   geometry of the real reference-tag lattice
  /// @param reference_rssi  row-major per real node, one RssiVector (K
  ///                        readers) each — straight from the middleware
  /// @param config      subdivision / interpolation / boundary extension
  VirtualGrid(const geom::RegularGrid& real_grid,
              const std::vector<sim::RssiVector>& reference_rssi,
              VirtualGridConfig config = {});

  /// Re-interpolates only the listed readers' planes from fresh reference
  /// readings (same shape as the constructor's). Untouched planes keep their
  /// exact values, so the result is bit-identical to a full rebuild whenever
  /// the other readers' readings are unchanged — the engine's incremental
  /// refresh relies on exactly that.
  void reinterpolate_readers(const std::vector<sim::RssiVector>& reference_rssi,
                             const std::vector<int>& readers);

  [[nodiscard]] const geom::RegularGrid& grid() const noexcept { return virtual_grid_; }
  [[nodiscard]] const VirtualGridConfig& config() const noexcept { return config_; }
  [[nodiscard]] int reader_count() const noexcept { return reader_count_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return node_count_; }

  /// RSSI of virtual node `node` as seen by reader `k` (NaN if the
  /// interpolation stencil had missing reference readings).
  [[nodiscard]] double rssi(int k, std::size_t node) const {
    return values_[static_cast<std::size_t>(k) * node_count_ + node];
  }
  /// All node values for one reader (row-major over grid()), a contiguous
  /// plane of the flat array.
  [[nodiscard]] std::span<const double> reader_values(int k) const {
    return {values_.data() + static_cast<std::size_t>(k) * node_count_,
            node_count_};
  }

  /// True if the node has a valid (non-NaN) RSSI for every reader.
  [[nodiscard]] bool node_valid(std::size_t node) const;

  /// Position of a virtual node in metres.
  [[nodiscard]] geom::Vec2 position(std::size_t node) const {
    return virtual_grid_.position(node);
  }

  /// Nearest virtual node to a physical position.
  [[nodiscard]] std::size_t nearest_node(geom::Vec2 p) const {
    return virtual_grid_.to_linear(virtual_grid_.nearest(p));
  }

 private:
  void interpolate_reader(int k, const std::vector<sim::RssiVector>& reference_rssi);
  void validate_references(const std::vector<sim::RssiVector>& reference_rssi) const;

  VirtualGridConfig config_;
  geom::RegularGrid real_grid_;
  geom::RegularGrid virtual_grid_;
  int reader_count_ = 0;
  std::size_t node_count_ = 0;
  /// Flat SoA: values_[k * node_count_ + node] = RSSI of node for reader k.
  std::vector<double> values_;
};

}  // namespace vire::core
