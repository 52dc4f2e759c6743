#pragma once
// Per-reader proximity maps (paper Sec. 4.3).
//
// A proximity map divides the sensing area into regions centred on virtual
// reference tags. For a tracking tag with RSSI s_k at reader k, the map
// marks region i iff |S_k(T_i) - s_k| <= threshold. The K per-reader maps
// are then intersected ("elimination") to keep only positions plausible to
// every reader.
//
// Masks are word-packed (see core/bitmask.h): intersect_maps() is a
// word-wise AND and count_marked() a popcount. The common-threshold
// elimination modes never build these maps (see core/elimination.h); they
// serve the per-reader mode and diagnostics via proximity_maps().

#include <cstddef>
#include <span>
#include <vector>

#include "core/bitmask.h"
#include "core/virtual_grid.h"

namespace vire::core {

/// A binary mask over the virtual grid nodes for one reader.
class ProximityMap {
 public:
  /// Builds the map for reader `k`: marks nodes whose interpolated RSSI is
  /// within `threshold_db` of `tracking_rssi_dbm`. Invalid (NaN) nodes are
  /// never marked.
  ProximityMap(const VirtualGrid& grid, int reader, double tracking_rssi_dbm,
               double threshold_db);

  [[nodiscard]] int reader() const noexcept { return reader_; }
  [[nodiscard]] double threshold_db() const noexcept { return threshold_db_; }
  [[nodiscard]] double tracking_rssi_dbm() const noexcept { return tracking_rssi_; }

  [[nodiscard]] const BitMask& mask() const noexcept { return mask_; }
  [[nodiscard]] bool marked(std::size_t node) const { return mask_[node]; }
  [[nodiscard]] std::size_t marked_count() const noexcept { return marked_count_; }
  [[nodiscard]] std::size_t size() const noexcept { return mask_.size(); }

 private:
  int reader_;
  double threshold_db_;
  double tracking_rssi_;
  BitMask mask_;
  std::size_t marked_count_ = 0;
};

/// Packs `distances[i] <= threshold` into `mask` (word-wise; NaN compares
/// false). The packing kernel behind ProximityMap and the elimination
/// survivor mask.
void fill_mask_from_distances(std::span<const double> distances, double threshold,
                              BitMask& mask);

/// Intersection of per-reader masks; the "most probable regions".
[[nodiscard]] BitMask intersect_maps(const std::vector<ProximityMap>& maps);

/// Number of true cells in a mask.
[[nodiscard]] std::size_t count_marked(const BitMask& mask) noexcept;

}  // namespace vire::core
