#include "core/proximity_map.h"

#include <cmath>
#include <stdexcept>

#include "core/locate_kernels.h"

namespace vire::core {

void fill_mask_from_distances(std::span<const double> distances, double threshold,
                              BitMask& mask) {
  detail::kernels().fill_mask_from_distances(distances, threshold, mask);
}

ProximityMap::ProximityMap(const VirtualGrid& grid, int reader,
                           double tracking_rssi_dbm, double threshold_db)
    : reader_(reader), threshold_db_(threshold_db), tracking_rssi_(tracking_rssi_dbm) {
  if (threshold_db < 0.0) {
    throw std::invalid_argument("ProximityMap: threshold must be >= 0");
  }
  const std::span<const double> values = grid.reader_values(reader);
  std::vector<double> distances(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    distances[i] = std::abs(values[i] - tracking_rssi_dbm);
  }
  fill_mask_from_distances(distances, threshold_db, mask_);
  marked_count_ = mask_.count();
}

BitMask intersect_maps(const std::vector<ProximityMap>& maps) {
  if (maps.empty()) return {};
  BitMask out = maps.front().mask();
  for (std::size_t m = 1; m < maps.size(); ++m) {
    const BitMask& mask = maps[m].mask();
    if (mask.size() != out.size()) {
      throw std::invalid_argument("intersect_maps: mask size mismatch");
    }
    out &= mask;
  }
  return out;
}

std::size_t count_marked(const BitMask& mask) noexcept { return mask.count(); }

}  // namespace vire::core
