#include "core/proximity_map.h"

#include <cmath>
#include <stdexcept>

namespace vire::core {

void fill_mask_from_distances(std::span<const double> distances, double threshold,
                              BitMask& mask) {
  mask.assign(distances.size(), false);
  const std::span<BitMask::Word> words = mask.words();
  const std::size_t n = distances.size();
  std::size_t i = 0;
  for (std::size_t w = 0; w < words.size(); ++w) {
    const std::size_t lanes = std::min<std::size_t>(BitMask::kWordBits, n - i);
    BitMask::Word bits = 0;
    // A NaN distance (NaN node value or NaN tracking RSSI) compares false,
    // exactly like the explicit isnan-skip in the scalar loop this replaces.
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      bits |= static_cast<BitMask::Word>(distances[i + lane] <= threshold) << lane;
    }
    words[w] = bits;
    i += lanes;
  }
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
