#include "core/proximity_map.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

namespace vire::core {

namespace {

/// Packs 64 0/1 bytes into a word, byte i to bit i. On little-endian
/// targets eight bytes at a time: multiplying by 0x0102040810204080 moves
/// byte i's low bit to bit 56 + i with no carries (each product bit lands on
/// its own position), so the top byte is the eight flags in order.
BitMask::Word pack_flags(const std::array<unsigned char, BitMask::kWordBits>& flags) {
  BitMask::Word word = 0;
  if constexpr (std::endian::native == std::endian::little) {
    for (std::size_t b = 0; b < BitMask::kWordBits / 8; ++b) {
      std::uint64_t group = 0;
      std::memcpy(&group, flags.data() + 8 * b, sizeof group);
      word |= ((group * 0x0102040810204080ULL) >> 56) << (8 * b);
    }
  } else {
    for (std::size_t lane = 0; lane < BitMask::kWordBits; ++lane) {
      word |= static_cast<BitMask::Word>(flags[lane]) << lane;
    }
  }
  return word;
}

}  // namespace

void fill_mask_from_distances(std::span<const double> distances, double threshold,
                              BitMask& mask) {
  mask.assign(distances.size(), false);
  const std::span<BitMask::Word> words = mask.words();
  const std::size_t n = distances.size();
  std::size_t i = 0;
  for (std::size_t w = 0; w < words.size(); ++w) {
    const std::size_t lanes = std::min<std::size_t>(BitMask::kWordBits, n - i);
    // One 0/1 byte per lane first: the compares carry no dependency on each
    // other, unlike OR-ing each bit into the word in turn. A NaN distance
    // (NaN node value or NaN tracking RSSI) compares false, exactly like the
    // explicit isnan-skip in the scalar loop this replaces.
    std::array<unsigned char, BitMask::kWordBits> flags{};
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      flags[lane] = static_cast<unsigned char>(distances[i + lane] <= threshold);
    }
    words[w] = pack_flags(flags);
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
