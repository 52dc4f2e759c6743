#include "core/proximity_map.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace vire::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

geom::RegularGrid paper_grid() { return {{0, 0}, 1.0, 4, 4}; }

std::vector<sim::RssiVector> synth_references() {
  std::vector<sim::RssiVector> refs;
  const auto grid = paper_grid();
  for (std::size_t i = 0; i < grid.node_count(); ++i) {
    const geom::Vec2 p = grid.position(i);
    refs.push_back({-50.0 - 5.0 * p.x, -50.0 - 5.0 * p.y});
  }
  return refs;
}

VirtualGrid make_grid(int subdivision = 10) {
  VirtualGridConfig config;
  config.subdivision = subdivision;
  return VirtualGrid(paper_grid(), synth_references(), config);
}

TEST(ProximityMap, MarksBandAroundMatchingIsoline) {
  const VirtualGrid vg = make_grid();
  // Reader 0's field is -50 - 5x: RSSI -60 corresponds to x = 2.
  const ProximityMap map(vg, 0, -60.0, /*threshold=*/1.0);
  EXPECT_GT(map.marked_count(), 0u);
  for (std::size_t node = 0; node < vg.node_count(); ++node) {
    const double x = vg.position(node).x;
    const bool should_mark = std::abs(x - 2.0) <= 0.2 + 1e-9;  // 1 dB / 5 dB/m
    EXPECT_EQ(map.marked(node), should_mark) << "x=" << x;
  }
}

TEST(ProximityMap, ZeroThresholdMarksExactMatchesOnly) {
  const VirtualGrid vg = make_grid();
  const ProximityMap map(vg, 0, -60.0, 0.0);
  for (std::size_t node = 0; node < vg.node_count(); ++node) {
    if (map.marked(node)) {
      EXPECT_NEAR(vg.position(node).x, 2.0, 1e-9);
    }
  }
  EXPECT_GT(map.marked_count(), 0u);
}

TEST(ProximityMap, HugeThresholdMarksEverything) {
  const VirtualGrid vg = make_grid();
  const ProximityMap map(vg, 0, -60.0, 1000.0);
  EXPECT_EQ(map.marked_count(), vg.node_count());
}

TEST(ProximityMap, NaNTrackingMarksNothing) {
  const VirtualGrid vg = make_grid();
  const ProximityMap map(vg, 0, kNan, 2.0);
  EXPECT_EQ(map.marked_count(), 0u);
}

TEST(ProximityMap, NegativeThresholdThrows) {
  const VirtualGrid vg = make_grid();
  EXPECT_THROW(ProximityMap(vg, 0, -60.0, -0.5), std::invalid_argument);
}

TEST(ProximityMap, LargerThresholdMarksSuperset) {
  const VirtualGrid vg = make_grid();
  const ProximityMap narrow(vg, 1, -57.5, 0.5);
  const ProximityMap wide(vg, 1, -57.5, 2.0);
  EXPECT_GT(wide.marked_count(), narrow.marked_count());
  for (std::size_t node = 0; node < vg.node_count(); ++node) {
    if (narrow.marked(node)) {
      EXPECT_TRUE(wide.marked(node));
    }
  }
}

TEST(IntersectMaps, KeepsOnlyCommonRegions) {
  const VirtualGrid vg = make_grid();
  // Reader 0 matches x ~ 2; reader 1 matches y ~ 1.
  const ProximityMap mx(vg, 0, -60.0, 1.0);
  const ProximityMap my(vg, 1, -55.0, 1.0);
  const auto intersection = intersect_maps({mx, my});
  const std::size_t count = count_marked(intersection);
  EXPECT_GT(count, 0u);
  EXPECT_LT(count, mx.marked_count());
  for (std::size_t node = 0; node < intersection.size(); ++node) {
    if (intersection[node]) {
      EXPECT_NEAR(vg.position(node).x, 2.0, 0.25);
      EXPECT_NEAR(vg.position(node).y, 1.0, 0.25);
    }
  }
}

TEST(IntersectMaps, EmptyInputGivesEmptyMask) {
  EXPECT_TRUE(intersect_maps({}).empty());
}

TEST(IntersectMaps, SingleMapIsIdentity) {
  const VirtualGrid vg = make_grid();
  const ProximityMap map(vg, 0, -60.0, 1.0);
  EXPECT_EQ(intersect_maps({map}), map.mask());
}

TEST(FillMaskFromDistances, MatchesPerLaneCompare) {
  // Every length from 0 to 200 covers whole words, partial tail words and
  // single-lane words; NaN distances never mark.
  std::mt19937_64 rng(0xf111);
  for (std::size_t n = 0; n <= 200; ++n) {
    std::vector<double> distances(n);
    for (double& d : distances) {
      d = std::uniform_real_distribution<double>(0.0, 4.0)(rng);
      if (std::uniform_int_distribution<int>(0, 9)(rng) == 0) d = kNan;
    }
    const double threshold = 2.0;
    BitMask mask(3, true);  // stale contents are replaced
    fill_mask_from_distances(distances, threshold, mask);
    ASSERT_EQ(mask.size(), n);
    std::size_t expected_count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool expected = distances[i] <= threshold;
      expected_count += expected ? 1 : 0;
      ASSERT_EQ(mask.test(i), expected) << "n=" << n << " lane " << i;
    }
    // The word tail beyond n stays zero, so the popcount agrees.
    EXPECT_EQ(mask.count(), expected_count) << "n=" << n;
  }
}

TEST(CountMarked, Counts) {
  EXPECT_EQ(count_marked({}), 0u);
  EXPECT_EQ(count_marked({true, false, true, true}), 3u);
}

}  // namespace
}  // namespace vire::core
