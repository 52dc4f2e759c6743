#include "core/weights.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

namespace vire::core {
namespace {

geom::RegularGrid paper_grid() { return {{0, 0}, 1.0, 4, 4}; }

sim::RssiVector field_at(geom::Vec2 p) {
  static const geom::Vec2 readers[4] = {
      {-0.7, -0.7}, {3.7, -0.7}, {3.7, 3.7}, {-0.7, 3.7}};
  sim::RssiVector v;
  for (const auto& r : readers) {
    v.push_back(-40.0 - 20.0 * std::log10(std::max(0.1, p.distance_to(r))));
  }
  return v;
}

VirtualGrid make_grid(int subdivision = 10) {
  std::vector<sim::RssiVector> refs;
  for (std::size_t i = 0; i < paper_grid().node_count(); ++i) {
    refs.push_back(field_at(paper_grid().position(i)));
  }
  VirtualGridConfig config;
  config.subdivision = subdivision;
  return VirtualGrid(paper_grid(), refs, config);
}

TEST(LabelComponents, SingleBlob) {
  // 3x3 with a plus-shaped blob.
  const std::vector<bool> mask = {false, true, false, true, true,
                                  true,  false, true, false};
  std::vector<std::size_t> sizes;
  const auto labels = label_components(mask, 3, 3, sizes);
  ASSERT_EQ(sizes.size(), 1u);
  EXPECT_EQ(sizes[0], 5u);
  EXPECT_EQ(labels[4], 0);
  EXPECT_EQ(labels[0], -1);
}

TEST(LabelComponents, DiagonalNotConnected) {
  const std::vector<bool> mask = {true, false, false, true};  // 2x2 diagonal
  std::vector<std::size_t> sizes;
  (void)label_components(mask, 2, 2, sizes);
  EXPECT_EQ(sizes.size(), 2u);
}

TEST(LabelComponents, MultipleComponentsSized) {
  // 4x1: XX.X
  const std::vector<bool> mask = {true, true, false, true};
  std::vector<std::size_t> sizes;
  const auto labels = label_components(mask, 4, 1, sizes);
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 2u);
  EXPECT_EQ(sizes[1], 1u);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_NE(labels[0], labels[3]);
}

TEST(LabelComponents, EmptyMask) {
  std::vector<std::size_t> sizes;
  const auto labels = label_components(std::vector<bool>(9, false), 3, 3, sizes);
  EXPECT_TRUE(sizes.empty());
  for (int l : labels) EXPECT_EQ(l, -1);
}

TEST(LabelComponents, SizeMismatchThrows) {
  std::vector<std::size_t> sizes;
  EXPECT_THROW(label_components(std::vector<bool>(5, true), 3, 3, sizes),
               std::invalid_argument);
}

TEST(ComputeEstimate, EmptySurvivorsGiveEmptyResult) {
  const VirtualGrid vg = make_grid();
  const auto est = compute_estimate(vg, std::vector<bool>(vg.node_count(), false),
                                    field_at({1.5, 1.5}));
  EXPECT_TRUE(est.nodes.empty());
}

TEST(ComputeEstimate, WeightsSumToOne) {
  const VirtualGrid vg = make_grid();
  std::vector<bool> survivors(vg.node_count(), false);
  // A small blob near (1.5, 1.5).
  const std::size_t centre = vg.nearest_node({1.5, 1.5});
  survivors[centre] = survivors[centre + 1] = survivors[centre - 1] = true;
  const auto est = compute_estimate(vg, survivors, field_at({1.5, 1.5}));
  ASSERT_EQ(est.nodes.size(), 3u);
  double sum = 0;
  for (double w : est.weights) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(ComputeEstimate, EstimateInsideSurvivorBoundingBox) {
  const VirtualGrid vg = make_grid();
  std::vector<bool> survivors(vg.node_count(), false);
  geom::Vec2 lo{1e9, 1e9}, hi{-1e9, -1e9};
  for (std::size_t node = 0; node < vg.node_count(); ++node) {
    const geom::Vec2 p = vg.position(node);
    if (p.x > 0.9 && p.x < 1.6 && p.y > 1.9 && p.y < 2.4) {
      survivors[node] = true;
      lo.x = std::min(lo.x, p.x);
      lo.y = std::min(lo.y, p.y);
      hi.x = std::max(hi.x, p.x);
      hi.y = std::max(hi.y, p.y);
    }
  }
  const auto est = compute_estimate(vg, survivors, field_at({1.2, 2.1}));
  ASSERT_FALSE(est.nodes.empty());
  EXPECT_GE(est.position.x, lo.x);
  EXPECT_LE(est.position.x, hi.x);
  EXPECT_GE(est.position.y, lo.y);
  EXPECT_LE(est.position.y, hi.y);
}

TEST(ComputeEstimate, DensityWeightFavoursLargerCluster) {
  const VirtualGrid vg = make_grid();
  std::vector<bool> survivors(vg.node_count(), false);
  // Big cluster near (0.5, 0.5): 5x5 nodes; lone node at (2.5, 2.5).
  for (std::size_t node = 0; node < vg.node_count(); ++node) {
    const geom::Vec2 p = vg.position(node);
    if (std::abs(p.x - 0.5) <= 0.21 && std::abs(p.y - 0.5) <= 0.21) {
      survivors[node] = true;
    }
  }
  survivors[vg.nearest_node({2.5, 2.5})] = true;
  const auto est = compute_estimate(vg, survivors, field_at({0.5, 0.5}),
                                    WeightingMode::kW2Only);
  // w2 ~ n_ci^2: the 25-node blob dominates the singleton ~625:1.
  EXPECT_LT(geom::distance(est.position, {0.5, 0.5}), 0.15);
}

TEST(ComputeEstimate, W1FavoursCloserSignalMatch) {
  const VirtualGrid vg = make_grid();
  std::vector<bool> survivors(vg.node_count(), false);
  const std::size_t good = vg.nearest_node({1.5, 1.5});   // true position
  const std::size_t bad = vg.nearest_node({0.2, 2.8});
  survivors[good] = survivors[bad] = true;
  const auto est = compute_estimate(vg, survivors, field_at({1.5, 1.5}),
                                    WeightingMode::kW1Only);
  ASSERT_EQ(est.nodes.size(), 2u);
  // The matching node carries far more weight.
  const std::size_t good_idx = est.nodes[0] == good ? 0 : 1;
  EXPECT_GT(est.weights[good_idx], 0.8);
  EXPECT_LT(geom::distance(est.position, {1.5, 1.5}), 0.4);
}

TEST(ComputeEstimate, UniformModeIsPlainCentroid) {
  const VirtualGrid vg = make_grid();
  std::vector<bool> survivors(vg.node_count(), false);
  const std::size_t a = vg.nearest_node({1.0, 1.0});
  const std::size_t b = vg.nearest_node({2.0, 2.0});
  survivors[a] = survivors[b] = true;
  const auto est = compute_estimate(vg, survivors, field_at({1.5, 1.5}),
                                    WeightingMode::kUniform);
  EXPECT_NEAR(est.position.x, 1.5, 1e-9);
  EXPECT_NEAR(est.position.y, 1.5, 1e-9);
}

TEST(ComputeEstimate, CombinedIsProductOfW1W2) {
  const VirtualGrid vg = make_grid();
  std::vector<bool> survivors(vg.node_count(), false);
  const std::size_t centre = vg.nearest_node({1.5, 1.5});
  survivors[centre] = survivors[centre + 1] = true;
  survivors[vg.nearest_node({0.4, 0.4})] = true;
  const auto est = compute_estimate(vg, survivors, field_at({1.5, 1.5}),
                                    WeightingMode::kCombined);
  ASSERT_EQ(est.nodes.size(), 3u);
  for (std::size_t i = 0; i < est.nodes.size(); ++i) {
    const double raw = est.w1[i] * est.w2[i];
    // weights are the normalised product.
    EXPECT_NEAR(est.weights[i] / est.weights[0], raw / (est.w1[0] * est.w2[0]),
                1e-9);
  }
}

TEST(ComputeEstimate, W1ExponentSharpens) {
  const VirtualGrid vg = make_grid();
  std::vector<bool> survivors(vg.node_count(), false);
  const std::size_t good = vg.nearest_node({1.5, 1.5});
  const std::size_t bad = vg.nearest_node({2.5, 0.5});
  survivors[good] = survivors[bad] = true;
  const auto mild = compute_estimate(vg, survivors, field_at({1.5, 1.5}),
                                     WeightingMode::kW1Only, 1.0);
  const auto sharp = compute_estimate(vg, survivors, field_at({1.5, 1.5}),
                                      WeightingMode::kW1Only, 2.0);
  const auto weight_of = [&](const WeightedEstimate& est, std::size_t node) {
    for (std::size_t i = 0; i < est.nodes.size(); ++i) {
      if (est.nodes[i] == node) return est.weights[i];
    }
    return 0.0;
  };
  EXPECT_GT(weight_of(sharp, good), weight_of(mild, good));
}

// compute_estimate takes w1 = base instead of std::pow(base, 1.0) for the
// default exponent. That is only bit-identical if this libm returns x itself
// for pow(x, 1.0); pin it over positive finite doubles from every binade,
// subnormals included. The exponent is volatile so the compiler cannot fold
// the call away and the test really exercises the library.
TEST(PowExponentOne, ReturnsItsArgumentBitForBit) {
  volatile double one = 1.0;
  std::mt19937_64 rng(0x5eed);
  std::vector<double> xs = {std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::min(),
                            std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::epsilon(), 1.0};
  constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
  for (std::uint64_t i = 0; xs.size() < 200'000; ++i) {
    const std::uint64_t exponent = i % 2047;  // 0 = subnormal, 2046 = top finite
    const std::uint64_t bits = (exponent << 52) | (rng() & kMantissa);
    if (bits != 0) xs.push_back(std::bit_cast<double>(bits));
  }
  std::size_t mismatches = 0;
  for (const double x : xs) {
    const double y = std::pow(x, one);
    if (std::bit_cast<std::uint64_t>(y) != std::bit_cast<std::uint64_t>(x)) {
      if (++mismatches <= 5) ADD_FAILURE() << "pow(" << x << ", 1.0) = " << y;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << xs.size() << " values";
}

TEST(ComputeEstimate, MaskSizeMismatchThrows) {
  const VirtualGrid vg = make_grid();
  EXPECT_THROW(
      compute_estimate(vg, std::vector<bool>(5, true), field_at({1, 1})),
      std::invalid_argument);
}

TEST(WeightingMode, Names) {
  EXPECT_EQ(to_string(WeightingMode::kCombined), "w1*w2");
  EXPECT_EQ(to_string(WeightingMode::kW1Only), "w1-only");
  EXPECT_EQ(to_string(WeightingMode::kW2Only), "w2-only");
  EXPECT_EQ(to_string(WeightingMode::kUniform), "uniform");
}

}  // namespace
}  // namespace vire::core
