#include "core/weights.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <string_view>

#include "reference_layout.h"

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
  const auto labels = label_components(BitMask(mask), 3, 3, sizes);
  ASSERT_EQ(sizes.size(), 1u);
  EXPECT_EQ(sizes[0], 5u);
  EXPECT_EQ(labels[4], 0);
  EXPECT_EQ(labels[0], -1);
}

TEST(LabelComponents, DiagonalNotConnected) {
  const std::vector<bool> mask = {true, false, false, true};  // 2x2 diagonal
  std::vector<std::size_t> sizes;
  (void)label_components(BitMask(mask), 2, 2, sizes);
  EXPECT_EQ(sizes.size(), 2u);
}

TEST(LabelComponents, MultipleComponentsSized) {
  // 4x1: XX.X
  const std::vector<bool> mask = {true, true, false, true};
  std::vector<std::size_t> sizes;
  const auto labels = label_components(BitMask(mask), 4, 1, sizes);
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 2u);
  EXPECT_EQ(sizes[1], 1u);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_NE(labels[0], labels[3]);
}

TEST(LabelComponents, EmptyMask) {
  std::vector<std::size_t> sizes;
  const auto labels = label_components(BitMask(9), 3, 3, sizes);
  EXPECT_TRUE(sizes.empty());
  for (int l : labels) EXPECT_EQ(l, -1);
}

TEST(LabelComponents, SizeMismatchThrows) {
  std::vector<std::size_t> sizes;
  EXPECT_THROW(label_components(BitMask(5, true), 3, 3, sizes),
               std::invalid_argument);
}

/// A mask drawn row by row ('#' set, '.' clear), row 0 first.
struct Picture {
  BitMask mask;
  int cols = 0;
  int rows = 0;
};

Picture picture(std::initializer_list<std::string_view> lines) {
  Picture p;
  p.rows = static_cast<int>(lines.size());
  p.cols = static_cast<int>(lines.begin()->size());
  p.mask = BitMask(static_cast<std::size_t>(p.rows) * static_cast<std::size_t>(p.cols));
  std::size_t i = 0;
  for (const std::string_view line : lines) {
    for (const char c : line) p.mask.set(i++, c == '#');
  }
  return p;
}

/// Labels `p` and checks them against the oracle's flood fill, cell for cell.
std::vector<int> expect_labels_match_flood_fill(const Picture& p,
                                                std::vector<std::size_t>& sizes) {
  const std::vector<int> labels = label_components(p.mask, p.cols, p.rows, sizes);
  std::vector<std::size_t> want_sizes;
  const std::vector<int> want =
      reference::label_components(p.mask.to_bools(), p.cols, p.rows, want_sizes);
  EXPECT_EQ(labels, want);
  EXPECT_EQ(sizes, want_sizes);
  return labels;
}

TEST(LabelComponents, UShapeMergesAtTheBottomRow) {
  // The two arms are separate runs until the last row joins them.
  const Picture p = picture({"#...#",
                             "#...#",
                             "#####"});
  std::vector<std::size_t> sizes;
  const auto labels = expect_labels_match_flood_fill(p, sizes);
  ASSERT_EQ(sizes.size(), 1u);
  EXPECT_EQ(sizes[0], 9u);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(labels[i], p.mask.test(i) ? 0 : -1) << "cell " << i;
  }
}

TEST(LabelComponents, CombTeethMergeLateAndKeepSmallestNodeOrder) {
  // Four teeth stand on a bar in row 3, so they are separate runs until
  // then; the second tooth is a single cell that never reaches the bar and
  // stays its own component. Labels follow each component's smallest cell:
  // the comb (cell 0) is 0, the lone cell (2) is 1, and the cell below the
  // bar joins the comb.
  const Picture p = picture({"#.#.#.#",
                             "#...#.#",
                             "#...#.#",
                             "#######",
                             ".....#."});
  std::vector<std::size_t> sizes;
  const auto labels = expect_labels_match_flood_fill(p, sizes);
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(labels[0], 0);
  EXPECT_EQ(labels[2], 1);
  EXPECT_EQ(labels[4], 0);
  EXPECT_EQ(labels[6], 0);
  EXPECT_EQ(labels[4 * 7 + 5], 0);  // joined through the bar above it
  EXPECT_EQ(sizes[0], 17u);
  EXPECT_EQ(sizes[1], 1u);
}

TEST(LabelComponents, MergeThroughARunThatTouchesTwoComponents) {
  // Cells 2 and 5 start separate runs that only meet in row 2. The joined
  // component is numbered by cell 2, so cell 5's run gets no label of its
  // own and the left column (smallest cell 6) is label 1.
  const Picture p = picture({"..#..#",
                             "#.#..#",
                             "#.####",
                             "#.....",
                             "....##"});
  std::vector<std::size_t> sizes;
  const auto labels = expect_labels_match_flood_fill(p, sizes);
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(labels[2], 0);   // first set cell: the joined blob
  EXPECT_EQ(labels[5], 0);
  EXPECT_EQ(labels[6], 1);   // the left column never touches it
  EXPECT_EQ(labels[28], 2);  // bottom-right pair
  EXPECT_EQ(sizes[0], 8u);
  EXPECT_EQ(sizes[1], 3u);
  EXPECT_EQ(sizes[2], 2u);
}

TEST(LabelComponents, RunAtRowEndStaysApartFromNextRowStart) {
  // Cell (last col, row r) and cell (col 0, row r+1) are neighbours in
  // memory but not on the lattice. Checked at a row width that puts the
  // break inside a word and at widths that put it on a word boundary.
  for (const int cols : {3, 32, 64, 65}) {
    SCOPED_TRACE("cols=" + std::to_string(cols));
    BitMask mask(static_cast<std::size_t>(cols) * 3);
    mask.set(static_cast<std::size_t>(cols) - 1);      // row 0, last column
    mask.set(static_cast<std::size_t>(cols));          // row 1, column 0
    mask.set(static_cast<std::size_t>(cols) * 2 - 1);  // row 1, last column
    std::vector<std::size_t> sizes;
    const auto labels = label_components(mask, cols, 3, sizes);
    ASSERT_EQ(sizes.size(), 2u);
    EXPECT_EQ(labels[static_cast<std::size_t>(cols) - 1], 0);
    EXPECT_EQ(labels[static_cast<std::size_t>(cols)], 1);
    EXPECT_EQ(labels[static_cast<std::size_t>(cols) * 2 - 1], 0);
    EXPECT_EQ(sizes[0], 2u);
    EXPECT_EQ(sizes[1], 1u);
  }
}

TEST(LabelComponents, RunAcrossAWordBoundaryIsOneRun) {
  BitMask mask(100 * 2);
  for (std::size_t i = 60; i < 70; ++i) mask.set(i);         // row 0, spans bit 64
  for (std::size_t i = 100 + 66; i < 100 + 90; ++i) mask.set(i);  // row 1, below it
  std::vector<std::size_t> sizes;
  const auto labels = label_components(mask, 100, 2, sizes);
  ASSERT_EQ(sizes.size(), 1u);
  EXPECT_EQ(sizes[0], 34u);
  EXPECT_EQ(labels[60], 0);
  EXPECT_EQ(labels[189], 0);
}

TEST(LabelComponents, SingleCellsAreEachTheirOwnComponent) {
  // A checkerboard: no two set cells share an edge.
  const Picture p = picture({"#.#.#",
                             ".#.#.",
                             "#.#.#"});
  std::vector<std::size_t> sizes;
  const auto labels = expect_labels_match_flood_fill(p, sizes);
  ASSERT_EQ(sizes.size(), 8u);
  int next = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (p.mask.test(i)) {
      EXPECT_EQ(labels[i], next++) << "cell " << i;
    }
  }
  for (const std::size_t size : sizes) EXPECT_EQ(size, 1u);
}

TEST(LabelComponents, FullGridIsOneComponent) {
  for (const int cols : {1, 7, 41, 64}) {
    const int rows = 5;
    const BitMask mask(static_cast<std::size_t>(cols) * rows, true);
    std::vector<std::size_t> sizes;
    const auto labels = label_components(mask, cols, rows, sizes);
    ASSERT_EQ(sizes.size(), 1u);
    EXPECT_EQ(sizes[0], static_cast<std::size_t>(cols) * rows);
    for (const int l : labels) EXPECT_EQ(l, 0);
  }
}

TEST(LabelComponents, EmptyGridHasNoComponents) {
  std::vector<std::size_t> sizes = {3, 4};  // stale contents are replaced
  const auto labels = label_components(BitMask(41 * 41), 41, 41, sizes);
  EXPECT_TRUE(sizes.empty());
  for (const int l : labels) EXPECT_EQ(l, -1);
}

TEST(LabelComponents, RandomMasksMatchFloodFill) {
  std::mt19937_64 rng(0x1abe1);
  for (int trial = 0; trial < 300; ++trial) {
    const int cols = std::uniform_int_distribution<int>(1, 70)(rng);
    const int rows = std::uniform_int_distribution<int>(1, 30)(rng);
    const double density = std::uniform_real_distribution<double>(0.05, 0.95)(rng);
    Picture p;
    p.cols = cols;
    p.rows = rows;
    p.mask = BitMask(static_cast<std::size_t>(cols) * static_cast<std::size_t>(rows));
    for (std::size_t i = 0; i < p.mask.size(); ++i) {
      p.mask.set(i, std::bernoulli_distribution(density)(rng));
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<std::size_t> sizes;
    (void)expect_labels_match_flood_fill(p, sizes);
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(ComputeEstimate, EmptySurvivorsGiveEmptyResult) {
  const VirtualGrid vg = make_grid();
  const auto est = compute_estimate(vg, BitMask(vg.node_count()),
                                    field_at({1.5, 1.5}));
  EXPECT_TRUE(est.nodes.empty());
}

TEST(ComputeEstimate, WeightsSumToOne) {
  const VirtualGrid vg = make_grid();
  std::vector<bool> survivors(vg.node_count(), false);
  // A small blob near (1.5, 1.5).
  const std::size_t centre = vg.nearest_node({1.5, 1.5});
  survivors[centre] = survivors[centre + 1] = survivors[centre - 1] = true;
  const auto est = compute_estimate(vg, BitMask(survivors), field_at({1.5, 1.5}));
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
  const auto est = compute_estimate(vg, BitMask(survivors), field_at({1.2, 2.1}));
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
  const auto est = compute_estimate(vg, BitMask(survivors), field_at({0.5, 0.5}),
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
  const auto est = compute_estimate(vg, BitMask(survivors), field_at({1.5, 1.5}),
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
  const auto est = compute_estimate(vg, BitMask(survivors), field_at({1.5, 1.5}),
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
  const auto est = compute_estimate(vg, BitMask(survivors), field_at({1.5, 1.5}),
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
  const auto mild = compute_estimate(vg, BitMask(survivors), field_at({1.5, 1.5}),
                                     WeightingMode::kW1Only, 1.0);
  const auto sharp = compute_estimate(vg, BitMask(survivors), field_at({1.5, 1.5}),
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
      compute_estimate(vg, BitMask(5, true), field_at({1, 1})),
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
