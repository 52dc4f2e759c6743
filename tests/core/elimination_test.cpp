#include "core/elimination.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace vire::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

geom::RegularGrid paper_grid() { return {{0, 0}, 1.0, 4, 4}; }

// Synthetic 4-reader field: distances to readers outside the corners,
// RSSI = -40 - 20 log10(d).
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
  const auto grid = paper_grid();
  for (std::size_t i = 0; i < grid.node_count(); ++i) {
    refs.push_back(field_at(grid.position(i)));
  }
  VirtualGridConfig config;
  config.subdivision = subdivision;
  return VirtualGrid(paper_grid(), refs, config);
}

TEST(EliminationFixed, SurvivorsContainTrueRegion) {
  const VirtualGrid vg = make_grid();
  EliminationConfig config;
  config.mode = ThresholdMode::kFixed;
  config.fixed_threshold_db = 1.5;
  const EliminationEngine engine(config);
  const geom::Vec2 truth{1.3, 2.1};
  const auto result = engine.run(vg, field_at(truth));
  ASSERT_GT(result.survivor_count(), 0u);
  // The node nearest the truth must survive.
  EXPECT_TRUE(result.survivors[vg.nearest_node(truth)]);
}

TEST(EliminationFixed, AllThresholdsEqualFixedValue) {
  const VirtualGrid vg = make_grid();
  EliminationConfig config;
  config.mode = ThresholdMode::kFixed;
  config.fixed_threshold_db = 2.0;
  const EliminationEngine engine(config);
  const auto result = engine.run(vg, field_at({1.5, 1.5}));
  for (double t : result.thresholds_db) EXPECT_DOUBLE_EQ(t, 2.0);
}

TEST(EliminationFixed, TinyThresholdFallsBackToUnion) {
  const VirtualGrid vg = make_grid();
  EliminationConfig config;
  config.mode = ThresholdMode::kFixed;
  config.fixed_threshold_db = 0.001;
  const EliminationEngine engine(config);
  // A tracking vector offset by +3 dB on one reader: intersection empty at
  // 0.001 dB, but the fallback union keeps the localizer alive.
  sim::RssiVector tracking = field_at({1.5, 1.5});
  tracking[0] += 3.0;
  const auto result = engine.run(vg, tracking);
  EXPECT_GT(result.survivor_count(), 0u);
}

TEST(EliminationAdaptive, RespectsMinimumArea) {
  const VirtualGrid vg = make_grid();
  EliminationConfig config;
  config.min_area_cell_fraction = 0.6;
  const EliminationEngine engine(config);
  const auto result = engine.run(vg, field_at({1.7, 1.2}));
  EXPECT_GE(result.survivor_count(), engine.min_survivors(vg));
}

TEST(EliminationAdaptive, CommonThresholdAcrossReaders) {
  const VirtualGrid vg = make_grid();
  const EliminationEngine engine;
  const auto result = engine.run(vg, field_at({2.2, 0.8}));
  for (double t : result.thresholds_db) {
    EXPECT_DOUBLE_EQ(t, result.thresholds_db.front());
  }
}

TEST(EliminationAdaptive, ShrinksBelowInitialThresholdOnCleanData) {
  const VirtualGrid vg = make_grid();
  EliminationConfig config;
  config.initial_threshold_db = 4.0;
  const EliminationEngine engine(config);
  const auto result = engine.run(vg, field_at({1.5, 1.5}));
  EXPECT_LT(result.thresholds_db.front(), 4.0);
}

TEST(EliminationAdaptive, TrueRegionSurvives) {
  const VirtualGrid vg = make_grid();
  const EliminationEngine engine;
  for (const auto& truth : {geom::Vec2{0.5, 0.5}, geom::Vec2{1.5, 2.5},
                            geom::Vec2{2.8, 1.1}}) {
    const auto result = engine.run(vg, field_at(truth));
    EXPECT_TRUE(result.survivors[vg.nearest_node(truth)])
        << "at " << truth.to_string();
  }
}

TEST(EliminationAdaptive, NaNReaderSkipped) {
  const VirtualGrid vg = make_grid();
  const EliminationEngine engine;
  sim::RssiVector tracking = field_at({1.5, 1.5});
  tracking[2] = kNan;
  const auto result = engine.run(vg, tracking);
  EXPECT_GT(result.survivor_count(), 0u);
  EXPECT_EQ(proximity_maps(vg, tracking, result).size(), 3u);  // one per valid reader
}

TEST(EliminationAdaptive, AllNaNGivesEmpty) {
  const VirtualGrid vg = make_grid();
  const EliminationEngine engine;
  const auto result = engine.run(vg, {kNan, kNan, kNan, kNan});
  EXPECT_EQ(result.survivor_count(), 0u);
}

TEST(EliminationPerReader, ProducesValidResult) {
  const VirtualGrid vg = make_grid();
  EliminationConfig config;
  config.mode = ThresholdMode::kAdaptivePerReader;
  const EliminationEngine engine(config);
  const geom::Vec2 truth{1.2, 2.2};
  const auto result = engine.run(vg, field_at(truth));
  EXPECT_GE(result.survivor_count(), engine.min_survivors(vg));
  EXPECT_TRUE(result.survivors[vg.nearest_node(truth)]);
}

TEST(EliminationPerReader, ThresholdsMayDiffer) {
  const VirtualGrid vg = make_grid();
  EliminationConfig config;
  config.mode = ThresholdMode::kAdaptivePerReader;
  const EliminationEngine engine(config);
  // Perturb one reader so its map must stay wide.
  sim::RssiVector tracking = field_at({1.5, 1.5});
  tracking[1] += 1.5;
  const auto result = engine.run(vg, tracking);
  EXPECT_GE(result.survivor_count(), 1u);
}

TEST(Elimination, MismatchedTrackingSizeThrows) {
  const VirtualGrid vg = make_grid();
  const EliminationEngine engine;
  EXPECT_THROW(engine.run(vg, {-60.0, -70.0}), std::invalid_argument);
}

TEST(Elimination, InvalidConfigThrows) {
  EliminationConfig bad;
  bad.step_db = 0.0;
  EXPECT_THROW(EliminationEngine{bad}, std::invalid_argument);
  bad = {};
  bad.initial_threshold_db = -1.0;
  EXPECT_THROW(EliminationEngine{bad}, std::invalid_argument);
  // Non-finite thresholds: the spread kernel reads NaN distances as +inf,
  // which matches the maps only below an infinite threshold.
  bad = {};
  bad.fixed_threshold_db = std::numeric_limits<double>::infinity();
  EXPECT_THROW(EliminationEngine{bad}, std::invalid_argument);
  bad = {};
  bad.initial_threshold_db = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(EliminationEngine{bad}, std::invalid_argument);
}

TEST(Elimination, MinSurvivorsScalesWithSubdivision) {
  EliminationConfig config;
  config.min_area_cell_fraction = 0.5;
  const EliminationEngine engine(config);
  const VirtualGrid coarse = make_grid(4);
  const VirtualGrid fine = make_grid(10);
  EXPECT_EQ(engine.min_survivors(coarse), 8u);   // 16 * 0.5
  EXPECT_EQ(engine.min_survivors(fine), 50u);    // 100 * 0.5
}

// Parameterized: survivors shrink (weakly) as the fixed threshold shrinks.
class EliminationMonotone : public ::testing::TestWithParam<double> {};

TEST_P(EliminationMonotone, SurvivorsMonotoneInThreshold) {
  const VirtualGrid vg = make_grid();
  EliminationConfig narrow_cfg;
  narrow_cfg.mode = ThresholdMode::kFixed;
  narrow_cfg.fixed_threshold_db = GetParam();
  EliminationConfig wide_cfg = narrow_cfg;
  wide_cfg.fixed_threshold_db = GetParam() + 0.5;
  const auto tracking = field_at({1.4, 1.9});
  const auto narrow = EliminationEngine(narrow_cfg).run(vg, tracking);
  const auto wide = EliminationEngine(wide_cfg).run(vg, tracking);
  EXPECT_LE(narrow.survivor_count(), wide.survivor_count());
}

INSTANTIATE_TEST_SUITE_P(Thresholds, EliminationMonotone,
                         ::testing::Values(0.5, 1.0, 1.5, 2.0, 3.0));

}  // namespace
}  // namespace vire::core
