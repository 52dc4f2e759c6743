// Layout-equivalence fuzz harness: the SoA/bitset hot path vs the
// pre-refactor nested-vector/std::vector<bool> reference implementation
// (tests/core/reference_layout.h). Every scenario drives BOTH pipelines —
// virtual-grid interpolation, proximity maps, all three elimination modes,
// and the w1/w2 weighted centroid — and asserts bit-for-bit agreement:
// identical plane values, identical mask bits and marked counts, identical
// threshold walks (steps, accepted thresholds, survivors-per-step), and
// identical final fixes: nodes, weights, cluster sizes and cluster weights,
// from both compute_estimate and summarize_estimate. The oracle labels
// clusters with its own flood fill, never the production run labeller.
// 200+ seeded scenarios sweep grid sizes, NaN holes,
// reader counts K in {2..8} and every ThresholdMode/WeightingMode.

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/elimination.h"
#include "core/proximity_map.h"
#include "core/virtual_grid.h"
#include "core/weights.h"
#include "geom/grid.h"
#include "reference_layout.h"
#include "sim/types.h"

namespace vire::core {
namespace {

namespace ref = reference;

/// Bit-for-bit comparison; NaNs of any payload count as equal (downstream
/// code only ever asks isnan).
bool same_double(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

struct Scenario {
  geom::RegularGrid real_grid{{0.0, 0.0}, 1.0, 2, 2};
  VirtualGridConfig grid_config;
  EliminationConfig elim_config;
  WeightingMode weighting = WeightingMode::kCombined;
  double w1_exponent = 1.0;
  std::vector<sim::RssiVector> reference_rssi;
  sim::RssiVector tracking;
};

Scenario make_scenario(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto uniform = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  auto uniform_int = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };

  Scenario s;
  const int cols = uniform_int(2, 5);
  const int rows = uniform_int(2, 5);
  s.real_grid = geom::RegularGrid{{uniform(-3.0, 3.0), uniform(-3.0, 3.0)},
                                  uniform(0.5, 2.0), cols, rows};

  s.grid_config.subdivision = uniform_int(1, 5);
  s.grid_config.boundary_extension_cells = uniform_int(0, s.grid_config.subdivision);
  // Mostly the kLinear sweep (the refactored path); the nonlinear methods
  // ride along to pin the shared per-node dispatch.
  const int method_roll = uniform_int(0, 9);
  s.grid_config.method = method_roll < 8 ? InterpolationMethod::kLinear
                         : method_roll == 8 ? InterpolationMethod::kCatmullRom
                                            : InterpolationMethod::kPolynomial;

  const int reader_count = uniform_int(2, 8);
  const double nan_hole_prob = uniform(0.0, 0.15);
  s.reference_rssi.resize(s.real_grid.node_count());
  for (auto& v : s.reference_rssi) {
    v.resize(static_cast<std::size_t>(reader_count));
    for (auto& x : v) {
      x = uniform(0.0, 1.0) < nan_hole_prob ? ref::kNan : uniform(-75.0, -35.0);
    }
  }
  s.tracking.resize(static_cast<std::size_t>(reader_count));
  for (auto& x : s.tracking) {
    x = uniform(0.0, 1.0) < 0.15 ? ref::kNan : uniform(-75.0, -35.0);
  }

  s.elim_config.mode = static_cast<ThresholdMode>(seed % 3);
  s.elim_config.fixed_threshold_db = uniform(0.5, 4.0);
  s.elim_config.initial_threshold_db = uniform(2.0, 6.0);
  s.elim_config.step_db = uniform(0.2, 1.0);
  s.elim_config.min_threshold_db = uniform(0.1, 1.0);
  s.elim_config.min_area_cell_fraction = uniform(0.1, 1.2);

  s.weighting = static_cast<WeightingMode>((seed / 3) % 4);
  s.w1_exponent = uniform_int(0, 1) == 0 ? 1.0 : 2.0;
  return s;
}

/// Elimination result vs the scalar reference, bit for bit: threshold walk,
/// per-reader maps (rebuilt on demand from the result) and survivors.
void expect_same_elimination(const VirtualGrid& grid, const sim::RssiVector& tracking,
                             const EliminationResult& got,
                             const ref::EliminationRef& want) {
  EXPECT_EQ(got.refinement_steps, want.refinement_steps);
  EXPECT_TRUE(same_double(got.initial_threshold_db, want.initial_threshold_db));
  EXPECT_TRUE(same_double(got.final_threshold_db, want.final_threshold_db));
  ASSERT_EQ(got.thresholds_db.size(), want.thresholds_db.size());
  for (std::size_t k = 0; k < want.thresholds_db.size(); ++k) {
    EXPECT_TRUE(same_double(got.thresholds_db[k], want.thresholds_db[k]))
        << "threshold for reader " << k;
  }
  EXPECT_EQ(got.survivors_per_step, want.survivors_per_step);

  const std::vector<ProximityMap> maps = proximity_maps(grid, tracking, got);
  ASSERT_EQ(maps.size(), want.maps.size());
  for (std::size_t m = 0; m < want.maps.size(); ++m) {
    ASSERT_EQ(maps[m].marked_count(), want.map_counts[m]) << "map " << m;
    ASSERT_EQ(maps[m].size(), want.maps[m].size());
    for (std::size_t node = 0; node < want.maps[m].size(); ++node) {
      ASSERT_EQ(maps[m].marked(node), want.maps[m][node])
          << "map " << m << " node " << node;
    }
  }

  ASSERT_EQ(got.survivors.size(), want.survivors.size());
  ASSERT_EQ(count_marked(got.survivors), ref::count(want.survivors));
  for (std::size_t node = 0; node < want.survivors.size(); ++node) {
    ASSERT_EQ(got.survivors[node], want.survivors[node]) << "survivor " << node;
  }
}

void check_scenario(std::uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  const Scenario s = make_scenario(seed);

  // --- Virtual grid: flat SoA planes vs nested per-reader vectors. ---
  const VirtualGrid grid(s.real_grid, s.reference_rssi, s.grid_config);
  const ref::NestedGrid nested = ref::build_grid(
      s.real_grid, s.reference_rssi, s.grid_config.subdivision,
      s.grid_config.boundary_extension_cells, s.grid_config.method);

  ASSERT_EQ(grid.reader_count(), nested.reader_count());
  ASSERT_EQ(grid.node_count(), nested.node_count());
  ASSERT_EQ(grid.grid().cols(), nested.lattice.cols());
  ASSERT_EQ(grid.grid().rows(), nested.lattice.rows());
  for (int k = 0; k < grid.reader_count(); ++k) {
    const std::span<const double> plane = grid.reader_values(k);
    const auto& expected = nested.values[static_cast<std::size_t>(k)];
    ASSERT_EQ(plane.size(), expected.size());
    for (std::size_t node = 0; node < plane.size(); ++node) {
      ASSERT_TRUE(same_double(plane[node], expected[node]))
          << "reader " << k << " node " << node << ": " << plane[node]
          << " != " << expected[node];
    }
  }

  // --- Proximity maps: word-packed bits vs vector<bool>. ---
  for (std::size_t k = 0; k < s.tracking.size(); ++k) {
    if (std::isnan(s.tracking[k])) continue;
    const double threshold = s.elim_config.fixed_threshold_db;
    const ProximityMap map(grid, static_cast<int>(k), s.tracking[k], threshold);
    const std::vector<bool> expected = ref::proximity_mask(
        nested.values[k], s.tracking[k], threshold);
    ASSERT_EQ(map.size(), expected.size());
    ASSERT_EQ(map.marked_count(), ref::count(expected));
    ASSERT_EQ(map.marked_count(), map.mask().count());
    for (std::size_t node = 0; node < expected.size(); ++node) {
      ASSERT_EQ(map.marked(node), expected[node]) << "reader " << k << " node "
                                                  << node;
    }
  }

  // --- Elimination: distance-spread kernel vs scalar reference, all modes. ---
  const EliminationEngine engine(s.elim_config);
  const EliminationResult got = engine.run(grid, s.tracking);
  const ref::EliminationRef want =
      ref::run_elimination(nested, s.tracking, s.elim_config);

  expect_same_elimination(grid, s.tracking, got, want);
  if (::testing::Test::HasFatalFailure()) return;

  // --- Final fix: flat-layout centroid vs nested-layout reference. ---
  const WeightedEstimate estimate = compute_estimate(
      grid, got.survivors, s.tracking, s.weighting, s.w1_exponent);
  const ref::EstimateRef expected = ref::compute_estimate(
      nested, want.survivors, s.tracking, s.weighting, s.w1_exponent);
  ASSERT_EQ(estimate.nodes, expected.nodes);
  ASSERT_EQ(estimate.weights.size(), expected.weights.size());
  for (std::size_t i = 0; i < expected.weights.size(); ++i) {
    EXPECT_TRUE(same_double(estimate.weights[i], expected.weights[i]))
        << "weight " << i;
  }
  // The engine's summary path runs the same kernel without the per-node
  // vectors; both must agree with the oracle on every field they share.
  const EstimateSummary summary = summarize_estimate(
      grid, got.survivors, s.tracking, s.weighting, s.w1_exponent);
  ASSERT_EQ(summary.survivor_count, expected.nodes.size());
  for (const auto& [name, position, sizes, weights] :
       {std::tuple{"compute_estimate", estimate.position, estimate.cluster_sizes,
                   estimate.cluster_weights},
        std::tuple{"summarize_estimate", summary.position, summary.cluster_sizes,
                   summary.cluster_weights}}) {
    SCOPED_TRACE(name);
    ASSERT_EQ(sizes, expected.cluster_sizes);
    ASSERT_EQ(weights.size(), expected.cluster_weights.size());
    for (std::size_t c = 0; c < expected.cluster_weights.size(); ++c) {
      EXPECT_TRUE(same_double(weights[c], expected.cluster_weights[c])) << "cluster " << c;
    }
    if (!expected.nodes.empty()) {
      EXPECT_TRUE(same_double(position.x, expected.position.x))
          << position.x << " != " << expected.position.x;
      EXPECT_TRUE(same_double(position.y, expected.position.y))
          << position.y << " != " << expected.position.y;
    }
  }
}

TEST(LayoutEquivalence, FuzzedScenariosMatchReferenceBitForBit) {
  // 216 seeds = 72 per ThresholdMode (seed % 3), 54 per WeightingMode.
  for (std::uint64_t seed = 0; seed < 216; ++seed) {
    check_scenario(seed);
    if (::testing::Test::HasFatalFailure()) break;
  }
}

TEST(LayoutEquivalence, AllTrackingNanMeansNoSurvivors) {
  Scenario s = make_scenario(7);
  for (auto& x : s.tracking) x = ref::kNan;
  const VirtualGrid grid(s.real_grid, s.reference_rssi, s.grid_config);
  const ref::NestedGrid nested = ref::build_grid(
      s.real_grid, s.reference_rssi, s.grid_config.subdivision,
      s.grid_config.boundary_extension_cells, s.grid_config.method);
  for (const auto mode : {ThresholdMode::kFixed, ThresholdMode::kAdaptive,
                          ThresholdMode::kAdaptivePerReader}) {
    s.elim_config.mode = mode;
    const EliminationResult got = EliminationEngine(s.elim_config).run(grid, s.tracking);
    const ref::EliminationRef want =
        ref::run_elimination(nested, s.tracking, s.elim_config);
    EXPECT_EQ(count_marked(got.survivors), 0u);
    EXPECT_EQ(ref::count(want.survivors), 0u);
    EXPECT_TRUE(proximity_maps(grid, s.tracking, got).empty());
    EXPECT_TRUE(want.maps.empty());
  }
}

TEST(LayoutEquivalence, EmptyIntersectionTakesTheUnionFallback) {
  // Readers that disagree leave the intersection empty, and every mode then
  // answers with the union of the per-reader maps: the lo <= t half of the
  // spread kernel. The first K-1 readers each point at a different node;
  // the last one hears an RSSI no virtual node comes near, so its map is
  // empty and no threshold can rescue the intersection.
  for (const std::uint64_t seed : {3u, 17u, 40u, 101u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Scenario s = make_scenario(seed);
    s.grid_config.method = InterpolationMethod::kLinear;
    const VirtualGrid grid(s.real_grid, s.reference_rssi, s.grid_config);
    const ref::NestedGrid nested = ref::build_grid(
        s.real_grid, s.reference_rssi, s.grid_config.subdivision,
        s.grid_config.boundary_extension_cells, s.grid_config.method);
    const std::size_t readers = s.tracking.size();
    for (std::size_t k = 0; k + 1 < readers; ++k) {
      const double v = grid.rssi(static_cast<int>(k),
                                 (k + 1) * grid.node_count() / readers);
      s.tracking[k] = std::isnan(v) ? -55.0 : v;
    }
    s.tracking[readers - 1] = -200.0;
    for (const auto mode : {ThresholdMode::kFixed, ThresholdMode::kAdaptive,
                            ThresholdMode::kAdaptivePerReader}) {
      s.elim_config.mode = mode;
      const EliminationResult got =
          EliminationEngine(s.elim_config).run(grid, s.tracking);
      const ref::EliminationRef want =
          ref::run_elimination(nested, s.tracking, s.elim_config);
      ASSERT_FALSE(want.survivors_per_step.empty());
      ASSERT_EQ(want.survivors_per_step.back(), 0u) << "intersection not empty";
      ASSERT_GT(ref::count(want.survivors), 0u) << "union empty";
      expect_same_elimination(grid, s.tracking, got, want);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(LayoutEquivalence, SingleValidReaderSurvivesItsOwnMap) {
  Scenario s = make_scenario(13);
  for (std::size_t k = 1; k < s.tracking.size(); ++k) s.tracking[k] = ref::kNan;
  s.tracking[0] = -50.0;
  const VirtualGrid grid(s.real_grid, s.reference_rssi, s.grid_config);
  const ref::NestedGrid nested = ref::build_grid(
      s.real_grid, s.reference_rssi, s.grid_config.subdivision,
      s.grid_config.boundary_extension_cells, s.grid_config.method);
  const EliminationResult got = EliminationEngine(s.elim_config).run(grid, s.tracking);
  const ref::EliminationRef want =
      ref::run_elimination(nested, s.tracking, s.elim_config);
  ASSERT_EQ(got.survivors.size(), want.survivors.size());
  for (std::size_t node = 0; node < want.survivors.size(); ++node) {
    ASSERT_EQ(got.survivors[node], want.survivors[node]);
  }
}

TEST(LayoutEquivalence, AllReferenceNanGridIsEntirelyInvalid) {
  Scenario s = make_scenario(29);
  for (auto& v : s.reference_rssi) {
    for (auto& x : v) x = ref::kNan;
  }
  const VirtualGrid grid(s.real_grid, s.reference_rssi, s.grid_config);
  for (int k = 0; k < grid.reader_count(); ++k) {
    for (const double v : grid.reader_values(k)) EXPECT_TRUE(std::isnan(v));
  }
  for (std::size_t node = 0; node < grid.node_count(); ++node) {
    EXPECT_FALSE(grid.node_valid(node));
  }
}

}  // namespace
}  // namespace vire::core
