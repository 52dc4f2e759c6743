// Property test for incremental re-interpolation: after any sequence of
// partial reference updates, VirtualGrid::reinterpolate_readers() over the
// dirty readers must leave the grid bit-identical to a from-scratch build
// from the same readings — that equality is what lets the engine rebuild
// only the planes whose reference columns changed (see docs/algorithm.md,
// "Data layout & SIMD"). Also pins the superset property (declaring clean
// readers dirty is harmless) and the VireLocalizer::update_reference_rssi
// wrapper.

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/vire_localizer.h"
#include "core/virtual_grid.h"
#include "geom/grid.h"
#include "sim/types.h"

namespace vire::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

bool same_double(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_grids_identical(const VirtualGrid& got, const VirtualGrid& want,
                            const char* what) {
  ASSERT_EQ(got.reader_count(), want.reader_count());
  ASSERT_EQ(got.node_count(), want.node_count());
  for (int k = 0; k < want.reader_count(); ++k) {
    const std::span<const double> a = got.reader_values(k);
    const std::span<const double> b = want.reader_values(k);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t node = 0; node < b.size(); ++node) {
      ASSERT_TRUE(same_double(a[node], b[node]))
          << what << ": reader " << k << " node " << node << ": " << a[node]
          << " != " << b[node];
    }
  }
}

struct Fixture {
  geom::RegularGrid real_grid{{0.0, 0.0}, 1.0, 2, 2};
  VirtualGridConfig config;
  std::vector<sim::RssiVector> refs;
};

Fixture make_fixture(std::mt19937_64& rng) {
  auto uniform = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  auto uniform_int = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  Fixture f;
  f.real_grid = geom::RegularGrid{{uniform(-2.0, 2.0), uniform(-2.0, 2.0)},
                                  uniform(0.5, 1.5), uniform_int(2, 5),
                                  uniform_int(2, 5)};
  f.config.subdivision = uniform_int(1, 6);
  f.config.boundary_extension_cells = uniform_int(0, f.config.subdivision);
  f.config.method = InterpolationMethod::kLinear;
  const int readers = uniform_int(2, 8);
  f.refs.resize(f.real_grid.node_count());
  for (auto& v : f.refs) {
    v.resize(static_cast<std::size_t>(readers));
    for (auto& x : v) {
      x = uniform(0.0, 1.0) < 0.1 ? kNan : uniform(-75.0, -35.0);
    }
  }
  return f;
}

/// Mutates a random subset of reader columns; returns the dirty reader set.
std::vector<int> mutate_columns(std::mt19937_64& rng,
                                std::vector<sim::RssiVector>& refs) {
  auto uniform = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  const int readers = static_cast<int>(refs.front().size());
  std::vector<int> dirty;
  for (int k = 0; k < readers; ++k) {
    if (uniform(0.0, 1.0) >= 0.4) continue;
    dirty.push_back(k);
    for (auto& v : refs) {
      const double roll = uniform(0.0, 1.0);
      if (roll < 0.5) continue;  // this tag's reading for k is unchanged
      v[static_cast<std::size_t>(k)] =
          roll < 0.6 ? kNan : uniform(-75.0, -35.0);  // drop-out or new value
    }
  }
  return dirty;
}

TEST(IncrementalInterpolation, UpdateSequenceMatchesFromScratchRebuild) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937_64 rng(seed);
    Fixture f = make_fixture(rng);
    VirtualGrid incremental(f.real_grid, f.refs, f.config);

    for (int step = 0; step < 4; ++step) {
      const std::vector<int> dirty = mutate_columns(rng, f.refs);
      incremental.reinterpolate_readers(f.refs, dirty);
      const VirtualGrid scratch(f.real_grid, f.refs, f.config);
      expect_grids_identical(incremental, scratch, "after partial update");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(IncrementalInterpolation, DirtySupersetIsHarmless) {
  std::mt19937_64 rng(99);
  Fixture f = make_fixture(rng);
  VirtualGrid incremental(f.real_grid, f.refs, f.config);

  const std::vector<int> dirty = mutate_columns(rng, f.refs);
  // Declare EVERY reader dirty, including the untouched ones.
  std::vector<int> all;
  for (int k = 0; k < incremental.reader_count(); ++k) all.push_back(k);
  incremental.reinterpolate_readers(f.refs, all);
  const VirtualGrid scratch(f.real_grid, f.refs, f.config);
  expect_grids_identical(incremental, scratch, "superset dirty set");
}

TEST(IncrementalInterpolation, EmptyDirtySetIsANoOp) {
  std::mt19937_64 rng(5);
  Fixture f = make_fixture(rng);
  VirtualGrid grid(f.real_grid, f.refs, f.config);
  const VirtualGrid before(f.real_grid, f.refs, f.config);
  grid.reinterpolate_readers(f.refs, {});
  expect_grids_identical(grid, before, "empty dirty set");
}

TEST(IncrementalInterpolation, RejectsOutOfRangeReader) {
  std::mt19937_64 rng(3);
  Fixture f = make_fixture(rng);
  VirtualGrid grid(f.real_grid, f.refs, f.config);
  EXPECT_THROW(grid.reinterpolate_readers(f.refs, {grid.reader_count()}),
               std::invalid_argument);
  EXPECT_THROW(grid.reinterpolate_readers(f.refs, {-1}), std::invalid_argument);
}

TEST(IncrementalInterpolation, LocalizerUpdateMatchesFullSet) {
  std::mt19937_64 rng(77);
  Fixture f = make_fixture(rng);

  VireConfig config;
  config.virtual_grid = f.config;
  VireLocalizer incremental(f.real_grid, config);
  VireLocalizer scratch(f.real_grid, config);

  // First update with no grid yet: must fall back to a full build.
  incremental.update_reference_rssi(f.refs, {});
  ASSERT_TRUE(incremental.ready());
  scratch.set_reference_rssi(f.refs);
  expect_grids_identical(incremental.virtual_grid(), scratch.virtual_grid(),
                         "initial fallback build");

  for (int step = 0; step < 3; ++step) {
    const std::vector<int> dirty = mutate_columns(rng, f.refs);
    incremental.update_reference_rssi(f.refs, dirty);
    scratch.set_reference_rssi(f.refs);
    expect_grids_identical(incremental.virtual_grid(), scratch.virtual_grid(),
                           "localizer partial update");

    sim::RssiVector tracking(f.refs.front().size());
    for (auto& x : tracking) {
      x = std::uniform_real_distribution<double>(-75.0, -35.0)(rng);
    }
    const auto a = incremental.locate(tracking);
    const auto b = scratch.locate(tracking);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a && b) {
      EXPECT_TRUE(same_double(a->position.x, b->position.x));
      EXPECT_TRUE(same_double(a->position.y, b->position.y));
      EXPECT_EQ(a->survivor_count(), b->survivor_count());
    }
  }
}

}  // namespace
}  // namespace vire::core
