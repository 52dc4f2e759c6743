// The two instruction-set builds of the locate kernels (core/locate_kernels.h)
// against each other, bit for bit. Each kernel runs its baseline and its
// AVX2 variant on the same fuzzed inputs: NaN nodes, all-NaN planes, ±0.0,
// subnormals, thresholds exactly equal to a distance, lengths that are not a
// multiple of the vector width, 1..K voting readers, and the paper testbed's
// virtual grid with its boundary ring. Any contraction into an FMA, any
// reordered reduction or any vector select that treats NaN or -0.0
// differently from the scalar code shows up here as a differing bit.
// Skipped only where the CPU lacks AVX2: there the process can run nothing
// but the baseline variant.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bitmask.h"
#include "core/locate_kernels.h"
#include "core/vire_localizer.h"
#include "core/virtual_grid.h"
#include "core/weights.h"
#include "geom/grid.h"
#include "sim/types.h"

namespace vire::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_doubles(std::span<const double> a, std::span<const double> b,
                         const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(bits(a[i]), bits(b[i])) << what << " differs at " << i << ": " << a[i]
                                      << " vs " << b[i];
  }
}

/// Draws plane values with the edge cases the vector code could get wrong
/// mixed into ordinary RSSI: NaN, ±0.0, subnormals, and values at an exact
/// distance from `anchor` (so a threshold can equal a distance).
class Values {
 public:
  explicit Values(std::uint64_t seed) : rng_(seed) {}

  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng_);
  }
  int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }

  /// A random entry of `values`.
  double pick(const std::vector<double>& values) {
    return values[static_cast<std::size_t>(
        uniform_int(0, static_cast<int>(values.size()) - 1))];
  }

  double value(double anchor) {
    switch (uniform_int(0, 11)) {
      case 0: return kNan;
      case 1: return 0.0;
      case 2: return -0.0;
      case 3: return std::numeric_limits<double>::denorm_min() * uniform_int(1, 9);
      case 4: return -std::numeric_limits<double>::min() / uniform_int(2, 9);
      case 5: return anchor;
      case 6: return anchor + 0.25 * uniform_int(-16, 16);
      default: return uniform(-80.0, -30.0);
    }
  }

  double tracking() {
    switch (uniform_int(0, 7)) {
      case 0: return 0.0;
      case 1: return -0.0;
      case 2: return std::numeric_limits<double>::denorm_min();
      default: return uniform(-75.0, -35.0);
    }
  }

  /// K planes of `nodes` values; some planes entirely NaN.
  std::vector<double> planes(std::size_t nodes, std::span<const double> tracking) {
    std::vector<double> out(nodes * tracking.size());
    for (std::size_t k = 0; k < tracking.size(); ++k) {
      const bool all_nan = uniform_int(0, 7) == 0;
      for (std::size_t i = 0; i < nodes; ++i) {
        out[k * nodes + i] = all_nan ? kNan : value(tracking[k]);
      }
    }
    return out;
  }

  std::vector<double> tracking_vector(int readers) {
    std::vector<double> out(static_cast<std::size_t>(readers));
    for (double& s : out) s = tracking();
    return out;
  }

  /// A random non-empty subset of 0..k-1, ascending.
  std::vector<int> voting(int k) {
    std::vector<int> out;
    while (out.empty()) {
      for (int r = 0; r < k; ++r) {
        if (uniform_int(0, 2) != 0) out.push_back(r);
      }
    }
    return out;
  }

  BitMask mask(std::size_t size) {
    BitMask out(size);
    const double density = uniform(0.0, 1.0);
    for (std::size_t i = 0; i < size; ++i) out.set(i, uniform(0.0, 1.0) < density);
    return out;
  }

 private:
  std::mt19937_64 rng_;
};

/// Node counts around the vector widths and the spread pass's 256-node tile.
constexpr std::size_t kLengths[] = {1,   2,   3,   4,   5,   7,   8,   9,   63,  64,
                                    65,  127, 255, 256, 257, 511, 513, 961, 1681};

class KernelIsaEquivalence : public ::testing::Test {
 protected:
  void SetUp() override {
    avx2_ = detail::avx2_kernels();
    if (avx2_ == nullptr) {
      GTEST_SKIP() << "CPU lacks AVX2: only the baseline variant runs";
    }
  }

  const detail::LocateKernels& base_ = detail::baseline_kernels();
  const detail::LocateKernels* avx2_ = nullptr;
};

TEST_F(KernelIsaEquivalence, ProcessRunsTheAvx2Variant) {
  EXPECT_EQ(detail::kernels().isa, "avx2");
  EXPECT_EQ(locate_kernel_isa(), "avx2");
  EXPECT_EQ(base_.isa, "baseline");
}

TEST_F(KernelIsaEquivalence, SpreadCountAndMask) {
  Values gen(0x5eed1);
  for (const std::size_t nodes : kLengths) {
    for (int rep = 0; rep < 12; ++rep) {
      const int k = gen.uniform_int(1, 8);
      const std::vector<double> tracking = gen.tracking_vector(k);
      const std::vector<double> planes = gen.planes(nodes, tracking);
      const std::vector<int> readers = gen.voting(k);
      const std::string where = "nodes " + std::to_string(nodes) + " rep " +
                                std::to_string(rep) + " voting " +
                                std::to_string(readers.size()) + "/" + std::to_string(k);

      std::vector<double> hi_base, lo_base, hi_avx2, lo_avx2;
      base_.distance_spread(planes, nodes, tracking, readers, hi_base, lo_base);
      avx2_->distance_spread(planes, nodes, tracking, readers, hi_avx2, lo_avx2);
      expect_same_doubles(hi_base, hi_avx2, "hi, " + where);
      expect_same_doubles(lo_base, lo_avx2, "lo, " + where);

      // Thresholds exactly equal to a distance, either side of it, and the
      // edges: every adaptive step and both mask sources.
      std::vector<double> thresholds = {0.0, -0.0, 0.5, 4.0, 1e300};
      for (int t = 0; t < 6; ++t) {
        const double d = gen.pick(hi_base);
        thresholds.push_back(d);
        thresholds.push_back(std::nextafter(d, -kInf));
        thresholds.push_back(gen.pick(lo_base));
      }
      const std::vector<double>* const sources[] = {&hi_base, &lo_base, &planes};
      for (const double t : thresholds) {
        for (const std::vector<double>* values : sources) {
          EXPECT_EQ(base_.count_at_most(*values, t), avx2_->count_at_most(*values, t))
              << where << " threshold " << t;
          BitMask mask_base, mask_avx2;
          base_.fill_mask_from_distances(*values, t, mask_base);
          avx2_->fill_mask_from_distances(*values, t, mask_avx2);
          EXPECT_EQ(mask_base, mask_avx2) << where << " threshold " << t;
        }
      }
    }
  }
}

TEST_F(KernelIsaEquivalence, LabelRuns) {
  Values gen(0x5eed2);
  for (int rep = 0; rep < 300; ++rep) {
    const auto cols = static_cast<std::size_t>(gen.uniform_int(1, 45));
    const auto rows = static_cast<std::size_t>(gen.uniform_int(1, 45));
    const BitMask mask = gen.mask(cols * rows);
    std::vector<detail::Run> runs_base, runs_avx2;
    std::vector<std::uint32_t> parent_base, parent_avx2;
    std::vector<std::size_t> sizes_base, sizes_avx2;
    base_.label_runs(mask, cols, rows, runs_base, parent_base, sizes_base);
    avx2_->label_runs(mask, cols, rows, runs_avx2, parent_avx2, sizes_avx2);
    ASSERT_EQ(runs_base.size(), runs_avx2.size()) << "rep " << rep;
    for (std::size_t r = 0; r < runs_base.size(); ++r) {
      EXPECT_EQ(runs_base[r].start, runs_avx2[r].start);
      EXPECT_EQ(runs_base[r].end, runs_avx2[r].end);
      EXPECT_EQ(runs_base[r].row, runs_avx2[r].row);
      EXPECT_EQ(runs_base[r].col, runs_avx2[r].col);
      EXPECT_EQ(runs_base[r].label, runs_avx2[r].label);
    }
    EXPECT_EQ(parent_base, parent_avx2) << "rep " << rep;
    EXPECT_EQ(sizes_base, sizes_avx2) << "rep " << rep;
  }
}

/// Runs both weighting variants, with and without the per-node copy-out,
/// and compares every output bit for bit.
void expect_same_weights(const detail::LocateKernels& base,
                         const detail::LocateKernels& avx2,
                         const geom::RegularGrid& lattice, std::span<const double> planes,
                         const BitMask& survivors, std::span<const double> tracking,
                         WeightingMode mode, double exponent, const std::string& where) {
  EstimateSummary sum_base, sum_avx2;
  WeightedEstimate est_base, est_avx2;
  base.weigh(lattice, planes, survivors, tracking, mode, exponent, sum_base, &est_base);
  avx2.weigh(lattice, planes, survivors, tracking, mode, exponent, sum_avx2, &est_avx2);
  EXPECT_EQ(bits(sum_base.position.x), bits(sum_avx2.position.x)) << where;
  EXPECT_EQ(bits(sum_base.position.y), bits(sum_avx2.position.y)) << where;
  EXPECT_EQ(sum_base.survivor_count, sum_avx2.survivor_count) << where;
  EXPECT_EQ(sum_base.cluster_sizes, sum_avx2.cluster_sizes) << where;
  expect_same_doubles(sum_base.cluster_weights, sum_avx2.cluster_weights,
                      "cluster weights, " + where);
  EXPECT_EQ(est_base.nodes, est_avx2.nodes) << where;
  expect_same_doubles(est_base.w1, est_avx2.w1, "w1, " + where);
  expect_same_doubles(est_base.w2, est_avx2.w2, "w2, " + where);
  expect_same_doubles(est_base.weights, est_avx2.weights, "weights, " + where);

  EstimateSummary summary_only;
  avx2.weigh(lattice, planes, survivors, tracking, mode, exponent, summary_only, nullptr);
  EXPECT_EQ(bits(summary_only.position.x), bits(sum_base.position.x)) << where;
  EXPECT_EQ(bits(summary_only.position.y), bits(sum_base.position.y)) << where;
  expect_same_doubles(summary_only.cluster_weights, sum_base.cluster_weights,
                      "summary-only cluster weights, " + where);
}

TEST_F(KernelIsaEquivalence, Weigh) {
  Values gen(0x5eed3);
  for (int rep = 0; rep < 200; ++rep) {
    const int cols = gen.uniform_int(1, 45);
    const int rows = gen.uniform_int(1, 45);
    const geom::RegularGrid lattice{{gen.uniform(-2.0, 2.0), gen.uniform(-2.0, 2.0)},
                                    gen.uniform(0.01, 0.5), cols, rows};
    const int k = gen.uniform_int(1, 8);
    std::vector<double> tracking = gen.tracking_vector(k);
    // 1..K voting readers: the rest read NaN and are skipped.
    const std::vector<int> voting = gen.voting(k);
    for (int r = 0; r < k; ++r) {
      if (std::find(voting.begin(), voting.end(), r) == voting.end()) {
        tracking[static_cast<std::size_t>(r)] = kNan;
      }
    }
    const std::vector<double> planes = gen.planes(lattice.node_count(), tracking);
    const BitMask survivors = gen.mask(lattice.node_count());
    const auto mode = static_cast<WeightingMode>(rep % 4);
    const double exponent = rep % 3 == 0 ? 2.0 : 1.0;
    expect_same_weights(base_, *avx2_, lattice, planes, survivors, tracking, mode,
                        exponent, "rep " + std::to_string(rep));
  }
}

TEST_F(KernelIsaEquivalence, InterpolateLinearPlane) {
  Values gen(0x5eed4);
  for (int rep = 0; rep < 300; ++rep) {
    const int real_cols = gen.uniform_int(1, 6);
    const int real_rows = gen.uniform_int(1, 6);
    const int subdivision = gen.uniform_int(1, 12);
    const int extension = gen.uniform_int(0, subdivision);
    const int vcols = (real_cols - 1) * subdivision + 1 + 2 * extension;
    const int vrows = (real_rows - 1) * subdivision + 1 + 2 * extension;
    std::vector<double> real(static_cast<std::size_t>(real_cols * real_rows));
    const double anchor = gen.uniform(-75.0, -35.0);
    for (double& v : real) v = gen.value(anchor);
    std::vector<double> out_base(static_cast<std::size_t>(vcols * vrows));
    std::vector<double> out_avx2(out_base.size());
    base_.interpolate_linear_plane(real, real_cols, real_rows, subdivision, extension,
                                   vcols, vrows, out_base);
    avx2_->interpolate_linear_plane(real, real_cols, real_rows, subdivision, extension,
                                    vcols, vrows, out_avx2);
    expect_same_doubles(out_base, out_avx2, "plane, rep " + std::to_string(rep));
  }
}

/// The production shape: the paper testbed's 4x4 real grid at n = 10 with
/// the 5-node boundary ring (41 x 41 virtual nodes), planes built by the
/// production interpolation, and every kernel of a locate on top of them.
TEST_F(KernelIsaEquivalence, PaperGridWithBoundaryRing) {
  Values gen(0x5eed5);
  const geom::RegularGrid real_grid{{0.0, 0.0}, 1.0, 4, 4};
  VirtualGridConfig config;
  config.subdivision = 10;
  config.boundary_extension_cells = 5;
  for (int rep = 0; rep < 40; ++rep) {
    const int k = gen.uniform_int(1, 6);
    std::vector<sim::RssiVector> refs(real_grid.node_count());
    for (auto& v : refs) {
      v.resize(static_cast<std::size_t>(k));
      for (double& x : v) {
        x = gen.uniform(0.0, 1.0) < 0.05 ? kNan : gen.uniform(-75.0, -35.0);
      }
    }
    const VirtualGrid grid(real_grid, refs, config);
    ASSERT_EQ(grid.grid().cols(), 41);
    std::vector<double> tracking = gen.tracking_vector(k);
    for (double& s : tracking) s = gen.uniform(-75.0, -35.0);
    const std::vector<int> readers = gen.voting(k);
    std::vector<double> voted(tracking.size(), kNan);
    for (const int r : readers) {
      voted[static_cast<std::size_t>(r)] = tracking[static_cast<std::size_t>(r)];
    }

    std::vector<double> hi_base, lo_base, hi_avx2, lo_avx2;
    const std::size_t nodes = grid.node_count();
    base_.distance_spread(grid.planes(), nodes, voted, readers, hi_base, lo_base);
    avx2_->distance_spread(grid.planes(), nodes, voted, readers, hi_avx2, lo_avx2);
    expect_same_doubles(hi_base, hi_avx2, "hi, rep " + std::to_string(rep));
    expect_same_doubles(lo_base, lo_avx2, "lo, rep " + std::to_string(rep));
    for (double t = 4.0; t >= 0.5; t -= 0.25) {
      ASSERT_EQ(base_.count_at_most(hi_base, t), avx2_->count_at_most(hi_base, t));
    }
    const bool empty = base_.count_at_most(hi_base, 4.0) == 0;
    BitMask survivors;
    base_.fill_mask_from_distances(empty ? lo_base : hi_base, 4.0, survivors);
    expect_same_weights(base_, *avx2_, grid.grid(), grid.planes(), survivors, voted,
                        WeightingMode::kCombined, 1.0,
                        "paper grid, rep " + std::to_string(rep));
  }
}

}  // namespace
}  // namespace vire::core
