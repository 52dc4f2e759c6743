#include "core/weights.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/locate_scratch.h"

namespace vire::core {

std::string_view to_string(WeightingMode m) noexcept {
  switch (m) {
    case WeightingMode::kCombined: return "w1*w2";
    case WeightingMode::kW1Only: return "w1-only";
    case WeightingMode::kW2Only: return "w2-only";
    case WeightingMode::kUniform: return "uniform";
  }
  return "unknown";
}

namespace {

using detail::Run;

/// First index in [from, limit) whose bit equals `value`, or `limit`.
std::size_t next_bit(std::span<const BitMask::Word> words, std::size_t from,
                     std::size_t limit, bool value) {
  while (from < limit) {
    const std::size_t w = from / BitMask::kWordBits;
    const BitMask::Word bits =
        (value ? words[w] : ~words[w]) >> (from % BitMask::kWordBits);
    if (bits != 0) {
      return std::min(limit, from + static_cast<std::size_t>(std::countr_zero(bits)));
    }
    from = (w + 1) * BitMask::kWordBits;
  }
  return limit;
}

std::uint32_t find_root(std::vector<std::uint32_t>& parent, std::uint32_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];  // path halving
    x = parent[x];
  }
  return x;
}

/// Run-based 4-connected labelling. Each row's set bits are cut into runs
/// (a run always ends at its row's end), every run is united with the
/// overlapping runs of the row above, and each union keeps the smaller run
/// index as the root. Runs are in ascending node order, so a component's
/// root is the run holding its smallest node, and numbering the roots in
/// run order numbers the components exactly as a seed-order flood fill
/// would. Fills `runs` (with labels) and `sizes[label]`.
void label_runs(const BitMask& mask, std::size_t cols, std::size_t rows,
                std::vector<Run>& runs, std::vector<std::uint32_t>& parent,
                std::vector<std::size_t>& sizes) {
  runs.clear();
  parent.clear();
  sizes.clear();
  const std::span<const BitMask::Word> words = mask.words();
  std::size_t above = 0;  // first run of the previous row
  for (std::size_t row = 0; row < rows; ++row) {
    const std::size_t row_start = row * cols;
    const std::size_t row_end = row_start + cols;
    const std::size_t first = runs.size();
    for (std::size_t i = next_bit(words, row_start, row_end, true); i < row_end;
         i = next_bit(words, i, row_end, true)) {
      const std::size_t end = next_bit(words, i, row_end, false);
      parent.push_back(static_cast<std::uint32_t>(runs.size()));
      runs.push_back({i, end, row, i - row_start, 0});
      i = end;
    }
    // Both rows' runs are sorted and disjoint: one merge-style sweep meets
    // every overlapping pair. Shifting the upper run down a row turns
    // "shares a column" into "overlaps as node ranges".
    std::size_t a = above;
    std::size_t b = first;
    while (a < first && b < runs.size()) {
      const std::size_t a_start = runs[a].start + cols;
      const std::size_t a_end = runs[a].end + cols;
      if (a_start < runs[b].end && runs[b].start < a_end) {
        const std::uint32_t ra = find_root(parent, static_cast<std::uint32_t>(a));
        const std::uint32_t rb = find_root(parent, static_cast<std::uint32_t>(b));
        if (ra < rb) parent[rb] = ra;
        if (rb < ra) parent[ra] = rb;
      }
      if (a_end <= runs[b].end) {
        ++a;
      } else {
        ++b;
      }
    }
    above = first;
  }
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const std::uint32_t root = find_root(parent, static_cast<std::uint32_t>(r));
    if (root == r) {
      runs[r].label = static_cast<std::uint32_t>(sizes.size());
      sizes.push_back(0);
    } else {
      runs[r].label = runs[root].label;  // root < r: already numbered
    }
    sizes[runs[r].label] += runs[r].end - runs[r].start;
  }
}

void label_mask(const BitMask& mask, int cols, int rows, detail::LocateScratch& scratch,
                std::vector<std::size_t>& sizes) {
  if (cols < 0 || rows < 0 ||
      mask.size() != static_cast<std::size_t>(cols) * static_cast<std::size_t>(rows)) {
    throw std::invalid_argument("label_components: mask/lattice size mismatch");
  }
  label_runs(mask, static_cast<std::size_t>(cols), static_cast<std::size_t>(rows),
             scratch.runs, scratch.parent, sizes);
}

/// The one weighting kernel behind compute_estimate() and
/// summarize_estimate(). Every floating-point operation a node's weight and
/// the centroid see is the same, in the same order, as in a per-node loop
/// over the survivors in ascending order (see docs/algorithm.md, "Data
/// layout & SIMD"): the per-reader terms are summed reader by reader, and the
/// weight sum, centroid and cluster weights accumulate in node order.
/// `per_node`, when set, also receives the per-node vectors; it never
/// changes the arithmetic.
void weigh(const VirtualGrid& grid, const BitMask& survivors,
           const sim::RssiVector& tracking, WeightingMode mode, double w1_exponent,
           EstimateSummary& out, WeightedEstimate* per_node) {
  if (survivors.size() != grid.node_count()) {
    throw std::invalid_argument("compute_estimate: survivor mask size mismatch");
  }
  detail::LocateScratch& scratch = detail::locate_scratch();
  const geom::RegularGrid& lattice = grid.grid();
  label_mask(survivors, lattice.cols(), lattice.rows(), scratch, out.cluster_sizes);
  out.cluster_weights.assign(out.cluster_sizes.size(), 0.0);
  out.position = {0.0, 0.0};
  out.survivor_count = 0;

  std::size_t total = 0;
  for (const Run& run : scratch.runs) total += run.end - run.start;
  scratch.discrepancy.assign(total, 0.0);
  scratch.used.assign(total, 0.0);
  scratch.w1.resize(total);
  scratch.weight.resize(total);

  // w1 numerator: per run, readers outer, so each node loop is a straight
  // vector loop over one plane. A NaN node value is swapped for the tracking
  // value, which makes its term exactly +0.0; adding that to a sum that
  // starts at +0.0 and never shrinks leaves the sum unchanged, exactly like
  // skipping the reader. Keeping the division unconditional is what lets the
  // loop vectorise.
  constexpr double kEps = 1e-6;
  const int reader_count = grid.reader_count();
  std::size_t offset = 0;
  for (const Run& run : scratch.runs) {
    const std::size_t len = run.end - run.start;
    double* const acc = scratch.discrepancy.data() + offset;
    double* const used = scratch.used.data() + offset;
    for (int k = 0; k < reader_count; ++k) {
      const double s_track = tracking[static_cast<std::size_t>(k)];
      if (std::isnan(s_track)) continue;
      const double* const values = grid.reader_values(k).data() + run.start;
      for (std::size_t j = 0; j < len; ++j) {
        const double s_node = values[j] == values[j] ? values[j] : s_track;
        acc[j] += std::abs(s_node - s_track) / std::max(std::abs(s_node), kEps);
      }
      for (std::size_t j = 0; j < len; ++j) {
        used[j] += values[j] == values[j] ? 1.0 : 0.0;
      }
    }
    offset += len;
  }
  // w1 = 1/(mean discrepancy + eps). A node no reader can compare (used ==
  // 0) gets NaN here and is skipped below. pow(x, 1.0) == x exactly (see
  // weights.h), so the default exponent skips the libm call without moving
  // a bit.
  for (std::size_t i = 0; i < total; ++i) {
    scratch.w1[i] = 1.0 / (scratch.discrepancy[i] / scratch.used[i] + kEps);
  }
  if (w1_exponent != 1.0) {
    for (std::size_t i = 0; i < total; ++i) {
      scratch.w1[i] = std::pow(scratch.w1[i], w1_exponent);
    }
  }

  // Combined weights and their sum, in ascending node order. w2 is the
  // density weight n_ci^2 (normalisation constants cancel).
  double sum = 0.0;
  offset = 0;
  for (const Run& run : scratch.runs) {
    const auto size = static_cast<double>(out.cluster_sizes[run.label]);
    const double w2 = size * size;
    for (std::size_t i = offset; i < offset + (run.end - run.start); ++i) {
      double w = 0.0;
      if (scratch.used[i] != 0.0) {  // else: node incomparable with this vector
        switch (mode) {
          case WeightingMode::kCombined: w = scratch.w1[i] * w2; break;
          case WeightingMode::kW1Only: w = scratch.w1[i]; break;
          case WeightingMode::kW2Only: w = w2; break;
          case WeightingMode::kUniform: w = 1.0; break;
        }
        sum += w;
        ++out.survivor_count;
      }
      scratch.weight[i] = w;
    }
    offset += run.end - run.start;
  }
  if (out.survivor_count == 0) return;
  for (std::size_t i = 0; i < total; ++i) scratch.weight[i] /= sum;

  // Centroid and cluster weights, again in node order. A run is one
  // cluster, so its weight accumulates in a register and is stored once.
  if (per_node != nullptr) {
    per_node->nodes.reserve(out.survivor_count);
    per_node->w1.reserve(out.survivor_count);
    per_node->w2.reserve(out.survivor_count);
    per_node->weights.reserve(out.survivor_count);
  }
  geom::Vec2 position{0.0, 0.0};
  offset = 0;
  for (const Run& run : scratch.runs) {
    const std::size_t len = run.end - run.start;
    const auto row = static_cast<int>(run.row);
    double cluster_weight = out.cluster_weights[run.label];
    for (std::size_t j = 0; j < len; ++j) {
      const std::size_t i = offset + j;
      if (scratch.used[i] == 0.0) continue;
      const double w = scratch.weight[i];
      position += lattice.position(geom::GridIndex{static_cast<int>(run.col + j), row}) * w;
      cluster_weight += w;
    }
    out.cluster_weights[run.label] = cluster_weight;
    if (per_node != nullptr) {
      const auto size = static_cast<double>(out.cluster_sizes[run.label]);
      for (std::size_t j = 0; j < len; ++j) {
        const std::size_t i = offset + j;
        if (scratch.used[i] == 0.0) continue;
        per_node->nodes.push_back(run.start + j);
        per_node->w1.push_back(scratch.w1[i]);
        per_node->w2.push_back(size * size);
        per_node->weights.push_back(scratch.weight[i]);
      }
    }
    offset += len;
  }
  out.position = position;
}

}  // namespace

std::vector<int> label_components(const BitMask& mask, int cols, int rows,
                                  std::vector<std::size_t>& component_sizes) {
  detail::LocateScratch& scratch = detail::locate_scratch();
  label_mask(mask, cols, rows, scratch, component_sizes);
  std::vector<int> labels(mask.size(), -1);
  for (const Run& run : scratch.runs) {
    std::fill(labels.begin() + static_cast<std::ptrdiff_t>(run.start),
              labels.begin() + static_cast<std::ptrdiff_t>(run.end),
              static_cast<int>(run.label));
  }
  return labels;
}

WeightedEstimate compute_estimate(const VirtualGrid& grid, const BitMask& survivors,
                                  const sim::RssiVector& tracking, WeightingMode mode,
                                  double w1_exponent) {
  WeightedEstimate est;
  EstimateSummary summary;
  weigh(grid, survivors, tracking, mode, w1_exponent, summary, &est);
  est.position = summary.position;
  est.cluster_sizes = std::move(summary.cluster_sizes);
  est.cluster_weights = std::move(summary.cluster_weights);
  return est;
}

EstimateSummary summarize_estimate(const VirtualGrid& grid, const BitMask& survivors,
                                   const sim::RssiVector& tracking, WeightingMode mode,
                                   double w1_exponent) {
  EstimateSummary summary;
  weigh(grid, survivors, tracking, mode, w1_exponent, summary, nullptr);
  return summary;
}

}  // namespace vire::core
