#pragma once
// The locate hot path, built once per instruction set (internal to
// src/core and its tests).
//
// Every loop a locate spends its time in lives in one source,
// locate_kernels.inc, which locate_kernels.cpp compiles twice: once for the
// build's baseline target and once as [[gnu::target("avx2")]]. The first
// call to kernels() picks the AVX2 table when the CPU has AVX2, so a process
// runs one variant throughout. Both variants compute the same bits: every
// operation is exact or correctly rounded, nothing is contracted into an FMA
// (the AVX2 target has no FMA and the build pins -ffp-contract=off), and no
// floating-point reduction is reordered. tests/core/
// kernel_isa_equivalence_test.cpp runs both tables on the same inputs and
// compares them bit for bit. See docs/algorithm.md, "Data layout & SIMD".

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/bitmask.h"
#include "core/locate_scratch.h"
#include "core/weights.h"
#include "geom/grid.h"

namespace vire::core::detail {

struct LocateKernels {
  /// "baseline" or "avx2".
  std::string_view isa;

  /// Per-node spread of the voting readers' distances |plane_k[i] - s_k|
  /// (docs/algorithm.md): `hi` the largest, `lo` the smallest, a NaN
  /// distance read as +inf. `planes` holds the reader planes back to back,
  /// node_count values each; `readers` lists the voting readers.
  void (*distance_spread)(std::span<const double> planes, std::size_t node_count,
                          std::span<const double> tracking, std::span<const int> readers,
                          std::vector<double>& hi, std::vector<double>& lo);

  /// Number of entries <= threshold.
  std::size_t (*count_at_most)(std::span<const double> values, double threshold);

  /// See core::fill_mask_from_distances().
  void (*fill_mask_from_distances)(std::span<const double> distances, double threshold,
                                   BitMask& mask);

  /// Run-based 4-connected labelling of a cols x rows mask: fills `runs`
  /// (with labels), the union-find forest `parent` and `sizes[label]`.
  void (*label_runs)(const BitMask& mask, std::size_t cols, std::size_t rows,
                     std::vector<Run>& runs, std::vector<std::uint32_t>& parent,
                     std::vector<std::size_t>& sizes);

  /// The weighting kernel behind compute_estimate() (per_node set) and
  /// summarize_estimate() (per_node null). `planes` holds one plane of
  /// lattice.node_count() values per entry of `tracking`.
  void (*weigh)(const geom::RegularGrid& lattice, std::span<const double> planes,
                const BitMask& survivors, std::span<const double> tracking,
                WeightingMode mode, double w1_exponent, EstimateSummary& out,
                WeightedEstimate* per_node);

  /// See core::interpolate_linear_plane().
  void (*interpolate_linear_plane)(std::span<const double> real_values, int real_cols,
                                   int real_rows, int subdivision, int extension,
                                   int virtual_cols, int virtual_rows,
                                   std::span<double> out);
};

/// The build's baseline variant; runs on every CPU the build targets.
[[nodiscard]] const LocateKernels& baseline_kernels() noexcept;

/// The AVX2 variant, or null where the CPU lacks AVX2 (or the target is not
/// x86). Only tests call it directly.
[[nodiscard]] const LocateKernels* avx2_kernels() noexcept;

/// The variant this process runs, chosen from the CPU on the first call.
[[nodiscard]] const LocateKernels& kernels() noexcept;

}  // namespace vire::core::detail
