#pragma once
// VireLocalizer: the paper's full pipeline behind one call.
//   set_reference_rssi()  — interpolate the virtual reference grid (Sec 4.2)
//   locate()              — proximity maps -> elimination (Sec 4.3)
//                           -> w1/w2 weighted centroid.
//
// The localizer never sees ground truth or channel internals — only the
// real reference tags' positions/RSSI and the tracking tag's RSSI vector,
// the same information LANDMARC uses. The improvement comes purely from the
// virtual densification and elimination.

#include <optional>
#include <vector>

#include "core/elimination.h"
#include "core/virtual_grid.h"
#include "core/weights.h"
#include "geom/grid.h"
#include "sim/types.h"

namespace vire::core {

struct VireConfig {
  VirtualGridConfig virtual_grid;
  EliminationConfig elimination;
  WeightingMode weighting = WeightingMode::kCombined;
  /// Exponent on the inverse-discrepancy weight w1 (1 = paper formula).
  double w1_exponent = 1.0;
};

/// The configuration used by the evaluation benches and examples:
/// paper-faithful algorithm choices (linear interpolation, n = 10 so
/// N^2 = 961 ~ the paper's 900, adaptive common threshold, combined w1*w2
/// weighting) plus the library's boundary-compensation extension (a 0.5 m
/// extrapolated virtual ring, boundary_extension_cells = subdivision/2),
/// which repairs the paper's acknowledged boundary/outside-tag weakness
/// (its Tag 9). Set boundary_extension_cells = 0 for the strict paper
/// behaviour.
[[nodiscard]] VireConfig recommended_vire_config();

struct VireResult {
  geom::Vec2 position;
  EliminationResult elimination;  ///< maps/thresholds/survivors (diagnostics)
  WeightedEstimate estimate;      ///< surviving nodes and weights
  [[nodiscard]] std::size_t survivor_count() const noexcept {
    return estimate.nodes.size();
  }
};

/// What a fix keeps of one locate: the position and its provenance, without
/// the per-node vectors of VireResult. The engine holds one of these per tag
/// between its locate phase and the merge.
struct LocateSummary {
  /// Position, weighted-survivor count (== VireResult::survivor_count())
  /// and per-cluster provenance.
  EstimateSummary estimate;
  /// Threshold-refinement provenance, as in EliminationResult.
  int refinement_steps = 0;
  double initial_threshold_db = 0.0;
  double final_threshold_db = 0.0;
  std::vector<std::size_t> survivors_per_step;
};

/// Optional per-locate timing side channel (wall time, seconds). Filled when
/// a caller passes it to locate(); used by the engine's stage histograms.
/// Never feeds back into the estimate, so determinism is unaffected.
struct LocateStats {
  double elimination_seconds = 0.0;
  double weighting_seconds = 0.0;
};

class VireLocalizer {
 public:
  /// @param real_grid  geometry of the real reference-tag lattice
  explicit VireLocalizer(const geom::RegularGrid& real_grid, VireConfig config = {});

  /// (Re)builds the virtual grid from fresh reference readings (row-major
  /// over the real grid, one RssiVector per reference tag). Call again
  /// whenever the middleware window moves — this is the paper's "updated if
  /// the RSSI reading of a real reference tag is changed".
  void set_reference_rssi(const std::vector<sim::RssiVector>& reference_rssi);

  /// Incremental variant: re-interpolates only `dirty_readers`' planes of
  /// the existing virtual grid from the fresh readings. The caller must have
  /// verified the other readers' reference readings are unchanged (NaN-aware
  /// comparison); then the result is bit-identical to set_reference_rssi()
  /// at a fraction of the cost. Falls back to a full build when no grid
  /// exists yet.
  void update_reference_rssi(const std::vector<sim::RssiVector>& reference_rssi,
                             const std::vector<int>& dirty_readers);

  /// Locates one tracking tag. nullopt if no virtual grid has been built or
  /// no region survives with comparable readings. `stats`, when non-null,
  /// receives per-stage wall times (a pure observability side channel).
  [[nodiscard]] std::optional<VireResult> locate(const sim::RssiVector& tracking,
                                                 LocateStats* stats = nullptr) const;

  /// locate() without the per-node vectors: the same elimination and
  /// weighting kernels, the same bits for every field it returns, and no
  /// per-node allocation. This is the engine's per-tag path.
  [[nodiscard]] std::optional<LocateSummary> locate_summary(
      const sim::RssiVector& tracking, LocateStats* stats = nullptr) const;

  /// Degradation-aware variant: readers with reader_mask[k] == false are
  /// excluded — their proximity maps never enter the elimination
  /// intersection, exactly as if the tag were undetected by them. Used by
  /// the engine to keep localizing over the healthy reader subset when a
  /// HealthMonitor quarantines readers (see docs/robustness.md). The mask
  /// size must match the tracking vector; an all-true mask is identical to
  /// the unmasked overload bit for bit.
  [[nodiscard]] std::optional<VireResult> locate(const sim::RssiVector& tracking,
                                                 const std::vector<bool>& reader_mask,
                                                 LocateStats* stats = nullptr) const;

  [[nodiscard]] bool ready() const noexcept { return virtual_grid_.has_value(); }
  [[nodiscard]] const VirtualGrid& virtual_grid() const { return *virtual_grid_; }
  [[nodiscard]] const VireConfig& config() const noexcept { return config_; }
  [[nodiscard]] const geom::RegularGrid& real_grid() const noexcept {
    return real_grid_;
  }

  /// Total number of virtual reference tags (the paper's N^2).
  [[nodiscard]] std::size_t virtual_tag_count() const {
    return virtual_grid_ ? virtual_grid_->node_count() : 0;
  }

 private:
  geom::RegularGrid real_grid_;
  VireConfig config_;
  EliminationEngine elimination_;
  std::optional<VirtualGrid> virtual_grid_;
};

}  // namespace vire::core
