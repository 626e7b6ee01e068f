// Unified interface over the approximate algorithms — the "AP" baseline of
// the paper's experiments.
//
// Each method splits work into a per-trajectory Sketch (computed once per
// corpus item) and a sketch-to-sketch distance, mirroring how these
// algorithms amortize preprocessing in practice. ERP has no published
// approximate algorithm (Table II reports "-"), so Create() returns null
// for it.

#ifndef NEUTRAJ_APPROX_APPROX_REGISTRY_H_
#define NEUTRAJ_APPROX_APPROX_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/search.h"
#include "distance/measures.h"
#include "geo/grid.h"

namespace neutraj {

/// Tuning knobs of the approximate algorithms.
struct ApproxParams {
  /// Snap resolution for the Fréchet signature (meters). <= 0 selects
  /// 1/64 of the region diagonal.
  double frechet_cell_size = 0.0;
  /// FastDTW refinement radius.
  int fastdtw_radius = 1;
  /// Grid resolution of the Hausdorff distance-transform embedding.
  int32_t hausdorff_grid_cols = 24;
  int32_t hausdorff_grid_rows = 24;
  /// The region all trajectories live in (required for Hausdorff).
  BoundingBox region = BoundingBox::Empty();

  /// Fills region-dependent defaults from `region`.
  static ApproxParams ForRegion(const BoundingBox& region);
};

/// An approximate trajectory-distance algorithm.
class ApproxDistance {
 public:
  /// Opaque per-trajectory preprocessing result.
  class Sketch {
   public:
    virtual ~Sketch() = default;
  };

  virtual ~ApproxDistance() = default;

  virtual std::string name() const = 0;

  /// Builds the per-trajectory summary (signature curve, DT embedding, ...).
  virtual std::unique_ptr<Sketch> Prepare(const Trajectory& t) const = 0;

  /// Approximate distance between two prepared sketches.
  virtual double Distance(const Sketch& a, const Sketch& b) const = 0;

  /// Convenience one-shot distance (prepares both sides).
  double Distance(const Trajectory& a, const Trajectory& b) const;

  /// Prepares a whole corpus.
  std::vector<std::unique_ptr<Sketch>> PrepareCorpus(
      const std::vector<Trajectory>& corpus) const;

  /// Top-k search of `query` against a prepared corpus.
  SearchResult TopK(const std::vector<std::unique_ptr<Sketch>>& corpus,
                    const Trajectory& query, size_t k,
                    int64_t exclude = -1) const;

  /// Factory: the paper's AP baseline for `m`, or nullptr for ERP (no
  /// approximate algorithm exists).
  static std::unique_ptr<ApproxDistance> Create(Measure m,
                                                const ApproxParams& params);
};

}  // namespace neutraj

#endif  // NEUTRAJ_APPROX_APPROX_REGISTRY_H_
