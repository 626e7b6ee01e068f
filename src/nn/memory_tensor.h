// The grid-based spatial memory tensor M of the SAM module.
//
// M stores a d-dimensional embedding per grid cell (R^{P x Q x d}), zero
// initialized, updated by the SAM writer as trajectories are processed.
// As in the reference implementation, M is *persistent state*, not a
// trainable parameter: reads treat its contents as constants for gradient
// purposes and writes are in-place blends.

#ifndef NEUTRAJ_NN_MEMORY_TENSOR_H_
#define NEUTRAJ_NN_MEMORY_TENSOR_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "geo/grid.h"
#include "nn/matrix.h"

namespace neutraj::nn {

/// Dense P x Q x d memory with O(1) cell access.
class MemoryTensor {
 public:
  MemoryTensor() = default;

  /// Allocates a zeroed memory for `num_cols x num_rows` cells of width `d`.
  MemoryTensor(int32_t num_cols, int32_t num_rows, size_t d);

  int32_t num_cols() const { return num_cols_; }
  int32_t num_rows() const { return num_rows_; }
  size_t dim() const { return dim_; }

  /// Pointer to the d-dimensional slice of `cell` (clamped by caller).
  const double* Slice(const GridCell& cell) const {
    return data_.data() + Offset(cell);
  }
  double* MutableSlice(const GridCell& cell) { return data_.data() + Offset(cell); }

  /// Copies the scan-window cell embeddings into a (window_size x d) matrix.
  /// `cells` come from Grid::ScanWindow. If `written_mask` is non-null it is
  /// filled with one flag per row: whether that cell has ever been written
  /// (never-written cells hold zeros and should be masked out of attention);
  /// when no flag is set, `out` is left untouched, since an all-masked read
  /// never looks at it.
  void GatherWindow(const std::vector<GridCell>& cells, Matrix* out,
                    std::vector<char>* written_mask = nullptr) const;

  /// True if `cell` has ever been written.
  bool IsWritten(const GridCell& cell) const {
    return written_[Offset(cell) / dim_] != 0;
  }

  /// Blended write of the paper's Eq. (write):
  ///   M(cell) = gate (*) value + (1 - gate) (*) M(cell)
  /// `gate` and `value` are d-dimensional. The write contract is enforced
  /// with always-on NEUTRAJ_ASSERTs (every build type): the cell must be in
  /// bounds, the shapes must match and the written content must be finite —
  /// a non-finite write would silently poison every later read of the cell.
  void BlendWrite(const GridCell& cell, const Vector& gate, const Vector& value);

  /// Replays recorded writes in log order via BlendWrite — the commit step
  /// of the deferred-write protocol used by parallel training (see
  /// MemoryWriteLog below).
  void ApplyWrites(const std::vector<struct PendingMemoryWrite>& log);

  /// Resets all cells to zero (used between training runs).
  void Clear();

  /// Number of cells whose embedding is non-zero (diagnostics/tests).
  int64_t CountNonZeroCells() const;

  /// Raw storage for serialization.
  const std::vector<double>& values() const { return data_; }
  std::vector<double>& values() { return data_; }

  /// Rebuilds the written-cell flags from the current values (a cell counts
  /// as written iff any of its entries is non-zero). Used after
  /// deserializing raw values.
  void RecomputeWrittenFlags();

 private:
  size_t Offset(const GridCell& cell) const {
    NEUTRAJ_DCHECK_MSG(cell.px >= 0 && cell.px < num_cols_ && cell.qy >= 0 &&
                           cell.qy < num_rows_,
                       "memory cell out of bounds");
    return (static_cast<size_t>(cell.qy) * static_cast<size_t>(num_cols_) +
            static_cast<size_t>(cell.px)) *
           dim_;
  }

  int32_t num_cols_ = 0;
  int32_t num_rows_ = 0;
  size_t dim_ = 0;
  std::vector<double> data_;
  std::vector<char> written_;  // One flag per cell.
};

/// One recorded (but not yet applied) SAM memory write.
///
/// Parallel training runs many encodes concurrently against a read-only
/// memory snapshot; each encode records its writes into a MemoryWriteLog
/// instead of mutating M, and the trainer commits all logs in a fixed
/// anchor order after the batch barrier. This makes the memory state a pure
/// function of the batch, independent of thread interleaving.
struct PendingMemoryWrite {
  GridCell cell{0, 0};
  Vector gate;
  Vector value;
};

using MemoryWriteLog = std::vector<PendingMemoryWrite>;

}  // namespace neutraj::nn

#endif  // NEUTRAJ_NN_MEMORY_TENSOR_H_
