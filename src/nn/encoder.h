// RNN trajectory encoder: unrolls an (optionally SAM-augmented) recurrent
// cell over a trajectory and returns the final hidden state as the
// embedding E (paper Sec. V-A). Supports truncated-to-full BPTT via an
// explicit tape.

#ifndef NEUTRAJ_NN_ENCODER_H_
#define NEUTRAJ_NN_ENCODER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "geo/grid.h"
#include "nn/gru_cell.h"
#include "nn/lstm_cell.h"
#include "nn/memory_tensor.h"
#include "nn/sam_cell.h"

namespace neutraj::nn {

/// Which recurrent backbone the encoder unrolls.
enum class Backbone {
  kLstm,     ///< Standard LSTM (Siamese baseline, NT-No-SAM ablation).
  kSamLstm,  ///< SAM-augmented LSTM (full NeuTraj).
  kGru,      ///< Standard GRU.
  kSamGru,   ///< SAM-augmented GRU (the paper's "any RNN" claim).
};

/// Full unrolled tape of one encoded trajectory.
struct EncodeTape {
  std::vector<LstmTape> lstm_steps;
  std::vector<SamTape> sam_steps;
  std::vector<GruTape> gru_steps;
  size_t length = 0;
};

/// Trajectory -> R^d encoder.
///
/// Owns the recurrent cell, the grid discretizer and (for the SAM backbone)
/// the spatial memory tensor. The memory is training-time state: call
/// ResetMemory() before a fresh training run; inference encodes read-only.
class Encoder {
 public:
  /// Builds an encoder over `grid` with hidden width `hidden_dim`.
  /// `scan_width` is the SAM window half-width w (ignored for kLstm).
  Encoder(Backbone backbone, const Grid& grid, size_t hidden_dim,
          int32_t scan_width);

  void Initialize(Rng* rng);

  /// Encodes `traj`; writes the unrolled activations into `tape` if non-null
  /// (required for Backward). `update_memory` enables the SAM writer — true
  /// while training over seeds, false for inference.
  ///
  /// `ws` (optional) supplies reusable scratch so repeated encodes do not
  /// allocate per step; one workspace serves one thread. `write_log`
  /// (optional) defers SAM memory writes: instead of mutating the memory
  /// tensor, writes are appended to the log for a later ordered
  /// MemoryTensor::ApplyWrites — the deferred-write protocol that makes
  /// parallel training batches independent of thread interleaving.
  /// Throws std::invalid_argument on an empty trajectory and on a point
  /// that normalizes to a non-finite value (a non-finite coordinate, or a
  /// huge one on a region narrower than one unit).
  Vector Encode(const Trajectory& traj, bool update_memory,
                EncodeTape* tape = nullptr, CellWorkspace* ws = nullptr,
                MemoryWriteLog* write_log = nullptr);

  /// Backpropagates dL/dE through the unrolled steps, accumulating
  /// parameter gradients — into `sink` (aligned with Params() order) when
  /// non-null, so concurrent backward passes over one shared encoder never
  /// race; into the cell's own Param::grad otherwise. `ws` as in Encode.
  void Backward(const EncodeTape& tape, const Vector& d_embedding,
                GradBuffer* sink = nullptr, CellWorkspace* ws = nullptr);

  std::vector<Param*> Params();

  Backbone backbone() const { return backbone_; }
  size_t hidden_dim() const { return hidden_; }
  int32_t scan_width() const { return scan_width_; }
  const Grid& grid() const { return grid_; }
  bool has_memory() const { return memory_.has_value(); }
  MemoryTensor& memory() { return *memory_; }
  const MemoryTensor& memory() const { return *memory_; }

  /// Zeroes the spatial memory (no-op for the LSTM backbone).
  void ResetMemory();

 private:
  Backbone backbone_;
  Grid grid_;
  size_t hidden_;
  int32_t scan_width_;
  std::optional<LstmCell> lstm_;
  std::optional<SamLstmCell> sam_;
  std::optional<SamGruCell> gru_;
  std::optional<MemoryTensor> memory_;
};

}  // namespace neutraj::nn

#endif  // NEUTRAJ_NN_ENCODER_H_
