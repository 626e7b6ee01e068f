// Soft-attention read over a window of memory slots.
//
// Forward (paper Sec. IV-C-1):
//   A   = softmax(G * q)        -- attention over window rows
//   mix = G^T * A               -- attended summary
// Backward: gradients flow into the query q only; G (the memory contents)
// is treated as constant, matching the reference implementation.

#ifndef NEUTRAJ_NN_ATTENTION_H_
#define NEUTRAJ_NN_ATTENTION_H_

#include "nn/matrix.h"

namespace neutraj::nn {

/// Saved activations of one attention read, needed for its backward pass.
struct AttentionTape {
  Matrix g;    ///< Window embeddings (k x d) snapshotted at read time.
  Vector a;    ///< Attention weights (k); zero on masked rows.
  Vector mix;  ///< Attended summary (d); all-zero when every row is masked.
  bool all_masked = false;
};

/// Computes A = softmax(G q) and mix = G^T A; fills `tape` (including a copy
/// of G, since memory contents change between steps).
///
/// `mask` (optional, one flag per row of G) restricts the softmax to rows
/// with a non-zero flag — used to exclude never-written memory cells, whose
/// zero embeddings would otherwise soak up attention mass. When every row
/// is masked, A and mix are zero and `all_masked` is set.
void AttentionForward(const Matrix& g, const Vector& q, AttentionTape* tape,
                      const std::vector<char>* mask = nullptr);

/// Hot-path variant: assumes `tape->g` has already been filled in place
/// (e.g. gathered straight from the memory tensor), skipping the extra
/// window copy that AttentionForward makes. When every row is masked it
/// reads neither `tape->g` nor `q`, so the gather may skip the copy.
void AttentionForwardPrefilled(AttentionTape* tape, const Vector& q,
                               const std::vector<char>* mask);

/// Given dL/dmix and (optionally) a direct dL/dA, accumulates dL/dq.
/// `da_direct` may be nullptr. `da_scratch` / `du_scratch` (optional) are
/// caller-owned buffers that kill the per-step allocations of the hot path.
void AttentionBackward(const AttentionTape& tape, const Vector& dmix,
                       const Vector* da_direct, Vector* dq_accum,
                       Vector* da_scratch = nullptr, Vector* du_scratch = nullptr);

}  // namespace neutraj::nn

#endif  // NEUTRAJ_NN_ATTENTION_H_
