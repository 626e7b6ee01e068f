#include "nn/memory_tensor.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace neutraj::nn {

MemoryTensor::MemoryTensor(int32_t num_cols, int32_t num_rows, size_t d)
    : num_cols_(num_cols), num_rows_(num_rows), dim_(d) {
  if (num_cols <= 0 || num_rows <= 0 || d == 0) {
    throw std::invalid_argument("MemoryTensor: non-positive dimensions");
  }
  data_.assign(static_cast<size_t>(num_cols) * num_rows * d, 0.0);
  written_.assign(static_cast<size_t>(num_cols) * num_rows, 0);
}

void MemoryTensor::GatherWindow(const std::vector<GridCell>& cells, Matrix* out,
                                std::vector<char>* written_mask) const {
  if (written_mask != nullptr) {
    written_mask->resize(cells.size());
    bool any = false;
    for (size_t i = 0; i < cells.size(); ++i) {
      const char flag = written_[Offset(cells[i]) / dim_];
      (*written_mask)[i] = flag;
      any = any || flag != 0;
    }
    if (!any) return;
  }
  if (out->rows() != cells.size() || out->cols() != dim_) {
    *out = Matrix(cells.size(), dim_);
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    std::memcpy(out->Row(i), Slice(cells[i]), dim_ * sizeof(double));
  }
}

void MemoryTensor::BlendWrite(const GridCell& cell, const Vector& gate,
                              const Vector& value) {
  // Always-on write contract (see header): a malformed or non-finite write
  // would silently corrupt every later attention read of this cell, so these
  // fire in every build type, not just under NEUTRAJ_CHECKS.
  NEUTRAJ_ASSERT_MSG(gate.size() == dim_ && value.size() == dim_,
                     "BlendWrite shape mismatch");
  NEUTRAJ_ASSERT_MSG(cell.px >= 0 && cell.px < num_cols_ && cell.qy >= 0 &&
                         cell.qy < num_rows_,
                     "BlendWrite cell out of bounds");
  NEUTRAJ_ASSERT_MSG(check_internal::AllFinite(gate) &&
                         check_internal::AllFinite(value),
                     "BlendWrite: non-finite SAM memory write");
  double* slot = MutableSlice(cell);
  for (size_t k = 0; k < dim_; ++k) {
    slot[k] = gate[k] * value[k] + (1.0 - gate[k]) * slot[k];
  }
  written_[Offset(cell) / dim_] = 1;
}

void MemoryTensor::ApplyWrites(const std::vector<PendingMemoryWrite>& log) {
  for (const PendingMemoryWrite& w : log) {
    BlendWrite(w.cell, w.gate, w.value);
  }
}

void MemoryTensor::Clear() {
  std::fill(data_.begin(), data_.end(), 0.0);
  std::fill(written_.begin(), written_.end(), 0);
}

void MemoryTensor::RecomputeWrittenFlags() {
  const size_t cells = written_.size();
  for (size_t c = 0; c < cells; ++c) {
    const double* slot = data_.data() + c * dim_;
    char flag = 0;
    for (size_t k = 0; k < dim_; ++k) {
      if (slot[k] != 0.0) {
        flag = 1;
        break;
      }
    }
    written_[c] = flag;
  }
}

int64_t MemoryTensor::CountNonZeroCells() const {
  int64_t count = 0;
  const size_t cells = data_.size() / std::max<size_t>(dim_, 1);
  for (size_t c = 0; c < cells; ++c) {
    const double* slot = data_.data() + c * dim_;
    for (size_t k = 0; k < dim_; ++k) {
      if (slot[k] != 0.0) {
        ++count;
        break;
      }
    }
  }
  return count;
}

}  // namespace neutraj::nn
