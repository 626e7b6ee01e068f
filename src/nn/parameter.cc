#include "nn/parameter.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "common/check.h"

namespace neutraj::nn {

GradBuffer::GradBuffer(const std::vector<Param*>& params) {
  mats_.reserve(params.size());
  for (const Param* p : params) {
    NEUTRAJ_DCHECK_MSG(p->grad.rows() == p->value.rows() &&
                           p->grad.cols() == p->value.cols(),
                       "Param grad/value shape mismatch");
    mats_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void GradBuffer::Zero() {
  for (Matrix& m : mats_) m.Zero();
}

void GradBuffer::AddTo(const std::vector<Param*>& params) const {
  if (params.size() != mats_.size()) {
    throw std::invalid_argument("GradBuffer::AddTo: parameter count mismatch");
  }
  for (size_t i = 0; i < mats_.size(); ++i) {
    const Matrix& src = mats_[i];
    Matrix& dst = params[i]->grad;
    if (src.rows() != dst.rows() || src.cols() != dst.cols()) {
      throw std::invalid_argument("GradBuffer::AddTo: shape mismatch for " +
                                  params[i]->name);
    }
    const auto& sv = src.values();
    auto& dv = dst.values();
    for (size_t k = 0; k < sv.size(); ++k) dv[k] += sv[k];
  }
}

void ZeroGrads(const std::vector<Param*>& params) {
  for (Param* p : params) p->ZeroGrad();
}

double GradNorm(const std::vector<Param*>& params) {
  double s = 0.0;
  for (const Param* p : params) s += p->grad.SquaredNorm();
  return std::sqrt(s);
}

double ClipGradNorm(const std::vector<Param*>& params, double max_norm) {
  NEUTRAJ_DCHECK_MSG(max_norm > 0.0, "ClipGradNorm: max_norm must be positive");
  const double norm = GradNorm(params);
  if (norm > max_norm && norm > 0.0) {
    const double scale = max_norm / norm;
    for (Param* p : params) {
      for (double& g : p->grad.values()) g *= scale;
    }
  }
  return norm;
}

bool HasNonFiniteValues(const std::vector<Param*>& params) {
  for (const Param* p : params) {
    for (double v : p->value.values()) {
      if (!std::isfinite(v)) return true;
    }
  }
  return false;
}

std::string SerializeParams(const std::vector<const Param*>& params) {
  std::ostringstream out;
  out.precision(17);
  for (const Param* p : params) {
    out << p->name << ' ' << p->value.rows() << ' ' << p->value.cols() << '\n';
    const auto& v = p->value.values();
    for (size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out << ' ';
      out << v[i];
    }
    out << '\n';
  }
  return out.str();
}

void DeserializeParams(const std::string& text,
                       const std::vector<Param*>& params) {
  std::istringstream in(text);
  for (Param* p : params) {
    std::string name;
    size_t rows = 0, cols = 0;
    if (!(in >> name >> rows >> cols)) {
      throw std::runtime_error("DeserializeParams: truncated header for " +
                               p->name);
    }
    if (name != p->name || rows != p->value.rows() || cols != p->value.cols()) {
      throw std::runtime_error("DeserializeParams: mismatch, expected " + p->name +
                               " got " + name);
    }
    for (double& v : p->value.values()) {
      if (!(in >> v)) {
        throw std::runtime_error("DeserializeParams: truncated values for " +
                                 p->name);
      }
    }
    NEUTRAJ_DCHECK_FINITE(p->value.values());
  }
}

}  // namespace neutraj::nn
