#include "nn/adam.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/check.h"

namespace neutraj::nn {

Adam::Adam(std::vector<Param*> params, const AdamOptions& opts)
    : params_(std::move(params)), opts_(opts) {
  NEUTRAJ_DCHECK_MSG(opts_.learning_rate > 0.0 && opts_.beta1 >= 0.0 &&
                         opts_.beta1 < 1.0 && opts_.beta2 >= 0.0 &&
                         opts_.beta2 < 1.0 && opts_.epsilon > 0.0,
                     "Adam: hyperparameters out of range");
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Param* p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

double Adam::Step() {
  double norm = GradNorm(params_);
  NEUTRAJ_DCHECK_FINITE(norm);
  if (opts_.clip_norm > 0.0) {
    ClipGradNorm(params_, opts_.clip_norm);
  }
  ++step_;
  const double bc1 = 1.0 - std::pow(opts_.beta1, static_cast<double>(step_));
  const double bc2 = 1.0 - std::pow(opts_.beta2, static_cast<double>(step_));
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& value = params_[i]->value.values();
    const auto& grad = params_[i]->grad.values();
    auto& m = m_[i].values();
    auto& v = v_[i].values();
    for (size_t k = 0; k < value.size(); ++k) {
      const double g = grad[k];
      m[k] = opts_.beta1 * m[k] + (1.0 - opts_.beta1) * g;
      v[k] = opts_.beta2 * v[k] + (1.0 - opts_.beta2) * g * g;
      const double mhat = m[k] / bc1;
      const double vhat = v[k] / bc2;
      value[k] -= opts_.learning_rate * mhat / (std::sqrt(vhat) + opts_.epsilon);
    }
    NEUTRAJ_DCHECK_FINITE(value);
  }
  return norm;
}

std::string Adam::SerializeState() const {
  std::ostringstream out;
  out.precision(17);
  out << "ADAM " << step_ << ' ' << m_.size() << '\n';
  for (size_t i = 0; i < m_.size(); ++i) {
    out << m_[i].size() << '\n';
    const auto& m = m_[i].values();
    const auto& v = v_[i].values();
    for (size_t k = 0; k < m.size(); ++k) out << (k > 0 ? " " : "") << m[k];
    out << '\n';
    for (size_t k = 0; k < v.size(); ++k) out << (k > 0 ? " " : "") << v[k];
    out << '\n';
  }
  return out.str();
}

void Adam::DeserializeState(const std::string& text) {
  std::istringstream in(text);
  std::string tag;
  int64_t step = 0;
  size_t n = 0;
  if (!(in >> tag >> step >> n) || tag != "ADAM") {
    throw std::runtime_error("Adam::DeserializeState: bad header");
  }
  if (n != m_.size()) {
    throw std::runtime_error("Adam::DeserializeState: parameter count mismatch");
  }
  std::vector<Matrix> m = m_;
  std::vector<Matrix> v = v_;
  for (size_t i = 0; i < n; ++i) {
    size_t size = 0;
    if (!(in >> size) || size != m[i].size()) {
      throw std::runtime_error("Adam::DeserializeState: moment shape mismatch");
    }
    for (double& x : m[i].values()) {
      if (!(in >> x)) {
        throw std::runtime_error("Adam::DeserializeState: truncated first moments");
      }
    }
    for (double& x : v[i].values()) {
      if (!(in >> x)) {
        throw std::runtime_error(
            "Adam::DeserializeState: truncated second moments");
      }
    }
  }
  step_ = step;
  m_ = std::move(m);
  v_ = std::move(v);
}

}  // namespace neutraj::nn
