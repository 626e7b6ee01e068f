#include "nn/lstm_cell.h"

#include "common/check.h"
#include "nn/init.h"

namespace neutraj::nn {

LstmCell::LstmCell(const std::string& name, size_t input_dim, size_t hidden_dim)
    : hidden_(hidden_dim),
      wx_(name + ".Wx", 4 * hidden_dim, input_dim),
      wh_(name + ".Wh", 4 * hidden_dim, hidden_dim),
      b_(name + ".b", 4 * hidden_dim, 1) {}

void LstmCell::Initialize(Rng* rng) {
  XavierUniform(&wx_.value, rng);
  // Orthogonal init block-wise on the recurrent weights.
  for (int block = 0; block < 4; ++block) {
    Matrix sub(hidden_, hidden_);
    OrthogonalInit(&sub, rng);
    for (size_t r = 0; r < hidden_; ++r) {
      for (size_t c = 0; c < hidden_; ++c) {
        wh_.value(block * hidden_ + r, c) = sub(r, c);
      }
    }
  }
  ZeroInit(&b_.value);
  // Forget-gate bias 1.0 so early training retains state.
  for (size_t k = 0; k < hidden_; ++k) b_.value(hidden_ + k, 0) = 1.0;
}

void LstmCell::Forward(const Vector& x, const Vector& h_prev,
                       const Vector& c_prev, LstmTape* tape, Vector* h,
                       Vector* c, CellWorkspace* ws) const {
  const size_t d = hidden_;
  NEUTRAJ_DCHECK_MSG(x.size() == input_dim(), "LstmCell::Forward input width");
  NEUTRAJ_DCHECK_MSG(h_prev.size() == d && c_prev.size() == d,
                     "LstmCell::Forward state width");
  NEUTRAJ_DCHECK_FINITE(x);
  Vector local_pre;
  Vector& pre = ws != nullptr ? ws->pre : local_pre;
  pre.resize(4 * d);
  for (size_t k = 0; k < 4 * d; ++k) pre[k] = b_.value(k, 0);
  MatVecAccum(wx_.value, x, &pre);
  MatVecAccum(wh_.value, h_prev, &pre);

  tape->x = x;
  tape->h_prev = h_prev;
  tape->c_prev = c_prev;
  tape->i.resize(d);
  tape->f.resize(d);
  tape->g.resize(d);
  tape->o.resize(d);
  SigmoidInto(pre.data(), d, tape->i.data());
  SigmoidInto(pre.data() + d, d, tape->f.data());
  TanhInto(pre.data() + 2 * d, d, tape->g.data());
  SigmoidInto(pre.data() + 3 * d, d, tape->o.data());
  tape->c.resize(d);
  for (size_t k = 0; k < d; ++k) {
    tape->c[k] = tape->f[k] * c_prev[k] + tape->i[k] * tape->g[k];
  }
  TanhInto(tape->c, &tape->tanh_c);
  h->resize(d);
  for (size_t k = 0; k < d; ++k) (*h)[k] = tape->o[k] * tape->tanh_c[k];
  *c = tape->c;
  NEUTRAJ_DCHECK_FINITE(*h);
  NEUTRAJ_DCHECK_FINITE(*c);
}

void LstmCell::Backward(const LstmTape& tape, const Vector& dh,
                        const Vector& dc_in, Vector* dh_prev_accum,
                        Vector* dc_prev_accum, Vector* dx_accum,
                        GradBuffer* sink, CellWorkspace* ws) {
  const size_t d = hidden_;
  NEUTRAJ_DCHECK_MSG(dh.size() == d && dc_in.size() == d,
                     "LstmCell::Backward gradient width");
  NEUTRAJ_DCHECK_MSG(dh_prev_accum != nullptr && dh_prev_accum->size() == d &&
                         dc_prev_accum != nullptr && dc_prev_accum->size() == d,
                     "LstmCell::Backward accumulators must be pre-sized");
  NEUTRAJ_DCHECK_MSG(dx_accum == nullptr || dx_accum->size() == input_dim(),
                     "LstmCell::Backward dx accumulator must be pre-sized");
  NEUTRAJ_DCHECK_MSG(sink == nullptr || sink->size() == Params().size(),
                     "LstmCell::Backward sink arity");
  Vector local_dc, local_dpre;
  Vector& dc = ws != nullptr ? ws->dc : local_dc;
  Vector& dpre = ws != nullptr ? ws->dpre : local_dpre;
  dc.resize(d);
  dpre.resize(4 * d);
  for (size_t k = 0; k < d; ++k) {
    dc[k] = dc_in[k] + dh[k] * tape.o[k] * (1.0 - tape.tanh_c[k] * tape.tanh_c[k]);
    const double di_post = dc[k] * tape.g[k];
    const double df_post = dc[k] * tape.c_prev[k];
    const double dg_post = dc[k] * tape.i[k];
    const double do_post = dh[k] * tape.tanh_c[k];
    dpre[k] = di_post * tape.i[k] * (1.0 - tape.i[k]);
    dpre[d + k] = df_post * tape.f[k] * (1.0 - tape.f[k]);
    dpre[2 * d + k] = dg_post * (1.0 - tape.g[k] * tape.g[k]);
    dpre[3 * d + k] = do_post * tape.o[k] * (1.0 - tape.o[k]);
    (*dc_prev_accum)[k] += dc[k] * tape.f[k];
  }
  Matrix& gwx = sink != nullptr ? sink->at(kWx) : wx_.grad;
  Matrix& gwh = sink != nullptr ? sink->at(kWh) : wh_.grad;
  Matrix& gb = sink != nullptr ? sink->at(kB) : b_.grad;
  AddOuterProduct(&gwx, dpre, tape.x);
  AddOuterProduct(&gwh, dpre, tape.h_prev);
  for (size_t k = 0; k < 4 * d; ++k) gb(k, 0) += dpre[k];
  MatTVecAccum(wh_.value, dpre, dh_prev_accum);
  if (dx_accum != nullptr) MatTVecAccum(wx_.value, dpre, dx_accum);
}

}  // namespace neutraj::nn
