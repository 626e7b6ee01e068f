#include "nn/sam_cell.h"

#include "common/check.h"
#include "nn/init.h"

namespace neutraj::nn {

SamLstmCell::SamLstmCell(const std::string& name, size_t input_dim,
                         size_t hidden_dim)
    : hidden_(hidden_dim),
      wg_(name + ".Wg", 4 * hidden_dim, input_dim),
      ug_(name + ".Ug", 4 * hidden_dim, hidden_dim),
      bg_(name + ".bg", 4 * hidden_dim, 1),
      wc_(name + ".Wc", hidden_dim, input_dim),
      uc_(name + ".Uc", hidden_dim, hidden_dim),
      bc_(name + ".bc", hidden_dim, 1),
      whis_(name + ".Whis", hidden_dim, 2 * hidden_dim),
      bhis_(name + ".bhis", hidden_dim, 1) {}

void SamLstmCell::Initialize(Rng* rng) {
  XavierUniform(&wg_.value, rng);
  XavierUniform(&wc_.value, rng);
  XavierUniform(&whis_.value, rng);
  for (int block = 0; block < 4; ++block) {
    Matrix sub(hidden_, hidden_);
    OrthogonalInit(&sub, rng);
    for (size_t r = 0; r < hidden_; ++r) {
      for (size_t c = 0; c < hidden_; ++c) {
        ug_.value(block * hidden_ + r, c) = sub(r, c);
      }
    }
  }
  {
    Matrix sub(hidden_, hidden_);
    OrthogonalInit(&sub, rng);
    for (size_t r = 0; r < hidden_; ++r) {
      for (size_t c = 0; c < hidden_; ++c) uc_.value(r, c) = sub(r, c);
    }
  }
  ZeroInit(&bg_.value);
  ZeroInit(&bc_.value);
  ZeroInit(&bhis_.value);
  // Forget-gate bias 1.0 (block 0 holds f in the paper's order).
  for (size_t k = 0; k < hidden_; ++k) bg_.value(k, 0) = 1.0;
  // Spatial-gate bias -2.0: the cell starts close to a plain LSTM
  // (sigma(-2) ~ 0.12 of the memory read injected) and learns where the
  // memory is actually useful. Without this, half of the early-training
  // memory noise enters every cell state and optimization degrades — the
  // same transform-gate trick as highway networks. See DESIGN.md.
  for (size_t k = 0; k < hidden_; ++k) bg_.value(2 * hidden_ + k, 0) = -2.0;
}

void SamLstmCell::Forward(const Vector& x, const Vector& h_prev,
                          const Vector& c_prev,
                          const std::vector<GridCell>& window_cells,
                          const GridCell& center, MemoryTensor* memory,
                          bool use_memory, bool update_memory, SamTape* tape,
                          Vector* h, Vector* c, CellWorkspace* ws,
                          MemoryWriteLog* write_log) const {
  const size_t d = hidden_;
  NEUTRAJ_DCHECK_MSG(x.size() == input_dim(), "SamLstmCell::Forward input width");
  NEUTRAJ_DCHECK_MSG(h_prev.size() == d && c_prev.size() == d,
                     "SamLstmCell::Forward state width");
  NEUTRAJ_DCHECK_MSG(!use_memory || (memory != nullptr && memory->dim() == d),
                     "SamLstmCell::Forward memory width must equal hidden_dim");
  NEUTRAJ_DCHECK_MSG(!use_memory || !window_cells.empty(),
                     "SamLstmCell::Forward scan window must be non-empty");
  NEUTRAJ_DCHECK_FINITE(x);
  CellWorkspace local_ws_storage;
  CellWorkspace* w = ws != nullptr ? ws : &local_ws_storage;
  // Gate pre-activations (Eq. 1).
  Vector& pre = w->pre;
  pre.resize(4 * d);
  for (size_t k = 0; k < 4 * d; ++k) pre[k] = bg_.value(k, 0);
  MatVecAccum(wg_.value, x, &pre);
  MatVecAccum(ug_.value, h_prev, &pre);

  tape->x = x;
  tape->h_prev = h_prev;
  tape->c_prev = c_prev;
  tape->f.resize(d);
  tape->i.resize(d);
  tape->s.resize(d);
  tape->o.resize(d);
  SigmoidInto(pre.data(), d, tape->f.data());
  SigmoidInto(pre.data() + d, d, tape->i.data());
  SigmoidInto(pre.data() + 2 * d, d, tape->s.data());
  SigmoidInto(pre.data() + 3 * d, d, tape->o.data());

  // Candidate (Eq. 2).
  Vector& cand_pre = w->cand_pre;
  cand_pre.resize(d);
  for (size_t k = 0; k < d; ++k) cand_pre[k] = bc_.value(k, 0);
  MatVecAccum(wc_.value, x, &cand_pre);
  MatVecAccum(uc_.value, h_prev, &cand_pre);
  TanhInto(cand_pre, &tape->c_tilde);

  // Intermediate cell state (Eq. 3).
  tape->c_hat.resize(d);
  for (size_t k = 0; k < d; ++k) {
    tape->c_hat[k] = tape->f[k] * c_prev[k] + tape->i[k] * tape->c_tilde[k];
  }

  tape->used_memory = false;
  tape->c = tape->c_hat;
  if (use_memory) {
    // Attention read (Sec. IV-C-1): G_t is gathered straight into the tape
    // snapshot. Never-written cells are masked out of the softmax; if the
    // whole window is unvisited the step degenerates to a plain LSTM step
    // (and the window is neither copied nor scored).
    std::vector<char>& mask = w->mask;
    memory->GatherWindow(window_cells, &tape->att.g, &mask);
    AttentionForwardPrefilled(&tape->att, tape->c_hat, &mask);
    if (!tape->att.all_masked) {
      tape->used_memory = true;
      Vector& ccat = w->ccat;
      ccat.resize(2 * d);
      for (size_t k = 0; k < d; ++k) {
        ccat[k] = tape->c_hat[k];
        ccat[d + k] = tape->att.mix[k];
      }
      Vector& his_pre = w->his_pre;
      his_pre.resize(d);
      for (size_t k = 0; k < d; ++k) his_pre[k] = bhis_.value(k, 0);
      MatVecAccum(whis_.value, ccat, &his_pre);
      TanhInto(his_pre, &tape->c_his);
      // Final cell state (Eq. 4).
      for (size_t k = 0; k < d; ++k) {
        tape->c[k] = tape->c_hat[k] + tape->s[k] * tape->c_his[k];
      }
    }
    // Memory write (Eq. 5) — persistent-state update, no gradient. Deferred
    // into the log when one is supplied, applied in place otherwise.
    if (update_memory) {
      if (write_log != nullptr) {
        write_log->push_back({center, tape->s, tape->c});
      } else {
        memory->BlendWrite(center, tape->s, tape->c);
      }
    }
  }

  // Output (Eq. 6).
  TanhInto(tape->c, &tape->tanh_c);
  h->resize(d);
  for (size_t k = 0; k < d; ++k) (*h)[k] = tape->o[k] * tape->tanh_c[k];
  *c = tape->c;
  NEUTRAJ_DCHECK_FINITE(*h);
  NEUTRAJ_DCHECK_FINITE(*c);
}

void SamLstmCell::Backward(const SamTape& tape, const Vector& dh,
                           const Vector& dc_in, Vector* dh_prev_accum,
                           Vector* dc_prev_accum, Vector* dx_accum,
                           GradBuffer* sink, CellWorkspace* ws) {
  const size_t d = hidden_;
  NEUTRAJ_DCHECK_MSG(dh.size() == d && dc_in.size() == d,
                     "SamLstmCell::Backward gradient width");
  NEUTRAJ_DCHECK_MSG(dh_prev_accum != nullptr && dh_prev_accum->size() == d &&
                         dc_prev_accum != nullptr && dc_prev_accum->size() == d,
                     "SamLstmCell::Backward accumulators must be pre-sized");
  NEUTRAJ_DCHECK_MSG(dx_accum == nullptr || dx_accum->size() == input_dim(),
                     "SamLstmCell::Backward dx accumulator must be pre-sized");
  NEUTRAJ_DCHECK_MSG(sink == nullptr || sink->size() == Params().size(),
                     "SamLstmCell::Backward sink arity");
  NEUTRAJ_DCHECK_MSG(!tape.used_memory || tape.att.g.cols() == d,
                     "SamLstmCell::Backward tape window width");
  CellWorkspace local_ws_storage;
  CellWorkspace* w = ws != nullptr ? ws : &local_ws_storage;
  Matrix& gwhis = sink != nullptr ? sink->at(kWhis) : whis_.grad;
  Matrix& gbhis = sink != nullptr ? sink->at(kBhis) : bhis_.grad;
  // dL/dc through h = o (*) tanh(c).
  Vector& dc = w->dc;
  dc.resize(d);
  for (size_t k = 0; k < d; ++k) {
    dc[k] = dc_in[k] + dh[k] * tape.o[k] * (1.0 - tape.tanh_c[k] * tape.tanh_c[k]);
  }

  Vector& dc_hat = w->dc_hat;
  Vector& ds_post = w->ds_post;
  dc_hat.assign(d, 0.0);
  ds_post.assign(d, 0.0);
  if (tape.used_memory) {
    // c = c_hat + s (*) c_his.
    for (size_t k = 0; k < d; ++k) {
      dc_hat[k] = dc[k];
      ds_post[k] = dc[k] * tape.c_his[k];
    }
    // c_his = tanh(Whis [c_hat, mix] + bhis).
    Vector& dz = w->dz;
    dz.resize(d);
    for (size_t k = 0; k < d; ++k) {
      dz[k] = dc[k] * tape.s[k] * (1.0 - tape.c_his[k] * tape.c_his[k]);
    }
    Vector& ccat = w->ccat;
    ccat.resize(2 * d);
    for (size_t k = 0; k < d; ++k) {
      ccat[k] = tape.c_hat[k];
      ccat[d + k] = tape.att.mix[k];
    }
    AddOuterProduct(&gwhis, dz, ccat);
    for (size_t k = 0; k < d; ++k) gbhis(k, 0) += dz[k];
    Vector& dccat = w->dccat;
    dccat.assign(2 * d, 0.0);
    MatTVecAccum(whis_.value, dz, &dccat);
    Vector& dmix = w->dmix;
    dmix.resize(d);
    for (size_t k = 0; k < d; ++k) {
      dc_hat[k] += dccat[k];
      dmix[k] = dccat[d + k];
    }
    // Attention path: adds the gradient of q = c_hat.
    AttentionBackward(tape.att, dmix, nullptr, &dc_hat, &w->att_da, &w->att_du);
  } else {
    dc_hat = dc;
  }

  // c_hat = f (*) c_prev + i (*) c_tilde.
  Vector& dpre = w->dpre;
  Vector& dcand_pre = w->dcand_pre;
  dpre.resize(4 * d);
  dcand_pre.resize(d);
  for (size_t k = 0; k < d; ++k) {
    const double df_post = dc_hat[k] * tape.c_prev[k];
    const double di_post = dc_hat[k] * tape.c_tilde[k];
    const double dctilde = dc_hat[k] * tape.i[k];
    const double do_post = dh[k] * tape.tanh_c[k];
    dpre[k] = df_post * tape.f[k] * (1.0 - tape.f[k]);
    dpre[d + k] = di_post * tape.i[k] * (1.0 - tape.i[k]);
    dpre[2 * d + k] = ds_post[k] * tape.s[k] * (1.0 - tape.s[k]);
    dpre[3 * d + k] = do_post * tape.o[k] * (1.0 - tape.o[k]);
    dcand_pre[k] = dctilde * (1.0 - tape.c_tilde[k] * tape.c_tilde[k]);
    (*dc_prev_accum)[k] += dc_hat[k] * tape.f[k];
  }

  Matrix& gwg = sink != nullptr ? sink->at(kWg) : wg_.grad;
  Matrix& gug = sink != nullptr ? sink->at(kUg) : ug_.grad;
  Matrix& gbg = sink != nullptr ? sink->at(kBg) : bg_.grad;
  Matrix& gwc = sink != nullptr ? sink->at(kWc) : wc_.grad;
  Matrix& guc = sink != nullptr ? sink->at(kUc) : uc_.grad;
  Matrix& gbc = sink != nullptr ? sink->at(kBc) : bc_.grad;
  AddOuterProduct(&gwg, dpre, tape.x);
  AddOuterProduct(&gug, dpre, tape.h_prev);
  for (size_t k = 0; k < 4 * d; ++k) gbg(k, 0) += dpre[k];
  AddOuterProduct(&gwc, dcand_pre, tape.x);
  AddOuterProduct(&guc, dcand_pre, tape.h_prev);
  for (size_t k = 0; k < d; ++k) gbc(k, 0) += dcand_pre[k];

  MatTVecAccum(ug_.value, dpre, dh_prev_accum);
  MatTVecAccum(uc_.value, dcand_pre, dh_prev_accum);
  if (dx_accum != nullptr) {
    MatTVecAccum(wg_.value, dpre, dx_accum);
    MatTVecAccum(wc_.value, dcand_pre, dx_accum);
  }
}

}  // namespace neutraj::nn
