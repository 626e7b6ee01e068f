#include "nn/gru_cell.h"

#include "common/check.h"
#include "nn/init.h"

namespace neutraj::nn {

SamGruCell::SamGruCell(const std::string& name, size_t input_dim,
                       size_t hidden_dim)
    : hidden_(hidden_dim),
      wg_(name + ".Wg", 3 * hidden_dim, input_dim),
      ug_(name + ".Ug", 3 * hidden_dim, hidden_dim),
      bg_(name + ".bg", 3 * hidden_dim, 1),
      wn_(name + ".Wn", hidden_dim, input_dim),
      un_(name + ".Un", hidden_dim, hidden_dim),
      bn_(name + ".bn", hidden_dim, 1),
      whis_(name + ".Whis", hidden_dim, 2 * hidden_dim),
      bhis_(name + ".bhis", hidden_dim, 1) {}

void SamGruCell::Initialize(Rng* rng) {
  XavierUniform(&wg_.value, rng);
  XavierUniform(&wn_.value, rng);
  XavierUniform(&whis_.value, rng);
  for (int block = 0; block < 3; ++block) {
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
      for (size_t c = 0; c < hidden_; ++c) un_.value(r, c) = sub(r, c);
    }
  }
  ZeroInit(&bg_.value);
  ZeroInit(&bn_.value);
  ZeroInit(&bhis_.value);
  // Spatial-gate warm start (block 2 holds s): see SamLstmCell.
  for (size_t k = 0; k < hidden_; ++k) bg_.value(2 * hidden_ + k, 0) = -2.0;
}

void SamGruCell::Forward(const Vector& x, const Vector& h_prev,
                         const std::vector<GridCell>& window_cells,
                         const GridCell& center, MemoryTensor* memory,
                         bool use_memory, bool update_memory, GruTape* tape,
                         Vector* h, CellWorkspace* ws,
                         MemoryWriteLog* write_log) const {
  const size_t d = hidden_;
  NEUTRAJ_DCHECK_MSG(x.size() == input_dim(), "SamGruCell::Forward input width");
  NEUTRAJ_DCHECK_MSG(h_prev.size() == d, "SamGruCell::Forward state width");
  NEUTRAJ_DCHECK_MSG(!use_memory || (memory != nullptr && memory->dim() == d),
                     "SamGruCell::Forward memory width must equal hidden_dim");
  NEUTRAJ_DCHECK_MSG(!use_memory || !window_cells.empty(),
                     "SamGruCell::Forward scan window must be non-empty");
  NEUTRAJ_DCHECK_FINITE(x);
  CellWorkspace local_ws_storage;
  CellWorkspace* w = ws != nullptr ? ws : &local_ws_storage;
  Vector& pre = w->pre;
  pre.resize(3 * d);
  for (size_t k = 0; k < 3 * d; ++k) pre[k] = bg_.value(k, 0);
  MatVecAccum(wg_.value, x, &pre);
  MatVecAccum(ug_.value, h_prev, &pre);

  tape->x = x;
  tape->h_prev = h_prev;
  tape->r.resize(d);
  tape->z.resize(d);
  tape->s.resize(d);
  SigmoidInto(pre.data(), d, tape->r.data());
  SigmoidInto(pre.data() + d, d, tape->z.data());
  SigmoidInto(pre.data() + 2 * d, d, tape->s.data());

  tape->rh.resize(d);
  for (size_t k = 0; k < d; ++k) tape->rh[k] = tape->r[k] * h_prev[k];
  Vector& cand_pre = w->cand_pre;
  cand_pre.resize(d);
  for (size_t k = 0; k < d; ++k) cand_pre[k] = bn_.value(k, 0);
  MatVecAccum(wn_.value, x, &cand_pre);
  MatVecAccum(un_.value, tape->rh, &cand_pre);
  TanhInto(cand_pre, &tape->n_tilde);

  tape->used_memory = use_memory;
  tape->n_prime.resize(d);
  if (use_memory) {
    std::vector<char>& mask = w->mask;
    memory->GatherWindow(window_cells, &tape->att.g, &mask);
    AttentionForwardPrefilled(&tape->att, tape->n_tilde, &mask);
    if (tape->att.all_masked) {
      tape->used_memory = false;
      tape->n_prime = tape->n_tilde;
    } else {
      Vector& ccat = w->ccat;
      ccat.resize(2 * d);
      for (size_t k = 0; k < d; ++k) {
        ccat[k] = tape->n_tilde[k];
        ccat[d + k] = tape->att.mix[k];
      }
      Vector& his_pre = w->his_pre;
      his_pre.resize(d);
      for (size_t k = 0; k < d; ++k) his_pre[k] = bhis_.value(k, 0);
      MatVecAccum(whis_.value, ccat, &his_pre);
      TanhInto(his_pre, &tape->c_his);
      for (size_t k = 0; k < d; ++k) {
        tape->n_prime[k] = tape->n_tilde[k] + tape->s[k] * tape->c_his[k];
      }
    }
  } else {
    tape->n_prime = tape->n_tilde;
  }

  h->resize(d);
  for (size_t k = 0; k < d; ++k) {
    (*h)[k] = (1.0 - tape->z[k]) * tape->n_prime[k] + tape->z[k] * h_prev[k];
  }
  NEUTRAJ_DCHECK_FINITE(*h);
  if (use_memory && update_memory) {
    if (write_log != nullptr) {
      write_log->push_back({center, tape->s, *h});
    } else {
      memory->BlendWrite(center, tape->s, *h);
    }
  }
}

void SamGruCell::Backward(const GruTape& tape, const Vector& dh,
                          Vector* dh_prev_accum, Vector* dx_accum,
                          GradBuffer* sink, CellWorkspace* ws) {
  const size_t d = hidden_;
  NEUTRAJ_DCHECK_MSG(dh.size() == d, "SamGruCell::Backward gradient width");
  NEUTRAJ_DCHECK_MSG(dh_prev_accum != nullptr && dh_prev_accum->size() == d,
                     "SamGruCell::Backward accumulator must be pre-sized");
  NEUTRAJ_DCHECK_MSG(dx_accum == nullptr || dx_accum->size() == input_dim(),
                     "SamGruCell::Backward dx accumulator must be pre-sized");
  NEUTRAJ_DCHECK_MSG(sink == nullptr || sink->size() == Params().size(),
                     "SamGruCell::Backward sink arity");
  NEUTRAJ_DCHECK_MSG(!tape.used_memory || tape.att.g.cols() == d,
                     "SamGruCell::Backward tape window width");
  CellWorkspace local_ws_storage;
  CellWorkspace* w = ws != nullptr ? ws : &local_ws_storage;
  // h = (1-z) (*) n' + z (*) h_prev.
  Vector& dn_prime = w->dc;
  Vector& dz_post = w->dz_post;
  dn_prime.resize(d);
  dz_post.resize(d);
  for (size_t k = 0; k < d; ++k) {
    dn_prime[k] = dh[k] * (1.0 - tape.z[k]);
    dz_post[k] = dh[k] * (tape.h_prev[k] - tape.n_prime[k]);
    (*dh_prev_accum)[k] += dh[k] * tape.z[k];
  }

  Vector& dn_tilde = w->dc_hat;
  Vector& ds_post = w->ds_post;
  dn_tilde.assign(d, 0.0);
  ds_post.assign(d, 0.0);
  if (tape.used_memory) {
    for (size_t k = 0; k < d; ++k) {
      dn_tilde[k] = dn_prime[k];
      ds_post[k] = dn_prime[k] * tape.c_his[k];
    }
    Vector& dz_his = w->dz;
    dz_his.resize(d);
    for (size_t k = 0; k < d; ++k) {
      dz_his[k] =
          dn_prime[k] * tape.s[k] * (1.0 - tape.c_his[k] * tape.c_his[k]);
    }
    Vector& ccat = w->ccat;
    ccat.resize(2 * d);
    for (size_t k = 0; k < d; ++k) {
      ccat[k] = tape.n_tilde[k];
      ccat[d + k] = tape.att.mix[k];
    }
    Matrix& gwhis = sink != nullptr ? sink->at(kWhis) : whis_.grad;
    Matrix& gbhis = sink != nullptr ? sink->at(kBhis) : bhis_.grad;
    AddOuterProduct(&gwhis, dz_his, ccat);
    for (size_t k = 0; k < d; ++k) gbhis(k, 0) += dz_his[k];
    Vector& dccat = w->dccat;
    dccat.assign(2 * d, 0.0);
    MatTVecAccum(whis_.value, dz_his, &dccat);
    Vector& dmix = w->dmix;
    dmix.resize(d);
    for (size_t k = 0; k < d; ++k) {
      dn_tilde[k] += dccat[k];
      dmix[k] = dccat[d + k];
    }
    AttentionBackward(tape.att, dmix, nullptr, &dn_tilde, &w->att_da,
                      &w->att_du);
  } else {
    dn_tilde = dn_prime;
  }

  // n~ = tanh(Wn x + Un (r (*) h_prev) + bn).
  Vector& dcand_pre = w->dcand_pre;
  dcand_pre.resize(d);
  for (size_t k = 0; k < d; ++k) {
    dcand_pre[k] = dn_tilde[k] * (1.0 - tape.n_tilde[k] * tape.n_tilde[k]);
  }
  Matrix& gwn = sink != nullptr ? sink->at(kWn) : wn_.grad;
  Matrix& gun = sink != nullptr ? sink->at(kUn) : un_.grad;
  Matrix& gbn = sink != nullptr ? sink->at(kBn) : bn_.grad;
  AddOuterProduct(&gwn, dcand_pre, tape.x);
  AddOuterProduct(&gun, dcand_pre, tape.rh);
  for (size_t k = 0; k < d; ++k) gbn(k, 0) += dcand_pre[k];
  Vector& drh = w->drh;
  drh.assign(d, 0.0);
  MatTVecAccum(un_.value, dcand_pre, &drh);

  Vector& dpre = w->dpre;
  dpre.resize(3 * d);
  for (size_t k = 0; k < d; ++k) {
    const double dr_post = drh[k] * tape.h_prev[k];
    (*dh_prev_accum)[k] += drh[k] * tape.r[k];
    dpre[k] = dr_post * tape.r[k] * (1.0 - tape.r[k]);
    dpre[d + k] = dz_post[k] * tape.z[k] * (1.0 - tape.z[k]);
    dpre[2 * d + k] = ds_post[k] * tape.s[k] * (1.0 - tape.s[k]);
  }
  Matrix& gwg = sink != nullptr ? sink->at(kWg) : wg_.grad;
  Matrix& gug = sink != nullptr ? sink->at(kUg) : ug_.grad;
  Matrix& gbg = sink != nullptr ? sink->at(kBg) : bg_.grad;
  AddOuterProduct(&gwg, dpre, tape.x);
  AddOuterProduct(&gug, dpre, tape.h_prev);
  for (size_t k = 0; k < 3 * d; ++k) gbg(k, 0) += dpre[k];
  MatTVecAccum(ug_.value, dpre, dh_prev_accum);
  if (dx_accum != nullptr) {
    MatTVecAccum(wg_.value, dpre, dx_accum);
    MatTVecAccum(wn_.value, dcand_pre, dx_accum);
  }
}

}  // namespace neutraj::nn
