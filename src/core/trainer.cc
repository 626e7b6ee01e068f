#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "common/check.h"
#include "common/file_util.h"
#include "common/framing.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/loss.h"
#include "geo/traj_io.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace neutraj {

namespace {

constexpr char kCheckpointKind[] = "checkpoint";
constexpr char kCheckpointFile[] = "neutraj.ckpt";

/// Shannon entropy (nats) of an attention weight vector; masked rows are
/// exact zeros and contribute nothing.
double AttentionEntropy(const nn::Vector& a) {
  double h = 0.0;
  for (const double p : a) {
    if (p > 0.0) h -= p * std::log(p);
  }
  return h;
}

nn::AdamOptions MakeAdamOptions(const NeuTrajConfig& cfg) {
  nn::AdamOptions o;
  o.learning_rate = cfg.learning_rate;
  o.clip_norm = cfg.clip_norm;
  return o;
}

std::string SerializeMemory(const nn::Encoder& enc) {
  std::ostringstream out;
  out.precision(17);
  if (!enc.has_memory()) {
    out << "0\n";
    return out.str();
  }
  const auto& mem = enc.memory().values();
  out << mem.size() << '\n';
  for (size_t i = 0; i < mem.size(); ++i) {
    if (i > 0) out << ' ';
    out << mem[i];
  }
  out << '\n';
  return out.str();
}

void DeserializeMemory(const std::string& text, nn::Encoder* enc,
                       const std::string& source) {
  std::istringstream in(text);
  size_t count = 0;
  if (!(in >> count)) {
    throw std::runtime_error(source + ": bad memory section");
  }
  if (!enc->has_memory()) {
    if (count != 0) {
      throw std::runtime_error(source + ": unexpected memory block");
    }
    return;
  }
  auto& mem = enc->memory().values();
  if (count != mem.size()) {
    throw std::runtime_error(source + ": memory size mismatch");
  }
  for (double& v : mem) {
    if (!(in >> v)) {
      throw std::runtime_error(source + ": truncated memory values");
    }
  }
  enc->memory().RecomputeWrittenFlags();
}

}  // namespace

Trainer::Trainer(const NeuTrajConfig& cfg, const Grid& grid,
                 std::vector<Trajectory> seeds, const DistanceMatrix& seed_dists)
    : cfg_(cfg),
      seeds_(std::move(seeds)),
      guidance_(seed_dists, cfg),
      model_(cfg, grid),
      rng_(cfg.rng_seed),
      adam_(model_.encoder().Params(), MakeAdamOptions(cfg)) {
  cfg_.Validate();
  if (seeds_.size() < 2) {
    throw std::invalid_argument("Trainer: need at least 2 seed trajectories");
  }
  if (seed_dists.size() != seeds_.size()) {
    throw std::invalid_argument("Trainer: distance matrix size mismatch");
  }
  for (size_t i = 0; i < seeds_.size(); ++i) {
    if (seeds_[i].empty()) {
      throw std::invalid_argument(
          StrFormat("Trainer: seed trajectory %zu is empty", i));
    }
  }
  for (size_t i = 0; i < seed_dists.size(); ++i) {
    for (size_t j = i + 1; j < seed_dists.size(); ++j) {
      const double d = seed_dists.At(i, j);
      if (!std::isfinite(d) || d < 0.0) {
        throw std::invalid_argument(StrFormat(
            "Trainer: seed distance (%zu, %zu) is %g — distances must be "
            "finite and non-negative",
            i, j, d));
      }
    }
  }
  model_.InitializeWeights(&rng_);
}

Trainer::AnchorStats Trainer::ProcessAnchor(size_t anchor, Rng* rng,
                                            nn::GradBuffer* sink,
                                            nn::MemoryWriteLog* write_log,
                                            AnchorScratch* scratch) {
  NEUTRAJ_DCHECK_MSG(anchor < seeds_.size(), "ProcessAnchor: anchor id range");
  AnchorStats out;
  const AnchorSample sample = SampleAnchorPairs(
      guidance_, anchor, cfg_.sampling_num, cfg_.sampling, rng);
  out.pairs = sample.similar.size() + sample.dissimilar.size();

  // Deduplicate the trajectories involved so each is encoded once.
  std::vector<size_t>& ids = scratch->ids;
  ids.clear();
  ids.push_back(anchor);
  auto add_unique = [&ids](size_t id) {
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
  };
  for (size_t id : sample.similar) add_unique(id);
  for (size_t id : sample.dissimilar) add_unique(id);
  if (ids.size() < 2) return out;

  nn::Encoder& enc = model_.encoder();
  // Grow-only: shrinking would destroy warmed-up tape capacity.
  if (scratch->tapes.size() < ids.size()) scratch->tapes.resize(ids.size());
  if (scratch->embeds.size() < ids.size()) {
    scratch->embeds.resize(ids.size());
    scratch->grads.resize(ids.size());
  }
  std::vector<nn::EncodeTape>& tapes = scratch->tapes;
  std::vector<nn::Vector>& embeds = scratch->embeds;
  std::vector<nn::Vector>& grads = scratch->grads;
  for (size_t k = 0; k < ids.size(); ++k) {
    embeds[k] = enc.Encode(seeds_[ids[k]], /*update_memory=*/true, &tapes[k],
                           &scratch->ws, write_log);
    grads[k].assign(cfg_.embedding_dim, 0.0);
  }
  out.encodes = ids.size();
  if (metrics_sink_ != nullptr) {
    // SAM read-attention entropy off the tapes just recorded. Gated on the
    // sink: a log per attention weight per step is too hot to always pay,
    // and the aggregate is only surfaced through the JSONL record.
    for (size_t k = 0; k < ids.size(); ++k) {
      const size_t steps = tapes[k].length;
      for (size_t t = 0; t < steps; ++t) {
        const nn::AttentionTape* att = nullptr;
        if (t < tapes[k].sam_steps.size() && tapes[k].sam_steps[t].used_memory) {
          att = &tapes[k].sam_steps[t].att;
        } else if (t < tapes[k].gru_steps.size() &&
                   tapes[k].gru_steps[t].used_memory) {
          att = &tapes[k].gru_steps[t].att;
        }
        if (att == nullptr || att->all_masked) continue;
        out.entropy_sum += AttentionEntropy(att->a);
        ++out.entropy_steps;
      }
    }
  }
  // seed id -> local index; the id lists are ~2n entries, linear scan wins
  // over a hash map and allocates nothing.
  auto slot = [&ids](size_t id) {
    return static_cast<size_t>(
        std::find(ids.begin(), ids.end(), id) - ids.begin());
  };

  const nn::Vector& e_a = embeds[0];
  double total_loss = 0.0;
  auto apply_pair = [&](size_t other_id, double rank_weight, bool similar_pair) {
    const size_t k = slot(other_id);
    const double f = guidance_.At(anchor, other_id);
    const double g = EmbeddingSimilarity(e_a, embeds[k]);
    PairLoss pl;
    if (cfg_.loss == LossKind::kMse) {
      pl = MsePairLoss(g, f, rank_weight);
    } else if (similar_pair) {
      pl = SimilarPairLoss(g, f, rank_weight);
    } else {
      pl = DissimilarPairLoss(g, f, rank_weight);
    }
    total_loss += pl.loss;
    if (pl.dg != 0.0) {
      BackpropPairSimilarity(e_a, embeds[k], g, pl.dg, &grads[0], &grads[k]);
    }
  };

  if (cfg_.loss == LossKind::kMse) {
    // Siamese: every sampled pair weighted equally.
    const size_t pairs = sample.similar.size() + sample.dissimilar.size();
    const double w = pairs > 0 ? 1.0 / static_cast<double>(pairs) : 0.0;
    for (size_t id : sample.similar) apply_pair(id, w, true);
    for (size_t id : sample.dissimilar) apply_pair(id, w, false);
  } else {
    const std::vector<double> r_sim = RankingWeights(sample.similar.size());
    const std::vector<double> r_dis = RankingWeights(sample.dissimilar.size());
    for (size_t l = 0; l < sample.similar.size(); ++l) {
      apply_pair(sample.similar[l], r_sim[l], true);
    }
    for (size_t l = 0; l < sample.dissimilar.size(); ++l) {
      apply_pair(sample.dissimilar[l], r_dis[l], false);
    }
  }

  for (size_t k = 0; k < ids.size(); ++k) {
    if (nn::SquaredNorm(grads[k]) > 0.0) {
      enc.Backward(tapes[k], grads[k], sink, &scratch->ws);
    }
  }
  out.loss = total_loss;
  return out;
}

std::string Trainer::RunFingerprint() const {
  const Grid& g = model_.grid();
  std::ostringstream grid_sig;
  grid_sig.precision(17);
  grid_sig << g.region().min_x << ',' << g.region().min_y << ','
           << g.region().max_x << ',' << g.region().max_y << ','
           << g.num_cols() << 'x' << g.num_rows();
  return cfg_.Fingerprint() + "|grid=" + grid_sig.str() +
         StrFormat("|seeds=%016llx-%zu",
                   static_cast<unsigned long long>(
                       Fnv1aHash(SerializeTrajectories(seeds_))),
                   seeds_.size());
}

std::string Trainer::SerializeState() const {
  SectionWriter w(kCheckpointKind);
  w.Add("run", RunFingerprint());

  std::ostringstream progress;
  progress.precision(17);
  // Infinity does not round-trip through operator>>, so best_loss travels as
  // a (flag, value) pair; the flag is 0 until the first epoch completes.
  const bool have_best = std::isfinite(best_loss_);
  progress << next_epoch_ << ' ' << stall_ << ' '
           << adam_.options().learning_rate << ' ' << (have_best ? 1 : 0)
           << ' ' << (have_best ? best_loss_ : 0.0);
  w.Add("progress", progress.str());

  std::ostringstream hist;
  hist.precision(17);
  hist << history_.size() << '\n';
  for (const EpochStats& e : history_) {
    hist << e.epoch << ' ' << e.mean_loss << ' ' << e.seconds << '\n';
  }
  w.Add("history", hist.str());

  nn::Encoder& enc = const_cast<NeuTrajModel&>(model_).encoder();
  std::vector<const nn::Param*> params;
  for (nn::Param* p : enc.Params()) params.push_back(p);
  w.Add("params", nn::SerializeParams(params));
  w.Add("memory", SerializeMemory(enc));
  w.Add("adam", adam_.SerializeState());
  w.Add("rng", rng_.SaveState());
  return w.Finish();
}

void Trainer::RestoreState(const std::string& contents,
                           const std::string& source) {
  const SectionReader r(contents, kCheckpointKind, source);
  if (r.Get("run") != RunFingerprint()) {
    throw std::runtime_error(
        source +
        ": checkpoint belongs to a different run (config, grid or seed pool "
        "mismatch)");
  }

  // Parse everything into locals first so a malformed checkpoint cannot
  // leave the trainer half-restored.
  std::istringstream progress(r.Get("progress"));
  size_t next_epoch = 0, stall = 0;
  double lr = 0.0, best_value = 0.0;
  int have_best = 0;
  if (!(progress >> next_epoch >> stall >> lr >> have_best >> best_value) ||
      lr <= 0.0) {
    throw std::runtime_error(source + ": bad progress section");
  }

  std::istringstream hist(r.Get("history"));
  size_t n = 0;
  if (!(hist >> n) || n != next_epoch) {
    throw std::runtime_error(source + ": bad history section");
  }
  std::vector<EpochStats> history(n);
  for (EpochStats& e : history) {
    if (!(hist >> e.epoch >> e.mean_loss >> e.seconds)) {
      throw std::runtime_error(source + ": truncated history section");
    }
  }

  nn::Encoder& enc = model_.encoder();
  nn::DeserializeParams(r.Get("params"), enc.Params());
  DeserializeMemory(r.Get("memory"), &enc, source);
  adam_.DeserializeState(r.Get("adam"));
  rng_.LoadState(r.Get("rng"));

  next_epoch_ = next_epoch;
  stall_ = stall;
  best_loss_ = have_best ? best_value : std::numeric_limits<double>::infinity();
  history_ = std::move(history);
  adam_.set_learning_rate(lr);
}

void Trainer::SaveCheckpoint(const std::string& path) const {
  WriteFileAtomic(path, SerializeState());
}

void Trainer::ResumeFrom(const std::string& path) {
  RestoreState(ReadFile(path), "Trainer::ResumeFrom: " + path);
  resumed_ = true;
}

TrainResult Trainer::Train(const EpochCallback& callback) {
  TrainResult result;
  Stopwatch total;
  if (!resumed_) {
    model_.encoder().ResetMemory();
  }
  result.epochs = history_;

  const std::string checkpoint_path =
      cfg_.checkpoint_dir.empty()
          ? std::string()
          : cfg_.checkpoint_dir + "/" + kCheckpointFile;
  if (!checkpoint_path.empty()) EnsureDirectory(cfg_.checkpoint_dir);

  // The watchdog rolls back to this in-memory snapshot of the last good
  // epoch boundary (same format as the on-disk checkpoint).
  std::string last_good;
  if (cfg_.watchdog) last_good = SerializeState();

  // The watchdog must be the one to observe non-finite losses/parameters so
  // it can roll back; with it armed, checked-build finiteness contracts would
  // abort first, so they are suspended for the duration of training.
  const ScopedSuspendFiniteChecks finite_guard(cfg_.watchdog);

  std::vector<size_t> anchors(seeds_.size());

  // -- Parallel batch machinery ---------------------------------------------
  //
  // A batch is defined as: every anchor samples its pairs from a private RNG
  // stream (seeded by one master-stream draw per anchor, taken in anchor
  // order), encodes against the memory state at the batch start, accumulates
  // its gradients into a private GradBuffer and records its SAM writes into
  // a private log. After all anchors finish, gradients are reduced and
  // memory writes applied in anchor order. Every number is therefore a pure
  // function of the (checkpointed) master RNG stream and the batch start
  // state — never of thread interleaving — so 1 thread and N threads are
  // bit-for-bit identical and cfg_.threads can change across a
  // checkpoint/resume boundary.
  const size_t nthreads = std::max<size_t>(1, cfg_.threads);
  std::unique_ptr<ThreadPool> pool;
  if (nthreads > 1) pool = std::make_unique<ThreadPool>(nthreads);
  std::vector<AnchorScratch> scratches(nthreads);
  const std::vector<nn::Param*> params = model_.encoder().Params();
  std::vector<nn::GradBuffer> anchor_grads;
  anchor_grads.reserve(cfg_.batch_size);
  for (size_t k = 0; k < cfg_.batch_size; ++k) anchor_grads.emplace_back(params);
  std::vector<nn::MemoryWriteLog> anchor_writes(cfg_.batch_size);
  std::vector<AnchorStats> anchor_stats(cfg_.batch_size);
  std::vector<uint64_t> anchor_seeds(cfg_.batch_size, 0);

  // Global-registry training gauges/counters, resolved once. These mirror
  // the per-epoch EpochStats for processes that scrape the registry
  // (RenderPrometheus) instead of reading the JSONL stream.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Gauge& g_epoch = reg.GetGauge("train/epoch");
  obs::Gauge& g_loss = reg.GetGauge("train/mean_loss");
  obs::Gauge& g_grad_norm = reg.GetGauge("train/grad_norm");
  obs::Gauge& g_lr = reg.GetGauge("train/learning_rate");
  obs::Gauge& g_tps = reg.GetGauge("train/trajs_per_sec");
  obs::Counter& c_epochs = reg.GetCounter("train/epochs_completed");
  obs::Counter& c_pairs = reg.GetCounter("train/sampled_pairs");
  obs::Counter& c_encodes = reg.GetCounter("train/encoded_trajs");
  obs::Counter& c_rollbacks = reg.GetCounter("train/watchdog_rollbacks");

  size_t rollbacks = 0;          // Total watchdog trips this Train() call.
  size_t consecutive_trips = 0;  // Trips since the last clean epoch.
  while (next_epoch_ < cfg_.epochs) {
    static obs::ConcurrentHistogram& epoch_us =
        obs::TraceHistogram("trainer/epoch");
    obs::Span epoch_span("trainer/epoch", obs::Traced(epoch_us), nullptr);
    const size_t epoch = next_epoch_;
    Stopwatch sw;
    // The anchor order must be a pure function of the checkpointed RNG
    // stream: start from the identity each epoch (rather than shuffling the
    // previous epoch's order in place) so a resumed run visits anchors in
    // exactly the order the uninterrupted run would have.
    std::iota(anchors.begin(), anchors.end(), size_t{0});
    rng_.Shuffle(&anchors);
    double epoch_loss = 0.0;
    size_t processed = 0;
    uint64_t epoch_pairs = 0;
    uint64_t epoch_encodes = 0;
    double entropy_sum = 0.0;
    uint64_t entropy_steps = 0;
    double grad_norm_sum = 0.0;
    size_t opt_steps = 0;
    std::string trip;  // Non-empty once the watchdog fires.
    for (size_t start = 0; start < anchors.size() && trip.empty();
         start += cfg_.batch_size) {
      const size_t end = std::min(start + cfg_.batch_size, anchors.size());
      const size_t bs = end - start;

      // Per-anchor RNG streams, seeded from the master stream in anchor
      // order (the only master draws of the batch).
      for (size_t k = 0; k < bs; ++k) anchor_seeds[k] = rng_.engine()();
      for (size_t k = 0; k < bs; ++k) {
        anchor_grads[k].Zero();
        anchor_writes[k].clear();
      }

      auto run_range = [&](size_t lo, size_t hi, AnchorScratch* scratch) {
        for (size_t k = lo; k < hi; ++k) {
          Rng anchor_rng(anchor_seeds[k]);
          anchor_stats[k] =
              ProcessAnchor(anchors[start + k], &anchor_rng, &anchor_grads[k],
                            &anchor_writes[k], scratch);
        }
      };
      if (pool != nullptr && bs > 1) {
        const size_t workers = std::min(nthreads, bs);
        const size_t chunk = (bs + workers - 1) / workers;
        size_t widx = 0;
        for (size_t lo = 0; lo < bs; lo += chunk, ++widx) {
          const size_t hi = std::min(lo + chunk, bs);
          AnchorScratch* scratch = &scratches[widx];
          pool->Submit(
              [&run_range, lo, hi, scratch] { run_range(lo, hi, scratch); });
        }
        pool->Wait();  // Rethrows the first worker exception, if any.
      } else {
        run_range(0, bs, &scratches[0]);
      }

      // Ordered commit: watchdog checks, gradient reduction and memory
      // writes all happen in anchor order, on one thread.
      for (size_t k = 0; k < bs && trip.empty(); ++k) {
        const double loss = anchor_stats[k].loss;
        if (cfg_.watchdog && !std::isfinite(loss)) {
          trip = StrFormat("non-finite loss %g for anchor %zu", loss,
                           anchors[start + k]);
        } else if (cfg_.watchdog && cfg_.divergence_loss_threshold > 0.0 &&
                   loss > cfg_.divergence_loss_threshold) {
          trip = StrFormat("anchor %zu loss %g exceeds threshold %g",
                           anchors[start + k], loss,
                           cfg_.divergence_loss_threshold);
        }
      }
      if (!trip.empty()) break;  // Rollback discards the whole epoch anyway.
      nn::ZeroGrads(params);
      for (size_t k = 0; k < bs; ++k) {
        anchor_grads[k].AddTo(params);
        if (model_.encoder().has_memory()) {
          model_.encoder().memory().ApplyWrites(anchor_writes[k]);
        }
        epoch_loss += anchor_stats[k].loss;
        epoch_pairs += anchor_stats[k].pairs;
        epoch_encodes += anchor_stats[k].encodes;
        entropy_sum += anchor_stats[k].entropy_sum;
        entropy_steps += anchor_stats[k].entropy_steps;
        ++processed;
      }
      // Average gradients over the anchors in the batch.
      const double inv = 1.0 / static_cast<double>(bs);
      for (nn::Param* p : params) {
        for (double& g : p->grad.values()) g *= inv;
      }
      grad_norm_sum += adam_.Step();
      ++opt_steps;
      if (cfg_.watchdog && nn::HasNonFiniteValues(params)) {
        trip = "non-finite parameter after optimizer step";
      }
    }

    if (!trip.empty()) {
      DivergenceEvent ev;
      ev.epoch = epoch;
      ev.reason = trip;
      c_rollbacks.Increment();
      obs::FlightRecorder::Global().RecordEvent("trainer/watchdog_rollback",
                                               static_cast<double>(epoch));
      obs::FlightRecorder::Global().DumpToStderr("divergence watchdog rollback");
      // Roll back to the last good epoch boundary; the abandoned epoch's
      // gradients, memory writes and RNG draws are all discarded.
      RestoreState(last_good, "Trainer watchdog rollback");
      if (rollbacks >= cfg_.max_divergence_rollbacks) {
        ev.new_learning_rate = adam_.options().learning_rate;
        result.divergence_events.push_back(std::move(ev));
        result.diverged = true;
        break;
      }
      ++rollbacks;
      ++consecutive_trips;
      // The snapshot predates any decay applied since the last clean epoch,
      // so compound the decay over the consecutive trips from it.
      const double lr =
          adam_.options().learning_rate *
          std::pow(cfg_.divergence_lr_decay,
                   static_cast<double>(consecutive_trips));
      adam_.set_learning_rate(lr);
      ev.new_learning_rate = lr;
      result.divergence_events.push_back(std::move(ev));
      continue;
    }
    consecutive_trips = 0;

    EpochStats stats;
    stats.epoch = epoch;
    stats.mean_loss =
        processed > 0 ? epoch_loss / static_cast<double>(processed) : 0.0;
    stats.seconds = sw.ElapsedSeconds();
    stats.grad_norm =
        opt_steps > 0 ? grad_norm_sum / static_cast<double>(opt_steps) : 0.0;
    stats.learning_rate = adam_.options().learning_rate;
    stats.sampled_pairs = epoch_pairs;
    stats.encoded_trajs = epoch_encodes;
    stats.trajs_per_sec =
        stats.seconds > 0.0
            ? static_cast<double>(epoch_encodes) / stats.seconds
            : 0.0;
    const uint64_t requested_pairs =
        static_cast<uint64_t>(processed) * 2 * cfg_.sampling_num;
    stats.sampler_fill =
        requested_pairs > 0 ? static_cast<double>(epoch_pairs) /
                                  static_cast<double>(requested_pairs)
                            : 0.0;
    stats.sam_attention_entropy =
        entropy_steps > 0 ? entropy_sum / static_cast<double>(entropy_steps)
                          : 0.0;

    g_epoch.Set(static_cast<double>(epoch));
    g_loss.Set(stats.mean_loss);
    g_grad_norm.Set(stats.grad_norm);
    g_lr.Set(stats.learning_rate);
    g_tps.Set(stats.trajs_per_sec);
    c_epochs.Increment();
    c_pairs.Add(epoch_pairs);
    c_encodes.Add(epoch_encodes);

    if (metrics_sink_ != nullptr) {
      metrics_sink_->Write({
          {"epoch", static_cast<double>(stats.epoch)},
          {"mean_loss", stats.mean_loss},
          {"seconds", stats.seconds},
          {"grad_norm", stats.grad_norm},
          {"learning_rate", stats.learning_rate},
          {"sampled_pairs", static_cast<double>(stats.sampled_pairs)},
          {"encoded_trajs", static_cast<double>(stats.encoded_trajs)},
          {"trajs_per_sec", stats.trajs_per_sec},
          {"sampler_fill", stats.sampler_fill},
          {"sam_attention_entropy", stats.sam_attention_entropy},
      });
    }

    result.epochs.push_back(stats);
    history_.push_back(stats);
    ++next_epoch_;

    // Early-stop bookkeeping happens before the snapshot/checkpoint so a
    // resumed run replays the plateau detector bit-for-bit; the actual stop
    // is deferred below so the callback still sees the final epoch.
    bool plateau_stop = false;
    if (cfg_.early_stop_tol > 0.0) {
      if (stats.mean_loss < best_loss_ * (1.0 - cfg_.early_stop_tol)) {
        best_loss_ = stats.mean_loss;
        stall_ = 0;
      } else if (++stall_ >= cfg_.patience) {
        plateau_stop = true;
      }
    }
    best_loss_ = std::min(best_loss_, stats.mean_loss);

    if (cfg_.watchdog) last_good = SerializeState();
    if (!checkpoint_path.empty() && next_epoch_ % cfg_.checkpoint_every == 0) {
      SaveCheckpoint(checkpoint_path);
    }

    if (callback && !callback(stats, model_)) {
      result.early_stopped = true;
      break;
    }
    if (plateau_stop) {
      result.early_stopped = true;
      break;
    }
  }
  result.total_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace neutraj
