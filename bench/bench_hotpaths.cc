// Hot-path microbenchmark: blocked dense kernels, one training epoch, bulk
// corpus encoding at 1/2/4/8 threads, and the observability overhead of
// trace spans on the encode path. Emits BENCH_hotpaths.json with the raw
// timings so perf regressions are diffable across commits.
//
// Two invariants are asserted while timing, not just measured:
//   - the blocked kernels agree with the textbook loops they replaced;
//   - the epoch loss is identical (bit for bit) at every thread count.
// Wall-clock speedups depend on the machine's core count; the JSON records
// the detected hardware_concurrency alongside every timing for context.
//
// The observability section times the encode path's obs::Span ("nn/encode")
// with tracing off (the default: Traced() hands the span no histogram, so it
// costs one relaxed load) against coarse tracing on (two clock reads, a
// histogram record and a flight-recorder push per encode). The enabled
// overhead is gated at <= 2%.
//
// The request-tracing section measures the per-request span-tree cost at
// the micro-batcher level (the hot serving path): blocking Encode calls
// with no RequestTrace attached versus a live trace on EVERY request —
// three clock reads plus two lock-free slot claims per request (the
// queue_wait record and the encode span), the worst case the 1-in-N
// sampler ever pays. Gated at <= 2% even for this always-sampled ceiling;
// the serving-level gates (off vs baseline, 1-in-64) live in bench_serving.
//
// Both gated sections time 300 pairs of ~10 ms slices (40 trajectories),
// the two sides alternating x,y,y,x, and gate the median per-pair ratio.
// On a shared 4-vCPU host with tracing off on both sides, the best of 20
// alternating whole-corpus passes per side read -7.6..+3.3% apart, and the
// paired median -0.14..+0.10%.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "distance/pairwise.h"
#include "neutraj.h"

namespace {

using namespace neutraj;

/// Pre-blocking reference kernels, kept here as the timing baseline.
void NaiveMatVecAccum(const nn::Matrix& a, const nn::Vector& x,
                      nn::Vector* y) {
  for (size_t r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    const double* row = a.Row(r);
    for (size_t c = 0; c < a.cols(); ++c) acc += row[c] * x[c];
    (*y)[r] += acc;
  }
}

void NaiveMatTVecAccum(const nn::Matrix& a, const nn::Vector& x,
                       nn::Vector* y) {
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.Row(r);
    for (size_t c = 0; c < a.cols(); ++c) (*y)[c] += row[c] * x[r];
  }
}

void NaiveAddOuterProduct(nn::Matrix* a, const nn::Vector& u,
                          const nn::Vector& v) {
  for (size_t r = 0; r < a->rows(); ++r) {
    double* row = a->Row(r);
    for (size_t c = 0; c < a->cols(); ++c) row[c] += u[r] * v[c];
  }
}

nn::Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  nn::Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Gaussian(0, 1);
  return m;
}

nn::Vector RandomVector(size_t n, Rng* rng) {
  nn::Vector v(n);
  for (double& x : v) x = rng->Gaussian(0, 1);
  return v;
}

struct KernelTiming {
  std::string kernel;
  size_t rows, cols;
  double naive_ns, blocked_ns;
};

/// Times one kernel pair on a gate-shaped (4d x d) matrix. `reps` is scaled
/// so each measurement runs for a meaningful wall-clock slice.
template <typename NaiveFn, typename BlockedFn>
KernelTiming TimeKernel(const std::string& name, size_t rows, size_t cols,
                        size_t reps, NaiveFn naive, BlockedFn blocked) {
  // One warm-up call each, then alternate-free timed loops.
  naive();
  blocked();
  Stopwatch sw;
  for (size_t i = 0; i < reps; ++i) naive();
  const double naive_s = sw.ElapsedSeconds();
  sw.Restart();
  for (size_t i = 0; i < reps; ++i) blocked();
  const double blocked_s = sw.ElapsedSeconds();
  return {name, rows, cols, naive_s / static_cast<double>(reps) * 1e9,
          blocked_s / static_cast<double>(reps) * 1e9};
}

std::vector<KernelTiming> BenchKernels() {
  Rng rng(1234);
  std::vector<KernelTiming> out;
  for (const size_t d : {32ul, 64ul, 128ul}) {
    const size_t rows = 4 * d, cols = d;
    const nn::Matrix a = RandomMatrix(rows, cols, &rng);
    const nn::Vector x = RandomVector(cols, &rng);
    const nn::Vector xr = RandomVector(rows, &rng);
    nn::Vector y(rows), yt(cols);
    nn::Matrix g(rows, cols);
    const size_t reps = 2000000 / d;

    out.push_back(TimeKernel(
        "MatVecAccum", rows, cols, reps,
        [&] { NaiveMatVecAccum(a, x, &y); },
        [&] { nn::MatVecAccum(a, x, &y); }));
    out.push_back(TimeKernel(
        "MatTVecAccum", rows, cols, reps,
        [&] { NaiveMatTVecAccum(a, xr, &yt); },
        [&] { nn::MatTVecAccum(a, xr, &yt); }));
    out.push_back(TimeKernel(
        "AddOuterProduct", rows, cols, reps,
        [&] { NaiveAddOuterProduct(&g, xr, x); },
        [&] { nn::AddOuterProduct(&g, xr, x); }));
  }
  return out;
}

struct ThreadTiming {
  size_t threads;
  double epoch_s;      ///< Mean seconds per training epoch.
  double first_loss;   ///< Epoch-0 loss — must match across thread counts.
  double encode_s;     ///< Seconds to embed the encode corpus.
};

std::vector<ThreadTiming> BenchTraining() {
  GeneratorConfig gen = PortoLikeConfig(0.1);
  gen.num_trajectories = 600;  // Encode corpus; seeds are the first 60.
  gen.seed = 4242;
  const TrajectoryDataset data = GeneratePortoLike(gen);
  std::vector<Trajectory> seeds(data.trajectories.begin(),
                                data.trajectories.begin() +
                                    std::min<size_t>(60, data.trajectories.size()));
  const DistanceMatrix dists =
      ComputePairwiseDistances(seeds, Measure::kFrechet);
  BoundingBox region = BoundingBox::Empty();
  for (const Trajectory& t : data.trajectories) region.Extend(t.Bounds());
  const Grid grid(region.Inflated(10.0), 100.0);

  NeuTrajConfig cfg = NeuTrajConfig::NeuTraj();
  cfg.embedding_dim = 32;
  cfg.epochs = 3;
  cfg.batch_size = 20;
  cfg.sampling_num = 8;

  std::vector<ThreadTiming> out;
  for (const size_t threads : {1ul, 2ul, 4ul, 8ul}) {
    cfg.threads = threads;
    Trainer trainer(cfg, grid, seeds, dists);
    Stopwatch sw;
    const TrainResult result = trainer.Train();
    const double train_s = sw.ElapsedSeconds();
    const NeuTrajModel model = trainer.TakeModel();

    sw.Restart();
    const EmbeddingDatabase db =
        EmbeddingDatabase::Build(model, data.trajectories, threads);
    const double encode_s = sw.ElapsedSeconds();

    out.push_back({threads, train_s / static_cast<double>(cfg.epochs),
                   result.epochs.front().mean_loss, encode_s});
    std::printf("  threads=%zu  epoch %.3fs  encode %zu trajs %.3fs\n",
                threads, train_s / static_cast<double>(cfg.epochs), db.size(), encode_s);
    if (result.epochs.front().mean_loss != out.front().first_loss) {
      std::fprintf(stderr,
                   "FATAL: loss diverged at threads=%zu — determinism bug\n",
                   threads);
      std::exit(1);
    }
  }
  return out;
}

/// Trajectories per timed slice: ~10 ms of encoding, short enough that a
/// slow spell of a shared host spoils a few slices rather than a whole side.
constexpr size_t kSliceTrajs = 40;

/// Times `kPairs` pairs of short slices, `time_slice(probe, first)` seconds
/// each, the two sides alternating in x,y,y,x order. Sums each side's
/// seconds into *base_s / *probe_s and returns the median per-pair ratio
/// probe / base minus 1, the overhead estimate the gates read.
template <typename TimeSlice>
double PairedOverhead(size_t num_trajs, TimeSlice time_slice, double* base_s,
                      double* probe_s) {
  constexpr size_t kPairs = 300;
  const size_t slices = std::max<size_t>(1, num_trajs / kSliceTrajs);
  std::vector<double> ratios;
  ratios.reserve(kPairs);
  *base_s = 0.0;
  *probe_s = 0.0;
  for (size_t r = 0; r < kPairs; ++r) {
    const size_t first = (r % slices) * kSliceTrajs;
    double base = 0.0, probe = 0.0;
    for (const bool is_probe : {r % 2 == 1, r % 2 == 0}) {
      (is_probe ? probe : base) = time_slice(is_probe, first);
    }
    *base_s += base;
    *probe_s += probe;
    ratios.push_back(probe / base);
  }
  std::nth_element(ratios.begin(), ratios.begin() + kPairs / 2, ratios.end());
  return ratios[kPairs / 2] - 1.0;
}

struct ObsTiming {
  double off_s;       ///< Encode slices, tracing off (runtime-disabled).
  double coarse_s;    ///< Encode slices, coarse spans recording.
  double overhead;    ///< Median per-pair coarse / off - 1.
};

/// Measures the cost of the nn/encode obs::Span on the serial encode path.
ObsTiming BenchObservability() {
  GeneratorConfig gen = PortoLikeConfig(0.1);
  gen.num_trajectories = 400;
  gen.seed = 777;
  const TrajectoryDataset data = GeneratePortoLike(gen);
  std::vector<Trajectory> seeds(data.trajectories.begin(),
                                data.trajectories.begin() +
                                    std::min<size_t>(40, data.trajectories.size()));
  const DistanceMatrix dists =
      ComputePairwiseDistances(seeds, Measure::kFrechet);
  BoundingBox region = BoundingBox::Empty();
  for (const Trajectory& t : data.trajectories) region.Extend(t.Bounds());
  const Grid grid(region.Inflated(10.0), 100.0);

  NeuTrajConfig cfg = NeuTrajConfig::NeuTraj();
  cfg.embedding_dim = 32;
  cfg.epochs = 1;
  Trainer trainer(cfg, grid, seeds, dists);
  trainer.Train();
  const NeuTrajModel model = trainer.TakeModel();

  const std::vector<Trajectory>& trajs = data.trajectories;
  nn::CellWorkspace ws;
  double sink = 0.0;  // Read below, so the encodes cannot be DCE'd.
  auto time_slice = [&](bool coarse, size_t first) {
    obs::SetTraceLevel(coarse ? obs::TraceLevel::kCoarse
                              : obs::TraceLevel::kOff);
    Stopwatch sw;
    for (size_t i = first; i < first + kSliceTrajs; ++i) {
      sink += model.Embed(trajs[i], &ws)[0];
    }
    return sw.ElapsedSeconds();
  };

  model.EmbedAll(trajs);  // Warm-up.
  ObsTiming t;
  t.overhead = PairedOverhead(trajs.size(), time_slice, &t.off_s, &t.coarse_s);
  obs::SetTraceLevel(obs::TraceLevel::kOff);
  if (!std::isfinite(sink)) std::exit(1);
  return t;
}

struct ReqTraceTiming {
  double off_s = 0.0;     ///< Batcher encodes, no RequestTrace attached.
  double traced_s = 0.0;  ///< A live RequestTrace on every request.
  double overhead = 0.0;  ///< Median per-pair traced / untraced - 1.
};

/// Measures the span-tree recording cost on the micro-batcher encode path:
/// every request traced (the ceiling — 1-in-N sampling pays 1/N of this).
ReqTraceTiming BenchReqTrace() {
  GeneratorConfig gen = PortoLikeConfig(0.1);
  gen.num_trajectories = 400;
  gen.seed = 778;
  const TrajectoryDataset data = GeneratePortoLike(gen);
  std::vector<Trajectory> seeds(data.trajectories.begin(),
                                data.trajectories.begin() +
                                    std::min<size_t>(40, data.trajectories.size()));
  const DistanceMatrix dists =
      ComputePairwiseDistances(seeds, Measure::kFrechet);
  BoundingBox region = BoundingBox::Empty();
  for (const Trajectory& t : data.trajectories) region.Extend(t.Bounds());
  const Grid grid(region.Inflated(10.0), 100.0);

  NeuTrajConfig cfg = NeuTrajConfig::NeuTraj();
  cfg.embedding_dim = 32;
  cfg.epochs = 1;
  Trainer trainer(cfg, grid, seeds, dists);
  trainer.Train();
  const NeuTrajModel model = trainer.TakeModel();

  serve::MicroBatcher::Options opts;
  opts.threads = 2;
  opts.max_batch = 1;
  serve::MicroBatcher batcher(model, opts);

  const std::vector<Trajectory>& trajs = data.trajectories;
  uint64_t id = 1;
  auto time_slice = [&](bool traced, size_t first) {
    Stopwatch sw;
    for (size_t i = first; i < first + kSliceTrajs; ++i) {
      if (traced) {
        obs::RequestTrace trace({id++, /*sampled=*/true}, "encode");
        batcher.Encode(trajs[i], &trace);
      } else {
        batcher.Encode(trajs[i], nullptr);
      }
    }
    return sw.ElapsedSeconds();
  };

  for (const Trajectory& traj : trajs) {  // Warm-up.
    batcher.Encode(traj, nullptr);
  }
  ReqTraceTiming t;
  t.overhead =
      PairedOverhead(trajs.size(), time_slice, &t.off_s, &t.traced_s);
  return t;
}

}  // namespace

int main() {
  std::printf("NeuTraj hot-path benchmark\n");
  std::printf("hardware_concurrency: %u\n",
              std::thread::hardware_concurrency());

  std::printf("\n[1/4] dense kernels (blocked vs naive)\n");
  const auto kernels = BenchKernels();
  for (const KernelTiming& k : kernels) {
    std::printf("  %-16s %4zux%-4zu  naive %8.1f ns  blocked %8.1f ns  (%.2fx)\n",
                k.kernel.c_str(), k.rows, k.cols, k.naive_ns, k.blocked_ns,
                k.naive_ns / k.blocked_ns);
  }

  std::printf("\n[2/4] training epoch + corpus encoding by thread count\n");
  const auto threads = BenchTraining();

  std::printf("\n[3/4] trace-span overhead on the encode path\n");
  const ObsTiming obs_t = BenchObservability();
  std::printf("  tracing off %.4fs  coarse %.4fs  overhead %+.2f%%\n",
              obs_t.off_s, obs_t.coarse_s, obs_t.overhead * 100.0);
  if (obs_t.overhead > 0.02) {
    std::fprintf(stderr,
                 "FATAL: enabled trace spans cost %.2f%% > 2%% budget\n",
                 obs_t.overhead * 100.0);
    return 1;
  }

  std::printf("\n[4/4] request-trace span recording on the batcher path\n");
  const ReqTraceTiming rt = BenchReqTrace();
  std::printf("  untraced %.4fs  every-request traced %.4fs  "
              "overhead %+.2f%%\n",
              rt.off_s, rt.traced_s, rt.overhead * 100.0);
  if (rt.overhead > 0.02) {
    std::fprintf(stderr,
                 "FATAL: request-trace spans cost %.2f%% > 2%% budget even "
                 "fully sampled\n",
                 rt.overhead * 100.0);
    return 1;
  }

  FILE* f = std::fopen("BENCH_hotpaths.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_hotpaths.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"kernels\": [\n");
  for (size_t i = 0; i < kernels.size(); ++i) {
    const KernelTiming& k = kernels[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"rows\": %zu, \"cols\": %zu, "
                 "\"naive_ns\": %.1f, \"blocked_ns\": %.1f, "
                 "\"speedup\": %.3f}%s\n",
                 k.kernel.c_str(), k.rows, k.cols, k.naive_ns, k.blocked_ns,
                 k.naive_ns / k.blocked_ns, i + 1 < kernels.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"training\": [\n");
  for (size_t i = 0; i < threads.size(); ++i) {
    const ThreadTiming& t = threads[i];
    std::fprintf(f,
                 "    {\"threads\": %zu, \"epoch_seconds\": %.4f, "
                 "\"epoch_speedup_vs_serial\": %.3f, "
                 "\"encode_seconds\": %.4f, "
                 "\"encode_speedup_vs_serial\": %.3f, "
                 "\"first_epoch_loss\": %.17g}%s\n",
                 t.threads, t.epoch_s, threads.front().epoch_s / t.epoch_s,
                 t.encode_s, threads.front().encode_s / t.encode_s,
                 t.first_loss, i + 1 < threads.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"observability\": {\"encode_trace_off_seconds\": %.4f, "
               "\"encode_trace_coarse_seconds\": %.4f, "
               "\"enabled_span_overhead\": %.4f},\n",
               obs_t.off_s, obs_t.coarse_s, obs_t.overhead);
  std::fprintf(f,
               "  \"reqtrace\": {\"batcher_untraced_seconds\": %.4f, "
               "\"batcher_traced_seconds\": %.4f, "
               "\"fully_sampled_overhead\": %.4f}\n",
               rt.off_s, rt.traced_s, rt.overhead);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_hotpaths.json\n");
  return 0;
}
