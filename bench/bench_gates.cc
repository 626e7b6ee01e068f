// Gate harness: the performance claims this repository defends, measured in
// one process and checked against fixed bounds. Writes BENCH_gates.json into
// the current directory — a header naming the cores, build type and int8
// kernel, every section's numbers, then the gate table — and exits non-zero
// when any gate fails.
//
// Sections, in run order:
//   1. kernels         the portable and AVX2 forms of every dispatched nn
//                      kernel (common/simd_dispatch.h) on the SAM-LSTM
//                      step's shapes at d = 32, and encode us/point at
//                      d = 32 (a one-epoch trained and a random-init model)
//                      under each. Gate: 0 outputs that differ in any bit
//                      between the two forms. Timing only on a CPU without
//                      AVX2.
//   2. training        a 3-epoch training run and a corpus encode at 1, 2, 4
//                      and 8 threads. Gate: the first epoch's loss is
//                      identical at every thread count.
//   3. encode_span     the nn/encode obs::Span with tracing off (Traced()
//                      hands it no histogram: one relaxed load) against
//                      coarse tracing (two clock reads, a histogram record
//                      and a flight-recorder push per encode). Gate: <= 2%.
//   4. batcher_trace   blocking MicroBatcher encodes with no RequestTrace
//                      against a live trace on every request, the ceiling
//                      the 1-in-N sampler divides by N. Gate: <= 2%.
//   5. serving         a loopback server, unbatched (max_batch 1, one client
//                      sending single Encodes) against batched (max_batch 64,
//                      8 clients sending pipelined EncodeMany bursts). The
//                      trajectories are short, so the per-request transport
//                      and dispatch cost that batching amortizes shows next
//                      to the encode. Gate: batched >= 2x unbatched.
//   6. durable_insert  the ack tax: the same embeddings appended to a plain
//                      EmbeddingDatabase and through DurableStore (WAL append
//                      and fsync before the ack), encode excluded. Timing
//                      only.
//   7. retrieval       a seeded, clustered 1M x 8 corpus queried through the
//                      exact scan (every row scored) and through IVF: a
//                      centroid probe, then the exact scan's int8 bound over
//                      the probed lists. Gates: IVF >= 10x the exact scan's
//                      qps, at recall@10 >= 0.95.
//   8. tracing         two batched servers share the host and swap tracing
//                      options every 50 ms (see AlternatingRatio). Gates,
//                      each the median of 9 five-second runs: tracing off
//                      <= 1% against off (an A/A run: the method's noise
//                      floor), 1-in-64 sampling <= 2% against off; and
//                      replies serialize to identical bytes with a sampled
//                      trace context attached and without.
//   9. bounded_scan    the exact TopK scan over perfbench search's corpus
//                      (100k Porto-like trajectories, d = 32): every row
//                      scored (a database filled by Insert, no int8 index)
//                      against the bounded scan (the same rows through
//                      Deserialize), for the random-init model search serves
//                      and for a one-epoch trained one. Reports us/query on
//                      one core, q/s from 4 concurrent callers, the rows
//                      given their exact distance (p50/p90/max) and the
//                      prune rate and the index build time at 1 and 4
//                      threads; then the bounded scan over section 7's
//                      1M x 8 rows against its IVF.
//                      Gates: bounded >= 2x every-row on one core (random-
//                      init model), and 0 replies that differ in ids or
//                      distance bits from EmbeddingTopK, inline or with
//                      helpers, for both models.
//
// Sections 3 and 4 time 300 pairs of ~10 ms slices, the two sides
// alternating x,y,y,x, and gate the median per-pair ratio. On a shared
// 4-vCPU host with tracing off on both sides, the best of 20 whole-corpus
// passes per side read -7.6..+3.3% apart, and the paired median
// -0.14..+0.10%. Throughputs (sections 5 and 7) are the fastest of several
// passes after a warm-up pass.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/file_util.h"
#include "neutraj.h"

namespace {

using namespace neutraj;

// ---------------------------------------------------------------------------
// The harness: one quantile, one best-of loop, one gate table, one writer.

/// The element of 0-based rank floor(q * n) of a non-empty `v`: the minimum
/// at q = 0, the maximum at 1, the upper median at 0.5.
double Quantile(std::vector<double> v, double q) {
  const size_t i = std::min(
      v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + i, v.end());
  return v[i];
}

/// One timed pass: its wall time and, when it times items one by one, each
/// item's latency in microseconds.
struct Pass {
  double seconds = 0.0;
  std::vector<double> micros;
};

/// Runs `run_pass` once to warm up (connections, allocator, branch history),
/// then `repeats` times, and returns the fastest pass: short runs on a shared
/// host are scheduler-noisy, and the minimum strips that noise from a
/// throughput figure.
template <typename RunPass>
Pass BestOf(size_t repeats, RunPass run_pass) {
  run_pass();
  Pass best = run_pass();
  for (size_t rep = 1; rep < repeats; ++rep) {
    Pass pass = run_pass();
    if (pass.seconds < best.seconds) best = std::move(pass);
  }
  return best;
}

/// One row of the gate table.
struct Gate {
  const char* name;
  double value;
  const char* op;  ///< How value must compare with bound: "<=" or ">=".
  double bound;
  bool pass;
};

Gate AtMost(const char* name, double value, double bound) {
  return {name, value, "<=", bound, value <= bound};
}

Gate AtLeast(const char* name, double value, double bound) {
  return {name, value, ">=", bound, value >= bound};
}

/// One JSON value, rendered. Numbers are shortest round-trip decimals, and
/// non-finite ones are null (JSON has no NaN or Inf), as obs::JsonlSink
/// writes them.
struct JsonValue {
  JsonValue(double v) {
    char buf[32];
    text = std::isfinite(v)
               ? std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr)
               : "null";
  }
  JsonValue(std::integral auto v) : text(std::to_string(v)) {}
  JsonValue(bool v) : text(v ? "true" : "false") {}
  JsonValue(const std::string& v) : text('"' + obs::JsonEscape(v) + '"') {}
  JsonValue(const char* v) : JsonValue(std::string(v)) {}
  std::string text;
};

using JsonFields = std::initializer_list<std::pair<const char*, JsonValue>>;

/// A JSON document written in order and streamed to stdout one top-level
/// block at a time, as each closes, so a long run shows its progress and
/// stdout ends up holding the whole document. Arrays, the root and the
/// objects directly inside it put one item per line; deeper objects stay on
/// one line.
class JsonWriter {
 public:
  /// Opens an object ('{') or array ('['): the value of `key` inside an
  /// object, or the next element of an array when `key` is null.
  void Open(const char* key, char bracket) {
    Item(key);
    out_ += bracket;
    levels_.push_back({bracket == '{' ? '}' : ']',
                       bracket == '[' || levels_.size() < 2, true});
  }
  void Close() {
    const Level level = levels_.back();
    levels_.pop_back();
    if (!level.empty && level.one_per_line) NewLine();
    out_ += level.close;
    if (levels_.empty()) out_ += '\n';
    if (levels_.size() <= 1) {
      std::fputs(out_.c_str() + echoed_, stdout);
      std::fflush(stdout);
      echoed_ = out_.size();
    }
  }
  /// Adds fields to the open object.
  void Add(JsonFields fields) {
    for (const auto& [key, value] : fields) {
      Item(key);
      out_ += value.text;
    }
  }
  /// Writes one object, as Open(key, '{'), Add(fields), Close() would.
  void Object(const char* key, JsonFields fields) {
    Open(key, '{');
    Add(fields);
    Close();
  }

  /// Closes the root and returns the document.
  std::string Finish() {
    Close();
    return out_;
  }

 private:
  struct Level {
    char close;
    bool one_per_line;
    bool empty;
  };

  void NewLine() {
    out_ += '\n';
    out_.append(2 * levels_.size(), ' ');
  }
  void Item(const char* key) {
    Level& level = levels_.back();
    if (!level.empty) out_ += level.one_per_line ? "," : ", ";
    level.empty = false;
    if (level.one_per_line) NewLine();
    if (key != nullptr) out_ += '"' + obs::JsonEscape(key) + "\": ";
  }

  std::string out_{'{'};
  size_t echoed_ = 0;
  std::vector<Level> levels_{{'}', true, true}};
};

// ---------------------------------------------------------------------------
// Sections 1-4: kernels, training and encode-path tracing.

/// A seeded Porto-like corpus, the exact Fréchet distances of its first
/// trajectories (the seeds) and a 100 m grid over it: what a Trainer needs.
struct TrainingSetup {
  TrajectoryDataset data;
  std::vector<Trajectory> seeds;
  DistanceMatrix dists;
  Grid grid;
};

TrainingSetup MakeTrainingSetup(size_t num_trajs, uint64_t gen_seed,
                                size_t num_seeds) {
  GeneratorConfig gen = PortoLikeConfig(0.1);
  gen.num_trajectories = num_trajs;
  gen.seed = gen_seed;
  TrajectoryDataset data = GeneratePortoLike(gen);
  data.RecomputeRegion();
  std::vector<Trajectory> seeds(
      data.trajectories.begin(),
      data.trajectories.begin() +
          std::min<size_t>(num_seeds, data.trajectories.size()));
  DistanceMatrix dists = ComputePairwiseDistances(seeds, Measure::kFrechet);
  const Grid grid(data.region.Inflated(10.0), 100.0);
  return {std::move(data), std::move(seeds), std::move(dists), grid};
}

/// A d=32 model trained for one epoch on `setup`.
NeuTrajModel OneEpochModel(const TrainingSetup& setup) {
  NeuTrajConfig cfg = NeuTrajConfig::NeuTraj();
  cfg.embedding_dim = 32;
  cfg.epochs = 1;
  Trainer trainer(cfg, setup.grid, setup.seeds, setup.dists);
  trainer.Train();
  return trainer.TakeModel();
}

nn::Vector RandomVector(size_t n, Rng* rng) {
  nn::Vector v(n);
  for (double& x : v) x = rng->Gaussian(0, 1);
  return v;
}

/// True when the two vectors hold the same bits.
bool SameBits(const nn::Vector& a, const nn::Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The kernel forms section 1 times: portable, then AVX2 where it runs.
std::vector<SimdKernel> KernelForms() {
  std::vector<SimdKernel> forms = {SimdKernel::kPortable};
  if (Avx2Available()) forms.push_back(SimdKernel::kAvx2);
  return forms;
}

/// Times `reps` calls of `run` under each kernel form, after one warm-up
/// call, and counts a mismatch when `out`, as the warm-up call of each form
/// leaves it, differs in any bit between the forms. `run` starts from the
/// same inputs every call.
template <typename Run>
void TimeKernel(JsonWriter& json, const char* name, size_t rows, size_t cols,
                size_t reps, Run run, const nn::Vector& out,
                size_t* mismatches) {
  std::vector<double> ns;
  std::vector<nn::Vector> outs;
  for (const SimdKernel form : KernelForms()) {
    SetSimdKernel(form);
    run();
    outs.push_back(out);
    Stopwatch sw;
    for (size_t i = 0; i < reps; ++i) run();
    ns.push_back(sw.ElapsedSeconds() / static_cast<double>(reps) * 1e9);
  }
  SetSimdKernel(SimdKernel::kAuto);
  if (outs.size() > 1 && !SameBits(outs[0], outs[1])) ++*mismatches;
  const double avx2_ns = ns.size() > 1 ? ns[1] : NAN;
  json.Object(nullptr, {{"kernel", name},
                        {"rows", rows},
                        {"cols", cols},
                        {"portable_ns", ns[0]},
                        {"avx2_ns", avx2_ns},
                        {"speedup", ns[0] / avx2_ns}});
}

/// Section 1.
void BenchKernels(JsonWriter& json, std::vector<Gate>& gates) {
  constexpr size_t kDim = 32;
  constexpr size_t kWindow = 25;  ///< (2w+1)^2 at scan width 2.
  constexpr size_t kReps = 200000;
  Rng rng(1234);
  size_t mismatches = 0;
  json.Open("kernels", '[');
  // The step's MatVecs: stacked gates (recurrent and 2-wide input),
  // candidate, attention fusion and attention logits; MatTVec: the
  // attention mix and the backward pass's transposes. Each call restarts
  // from y0 (a copy into the same storage, timed on both sides).
  const std::pair<size_t, size_t> shapes[] = {
      {4 * kDim, kDim}, {4 * kDim, 2}, {kDim, kDim}, {kDim, 2 * kDim},
      {kWindow, kDim}};
  for (const auto& [rows, cols] : shapes) {
    nn::Matrix a(rows, cols);
    a.values() = RandomVector(rows * cols, &rng);
    const nn::Vector x = RandomVector(cols, &rng);
    const nn::Vector xt = RandomVector(rows, &rng);
    const nn::Vector y0 = RandomVector(rows, &rng);
    const nn::Vector yt0 = RandomVector(cols, &rng);
    nn::Vector y = y0, yt = yt0;
    TimeKernel(
        json, "MatVecAccum", rows, cols, kReps,
        [&] {
          y = y0;
          nn::MatVecAccum(a, x, &y);
        },
        y, &mismatches);
    TimeKernel(
        json, "MatTVecAccum", rows, cols, kReps,
        [&] {
          yt = yt0;
          nn::MatTVecAccum(a, xt, &yt);
        },
        yt, &mismatches);
  }
  // The step's activations: 4d sigmoids, d tanh, a window's softmax.
  const nn::Vector gates_in = RandomVector(4 * kDim, &rng);
  const nn::Vector logits = RandomVector(kWindow, &rng);
  nn::Vector out(4 * kDim), soft = logits;
  TimeKernel(
      json, "ExpInto", 4 * kDim, 1, kReps,
      [&] { nn::ExpInto(gates_in.data(), gates_in.size(), out.data()); }, out,
      &mismatches);
  TimeKernel(
      json, "SigmoidInto", 4 * kDim, 1, kReps,
      [&] { nn::SigmoidInto(gates_in.data(), gates_in.size(), out.data()); },
      out, &mismatches);
  TimeKernel(
      json, "TanhInto", kDim, 1, kReps,
      [&] { nn::TanhInto(gates_in.data(), kDim, out.data()); }, out,
      &mismatches);
  TimeKernel(
      json, "SoftmaxInPlace", kWindow, 1, kReps,
      [&] {
        soft = logits;
        nn::SoftmaxInPlace(&soft);
      },
      soft, &mismatches);
  json.Close();

  // Encode us/point at d = 32, one thread, under each form.
  const TrainingSetup setup = MakeTrainingSetup(600, 4242, 60);
  const NeuTrajModel trained = OneEpochModel(setup);
  NeuTrajConfig cfg = NeuTrajConfig::NeuTraj();
  cfg.embedding_dim = kDim;
  NeuTrajModel random_init(cfg, setup.grid);
  random_init.InitializeWeights(&rng);
  const std::vector<Trajectory>& trajs = setup.data.trajectories;
  size_t points = 0;
  for (const Trajectory& t : trajs) points += t.size();
  json.Open("encode", '[');
  const std::pair<const char*, const NeuTrajModel*> models[] = {
      {"trained", &trained}, {"random_init", &random_init}};
  for (const auto& [name, model] : models) {
    std::vector<double> us;
    std::vector<std::vector<nn::Vector>> embeddings;
    for (const SimdKernel form : KernelForms()) {
      SetSimdKernel(form);
      embeddings.push_back(model->EmbedAll(trajs));
      const Pass best = BestOf(3, [&] {
        Pass pass;
        Stopwatch sw;
        model->EmbedAll(trajs);
        pass.seconds = sw.ElapsedSeconds();
        return pass;
      });
      us.push_back(best.seconds / static_cast<double>(points) * 1e6);
    }
    SetSimdKernel(SimdKernel::kAuto);
    for (size_t i = 0; embeddings.size() > 1 && i < trajs.size(); ++i) {
      if (!SameBits(embeddings[0][i], embeddings[1][i])) ++mismatches;
    }
    const double avx2_us = us.size() > 1 ? us[1] : NAN;
    json.Object(nullptr, {{"model", name},
                          {"dim", kDim},
                          {"trajectories", trajs.size()},
                          {"points", points},
                          {"portable_us_per_point", us[0]},
                          {"avx2_us_per_point", avx2_us},
                          {"speedup", us[0] / avx2_us}});
  }
  json.Close();
  gates.push_back(AtMost("kernel_form_mismatches",
                         static_cast<double>(mismatches), 0.0));
}

/// Section 2. Gates the largest distance of a first-epoch loss from the
/// serial run's, which determinism holds at 0.
void BenchTraining(JsonWriter& json, std::vector<Gate>& gates) {
  const TrainingSetup setup = MakeTrainingSetup(600, 4242, 60);
  NeuTrajConfig cfg = NeuTrajConfig::NeuTraj();
  cfg.embedding_dim = 32;
  cfg.epochs = 3;
  cfg.batch_size = 20;
  cfg.sampling_num = 8;

  double serial_epoch_s = 0.0, serial_encode_s = 0.0, serial_loss = 0.0;
  double loss_spread = 0.0;
  json.Open("training", '[');
  for (const size_t threads : {1ul, 2ul, 4ul, 8ul}) {
    cfg.threads = threads;
    Trainer trainer(cfg, setup.grid, setup.seeds, setup.dists);
    Stopwatch sw;
    const TrainResult result = trainer.Train();
    const double epoch_s = sw.ElapsedSeconds() / static_cast<double>(cfg.epochs);
    const NeuTrajModel model = trainer.TakeModel();
    sw.Restart();
    EmbeddingDatabase::Build(model, setup.data.trajectories, threads);
    const double encode_s = sw.ElapsedSeconds();
    const double loss = result.epochs.front().mean_loss;
    if (threads == 1) {
      serial_epoch_s = epoch_s;
      serial_encode_s = encode_s;
      serial_loss = loss;
    }
    loss_spread = std::max(loss_spread, std::abs(loss - serial_loss));
    json.Object(nullptr,
                {{"threads", threads},
                 {"epoch_seconds", epoch_s},
                 {"epoch_speedup_vs_serial", serial_epoch_s / epoch_s},
                 {"encode_seconds", encode_s},
                 {"encode_speedup_vs_serial", serial_encode_s / encode_s},
                 {"first_epoch_loss", loss}});
  }
  json.Close();
  gates.push_back(AtMost("first_epoch_loss_spread", loss_spread, 0.0));
}

/// Trajectories per timed slice: ~10 ms of encoding, short enough that a
/// slow spell of a shared host spoils a few slices rather than a whole side.
constexpr size_t kSliceTrajs = 40;

/// Times 300 pairs of slices, `time_slice(probe, first)` seconds each, the
/// two sides alternating in x,y,y,x order. Writes both sides' summed seconds
/// as `base_key` and `probe_key` and returns the median per-pair ratio
/// probe / base minus 1, the overhead the gates read.
template <typename TimeSlice>
double PairedOverhead(JsonWriter& json, const char* base_key,
                      const char* probe_key, size_t num_trajs,
                      TimeSlice time_slice) {
  constexpr size_t kPairs = 300;
  const size_t slices = std::max<size_t>(1, num_trajs / kSliceTrajs);
  std::vector<double> ratios;
  ratios.reserve(kPairs);
  double base_s = 0.0, probe_s = 0.0;
  for (size_t r = 0; r < kPairs; ++r) {
    const size_t first = (r % slices) * kSliceTrajs;
    double base = 0.0, probe = 0.0;
    for (const bool is_probe : {r % 2 == 1, r % 2 == 0}) {
      (is_probe ? probe : base) = time_slice(is_probe, first);
    }
    base_s += base;
    probe_s += probe;
    ratios.push_back(probe / base);
  }
  const double overhead = Quantile(ratios, 0.5) - 1.0;
  json.Add({{base_key, base_s}, {probe_key, probe_s}, {"overhead", overhead}});
  return overhead;
}

/// Section 3: the nn/encode obs::Span on the serial encode path.
void BenchEncodeSpan(JsonWriter& json, std::vector<Gate>& gates) {
  const TrainingSetup setup = MakeTrainingSetup(400, 777, 40);
  const NeuTrajModel model = OneEpochModel(setup);
  const std::vector<Trajectory>& trajs = setup.data.trajectories;
  nn::CellWorkspace ws;
  double sink = 0.0;  // Read below, so the encodes cannot be optimized out.
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
  json.Open("encode_span", '{');
  gates.push_back(AtMost("encode_span_overhead",
                         PairedOverhead(json, "trace_off_seconds",
                                        "trace_coarse_seconds", trajs.size(),
                                        time_slice),
                         0.02));
  json.Close();
  obs::SetTraceLevel(obs::TraceLevel::kOff);
  if (!std::isfinite(sink)) throw std::runtime_error("non-finite embedding");
}

/// Section 4: span-tree recording on the micro-batcher encode path, every
/// request traced.
void BenchBatcherTrace(JsonWriter& json, std::vector<Gate>& gates) {
  const TrainingSetup setup = MakeTrainingSetup(400, 778, 40);
  const NeuTrajModel model = OneEpochModel(setup);
  serve::MicroBatcher::Options opts;
  opts.threads = 2;
  opts.max_batch = 1;
  serve::MicroBatcher batcher(model, opts);

  const std::vector<Trajectory>& trajs = setup.data.trajectories;
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

  for (const Trajectory& traj : trajs) batcher.Encode(traj, nullptr);
  json.Open("batcher_trace", '{');
  gates.push_back(AtMost("batcher_trace_overhead",
                         PairedOverhead(json, "untraced_seconds",
                                        "traced_seconds", trajs.size(),
                                        time_slice),
                         0.02));
  json.Close();
}

// ---------------------------------------------------------------------------
// Sections 5, 6 and 8: serving over loopback.

constexpr size_t kEmbeddingDim = 8;
constexpr size_t kMaxTrajLen = 4;
constexpr size_t kPhaseRepeats = 5;
constexpr size_t kTraceRepeats = 9;   ///< Section 8's runs per gate.
constexpr size_t kTraceSlices = 100;  ///< Slices per section-8 run.
constexpr uint64_t kTraceSliceMillis = 50;
const size_t kServerThreads =
    std::max<size_t>(1, std::thread::hardware_concurrency());
constexpr size_t kConcurrentClients = 8;
constexpr size_t kBurstSize = 64;
constexpr size_t kBurstsPerClient = 16;

/// A loopback server over its own QueryService, up for its lifetime.
class LiveServer {
 public:
  LiveServer(const NeuTrajModel& model, EmbeddingDatabase* db,
             const serve::MicroBatcher::Options& batch_opts)
      : service_(model, db, batch_opts),
        server_(&service_, serve::ServerOptions{}) {
    server_.Start();
  }

  uint16_t port() const { return server_.port(); }
  serve::QueryService& service() { return service_; }

 private:
  serve::QueryService service_;
  serve::Server server_;
};

/// One timed pass: `clients` threads, each issuing its share of requests.
/// Pipelined clients send EncodeMany bursts; sequential clients send one
/// Encode at a time.
Pass TimedPass(const std::vector<Trajectory>& corpus, uint16_t port,
               size_t clients, bool pipelined) {
  Stopwatch sw;
  std::vector<std::thread> workers;
  workers.reserve(clients);
  const size_t per_client = kBurstSize * kBurstsPerClient;
  for (size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      serve::Client client;
      client.Connect("127.0.0.1", port);
      if (pipelined) {
        std::vector<Trajectory> burst(kBurstSize);
        for (size_t b = 0; b < kBurstsPerClient; ++b) {
          for (size_t i = 0; i < kBurstSize; ++i) {
            burst[i] = corpus[(c * per_client + b * kBurstSize + i) %
                              corpus.size()];
          }
          client.EncodeMany(burst);
        }
      } else {
        for (size_t i = 0; i < per_client; ++i) {
          client.Encode(corpus[(c * per_client + i) % corpus.size()]);
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  return {sw.ElapsedSeconds(), {}};
}

/// Starts a server with `batch_opts`, drives it with `clients` threads and
/// returns the best pass's requests per second. The server-side encode
/// p50/p99 span the warm-up and every pass: a latency distribution, where a
/// best-of would make no sense.
double RunPhase(JsonWriter& json, const char* name, const NeuTrajModel& model,
                EmbeddingDatabase* db, const std::vector<Trajectory>& corpus,
                size_t clients, bool pipelined,
                const serve::MicroBatcher::Options& batch_opts) {
  LiveServer live(model, db, batch_opts);
  const Pass best = BestOf(kPhaseRepeats, [&] {
    return TimedPass(corpus, live.port(), clients, pipelined);
  });
  const serve::StatsSnapshot snap = live.service().Snapshot();
  const size_t requests = clients * kBurstSize * kBurstsPerClient;
  const double qps = static_cast<double>(requests) / best.seconds;
  double p50 = 0.0, p99 = 0.0;
  for (const serve::EndpointSnapshot& es : snap.endpoints) {
    if (es.name == "encode") {
      p50 = es.p50_micros;
      p99 = es.p99_micros;
    }
  }
  json.Object(nullptr, {{"name", name},
                        {"clients", clients},
                        {"requests", requests},
                        {"seconds", best.seconds},
                        {"qps", qps},
                        {"p50_micros", p50},
                        {"p99_micros", p99},
                        {"mean_batch", snap.mean_batch_size},
                        {"batches", snap.batches}});
  return qps;
}

/// Section 5. Gates batched qps over unbatched qps.
void BenchServing(JsonWriter& json, std::vector<Gate>& gates,
                  const NeuTrajModel& model, EmbeddingDatabase* db,
                  const std::vector<Trajectory>& corpus,
                  const serve::MicroBatcher::Options& batched) {
  serve::MicroBatcher::Options unbatched = batched;
  unbatched.max_batch = 1;
  json.Open("serving", '{');
  json.Add({{"corpus_size", corpus.size()},
            {"embedding_dim", db->dim()},
            {"server_threads", kServerThreads}});
  json.Open("phases", '[');
  const double base = RunPhase(json, "unbatched", model, db, corpus, 1,
                               /*pipelined=*/false, unbatched);
  const double fast = RunPhase(json, "batched", model, db, corpus,
                               kConcurrentClients, /*pipelined=*/true, batched);
  json.Close();
  json.Add({{"speedup", fast / base}});
  json.Close();
  gates.push_back(AtLeast("batched_speedup", fast / base, 2.0));
}

/// Section 6: the durable-ack insert tax, measured without the encode step.
/// The store lives in a fresh directory of its own, so concurrent runs on
/// one host cannot delete each other's store.
void BenchDurableInsert(JsonWriter& json, const EmbeddingDatabase& source) {
  constexpr size_t kDurableInserts = 1000;
  std::vector<nn::Vector> rows;
  rows.reserve(kDurableInserts);
  for (size_t i = 0; i < kDurableInserts; ++i) {
    rows.push_back(source.embeddings()[i % source.size()]);
  }
  const auto qps = [](const Stopwatch& sw) {
    return static_cast<double>(kDurableInserts) / sw.ElapsedSeconds();
  };

  EmbeddingDatabase plain;
  Stopwatch sw;
  for (const nn::Vector& v : rows) plain.Insert(v);
  const double plain_qps = qps(sw);

  std::string dir =
      (std::filesystem::temp_directory_path() / "neutraj_gates_XXXXXX")
          .string();
  if (::mkdtemp(dir.data()) == nullptr) {
    throw std::runtime_error("cannot create a temporary directory " + dir);
  }
  double durable_qps = 0.0;
  {
    EmbeddingDatabase db;
    store::DurableStore::Options opts;
    opts.data_dir = dir;
    store::DurableStore durable(&db, opts);
    durable.Open();
    sw.Restart();
    for (const nn::Vector& v : rows) durable.Insert(v);
    durable_qps = qps(sw);
  }
  std::filesystem::remove_all(dir);

  json.Object("durable_insert", {{"inserts", kDurableInserts},
                                 {"plain_qps", plain_qps},
                                 {"durable_qps", durable_qps},
                                 {"overhead", plain_qps / durable_qps}});
}

/// One section-8 measurement: servers x and y share the host, each fed by
/// half the pipelined clients, for `slices` slices of kTraceSliceMillis.
/// Slices swap which server runs `probe` and which runs `ref` in the order
/// x, y, y, x, x, ... — so a linear drift cancels too — while the clients
/// run. Returns the geometric mean over both servers of bursts completed
/// under `ref` over bursts under `probe`: each server is compared with
/// itself, and at every moment the host carries one server of each
/// configuration, so neither a bias of one server nor drift of the host
/// moves the ratio (back-to-back 30 ms phases read identical configurations
/// 0% and 30% apart).
double AlternatingRatio(const std::vector<Trajectory>& corpus, LiveServer* x,
                        LiveServer* y, const obs::ReqTraceOptions& probe,
                        const obs::ReqTraceOptions& ref, size_t slices) {
  LiveServer* servers[2] = {x, y};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> done[2] = {0, 0};
  std::vector<std::thread> workers;
  workers.reserve(kConcurrentClients);
  for (size_t c = 0; c < kConcurrentClients; ++c) {
    workers.emplace_back([&, c] {
      const size_t side = c % 2;
      serve::Client client;
      client.Connect("127.0.0.1", servers[side]->port());
      std::vector<Trajectory> burst(kBurstSize);
      for (size_t b = 0; !stop.load(); ++b) {
        for (size_t i = 0; i < kBurstSize; ++i) {
          burst[i] = corpus[((c + b) * kBurstSize + i) % corpus.size()];
        }
        client.EncodeMany(burst);
        done[side].fetch_add(1);
      }
    });
  }
  // bursts[side][0] under ref, bursts[side][1] under probe.
  double bursts[2][2] = {{0.0, 0.0}, {0.0, 0.0}};
  for (size_t slice = 0; slice < slices; ++slice) {
    const size_t probe_side = (slice + 1) / 2 % 2;
    servers[probe_side]->service().ConfigureTracing(probe);
    servers[1 - probe_side]->service().ConfigureTracing(ref);
    const uint64_t start[2] = {done[0].load(), done[1].load()};
    SleepForMillis(kTraceSliceMillis);
    for (size_t side = 0; side < 2; ++side) {
      bursts[side][side == probe_side ? 1 : 0] +=
          static_cast<double>(done[side].load() - start[side]);
    }
  }
  stop.store(true);
  for (std::thread& t : workers) t.join();
  return std::sqrt((bursts[0][0] / bursts[0][1]) *
                   (bursts[1][0] / bursts[1][1]));
}

/// Writes the median ratio of `ratios` minus 1, clamped at 0 (a ratio below
/// 1 is noise, not a negative cost), and the smallest and largest run's.
double WriteOverhead(JsonWriter& json, const char* key,
                     const std::vector<double>& ratios) {
  const double overhead = std::max(0.0, Quantile(ratios, 0.5) - 1.0);
  json.Object(key, {{"overhead", overhead},
                    {"min_run", Quantile(ratios, 0.0) - 1.0},
                    {"max_run", Quantile(ratios, 1.0) - 1.0}});
  return overhead;
}

/// Section 8: tracing off against tracing off, and 1-in-64 sampling against
/// tracing off, each the median of kTraceRepeats alternating measurements
/// after one warm-up; then the served-bytes identity check.
void BenchTracing(JsonWriter& json, std::vector<Gate>& gates,
                  const NeuTrajModel& model, EmbeddingDatabase* db,
                  const std::vector<Trajectory>& corpus,
                  const serve::MicroBatcher::Options& batched) {
  json.Open("tracing", '{');
  json.Add({{"runs", kTraceRepeats},
            {"slices", kTraceSlices},
            {"slice_ms", kTraceSliceMillis}});
  {
    LiveServer x(model, db, batched);
    LiveServer y(model, db, batched);
    const obs::ReqTraceOptions off;
    obs::ReqTraceOptions sampled;
    sampled.sample_every = 64;
    AlternatingRatio(corpus, &x, &y, off, off, kTraceSlices / 4);  // Warm-up.
    std::vector<double> off_ratio, sampled_ratio;
    for (size_t rep = 0; rep < kTraceRepeats; ++rep) {
      off_ratio.push_back(
          AlternatingRatio(corpus, &x, &y, off, off, kTraceSlices));
      sampled_ratio.push_back(
          AlternatingRatio(corpus, &x, &y, sampled, off, kTraceSlices));
    }
    gates.push_back(AtMost("trace_off_overhead",
                           WriteOverhead(json, "off_vs_off", off_ratio), 0.01));
    gates.push_back(AtMost(
        "trace_sampled64_overhead",
        WriteOverhead(json, "sampled64_vs_off", sampled_ratio), 0.02));
  }

  // The same query answered with a sampled trace context and with none must
  // serialize to the same reply bytes.
  LiveServer live(model, db, batched);
  obs::ReqTraceOptions every;
  every.sample_every = 1;
  live.service().ConfigureTracing(every);
  serve::Client plain;
  serve::Client traced;
  plain.Connect("127.0.0.1", live.port());
  traced.Connect("127.0.0.1", live.port());
  traced.set_trace_context({0x5eed1234, /*sampled=*/true});
  double mismatches = 0.0;
  for (size_t i = 0; i < 32; ++i) {
    const Trajectory& t = corpus[i % corpus.size()];
    if (serve::SerializeEncodeResponse({plain.Encode(t)}) !=
        serve::SerializeEncodeResponse({traced.Encode(t)})) {
      mismatches += 1.0;
    }
  }
  json.Add({{"served_bytes_mismatches", mismatches}});
  json.Close();
  gates.push_back(AtMost("served_bytes_mismatches", mismatches, 0.0));
}

// ---------------------------------------------------------------------------
// Section 7: million-scale retrieval. A clustered corpus, the regime IVF
// exists for, with queries drawn as small perturbations of corpus rows, the
// way trajectory-similarity queries sit near the embedding manifold.

constexpr size_t kRetrievalCorpus = 1000000;
constexpr size_t kRetrievalCenters = 200;
constexpr double kCenterSigma = 4.0;
constexpr double kSpreadSigma = 0.3;
constexpr uint64_t kRetrievalSeed = 97;
constexpr size_t kRetrievalQueries = 64;
constexpr size_t kRetrievalK = 10;
constexpr size_t kRetrievalRepeats = 3;

/// The best of kRetrievalRepeats passes of `query(i)` over every query;
/// writes its qps and per-query p50/p99 under `key` and returns the qps.
template <typename Query>
double MeasureQueries(JsonWriter& json, const char* key, Query query) {
  const Pass best = BestOf(kRetrievalRepeats, [&] {
    Pass pass;
    pass.micros.resize(kRetrievalQueries);
    Stopwatch total;
    for (size_t i = 0; i < kRetrievalQueries; ++i) {
      Stopwatch sw;
      query(i);
      pass.micros[i] = sw.ElapsedSeconds() * 1e6;
    }
    pass.seconds = total.ElapsedSeconds();
    return pass;
  });
  const double qps = static_cast<double>(kRetrievalQueries) / best.seconds;
  json.Object(key, {{"qps", qps},
                    {"p50_micros", Quantile(best.micros, 0.5)},
                    {"p99_micros", Quantile(best.micros, 0.99)}});
  return qps;
}

/// Section 7's corpus: kRetrievalCorpus clustered rows and
/// kRetrievalQueries queries off them. Centers well separated (sigma 4) next
/// to the in-cluster spread (sigma 0.3); queries perturbed off corpus rows.
void RetrievalCorpus(std::vector<nn::Vector>* rows,
                     std::vector<nn::Vector>* queries) {
  Rng rng(kRetrievalSeed);
  std::vector<nn::Vector> centers(kRetrievalCenters,
                                  nn::Vector(kEmbeddingDim));
  for (nn::Vector& c : centers) {
    for (double& x : c) x = rng.Gaussian(0.0, kCenterSigma);
  }
  rows->reserve(kRetrievalCorpus);
  for (size_t i = 0; i < kRetrievalCorpus; ++i) {
    nn::Vector v = centers[i % centers.size()];
    for (double& x : v) x += rng.Gaussian(0.0, kSpreadSigma);
    rows->push_back(std::move(v));
  }
  queries->assign(kRetrievalQueries, nn::Vector(kEmbeddingDim));
  for (nn::Vector& q : *queries) {
    const nn::Vector& base = (*rows)[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(kRetrievalCorpus) - 1))];
    for (size_t d = 0; d < kEmbeddingDim; ++d) {
      q[d] = base[d] + rng.Gaussian(0.0, 0.1);
    }
  }
}

/// Section 7; returns the IVF backend's qps.
double BenchRetrieval(JsonWriter& json, std::vector<Gate>& gates) {
  retrieval::IvfIndex::Options ivf_opts;
  ivf_opts.nlist = 256;
  ivf_opts.train_sample = 20000;
  ivf_opts.kmeans_iters = 6;
  ivf_opts.seed = 42;
  ivf_opts.default_nprobe = 16;

  std::vector<nn::Vector> rows, queries;
  RetrievalCorpus(&rows, &queries);

  EmbeddingDatabase exact_db;
  for (const nn::Vector& v : rows) exact_db.Insert(v);
  std::vector<nn::Vector>().swap(rows);

  // Ground truth (and recall reference): the exact scan's answers.
  std::vector<SearchResult> truth(kRetrievalQueries);
  for (size_t i = 0; i < kRetrievalQueries; ++i) {
    truth[i] = exact_db.TopK(queries[i], kRetrievalK);
  }

  json.Open("retrieval", '{');
  json.Add({{"corpus", kRetrievalCorpus},
            {"dim", kEmbeddingDim},
            {"queries", kRetrievalQueries},
            {"k", kRetrievalK},
            {"nlist", ivf_opts.nlist},
            {"nprobe", ivf_opts.default_nprobe},
            {"seed", ivf_opts.seed}});

  retrieval::ExactBackend exact(&exact_db);
  const double exact_qps = MeasureQueries(json, "exact", [&](size_t i) {
    exact.TopK(queries[i], kRetrievalK, -1, 0);
  });

  retrieval::IvfBackend ivf(&exact_db, ivf_opts);
  Stopwatch sw;
  ivf.Build(kServerThreads);
  json.Add({{"build_seconds", sw.ElapsedSeconds()}});

  size_t hits = 0;
  for (size_t i = 0; i < kRetrievalQueries; ++i) {
    const SearchResult got = ivf.TopK(queries[i], kRetrievalK, -1, 0);
    for (size_t id : got.ids) {
      if (std::find(truth[i].ids.begin(), truth[i].ids.end(), id) !=
          truth[i].ids.end()) {
        ++hits;
      }
    }
  }
  const double recall = static_cast<double>(hits) /
                        static_cast<double>(kRetrievalQueries * kRetrievalK);
  const double ivf_qps = MeasureQueries(json, "ivf", [&](size_t i) {
    ivf.TopK(queries[i], kRetrievalK, -1, 0);
  });
  const double speedup = ivf_qps / exact_qps;
  json.Add({{"recall_at_k", recall}, {"ivf_speedup", speedup}});
  json.Close();
  gates.push_back(AtLeast("ivf_speedup", speedup, 10.0));
  gates.push_back(AtLeast("ivf_recall_at_10", recall, 0.95));
  return ivf_qps;
}

// ---------------------------------------------------------------------------
// Section 9: the bounded exact scan.

constexpr size_t kSearchCorpus = 100000;  ///< perfbench search's corpus.
constexpr size_t kSearchQueries = 200;    ///< Its referenced queries.
constexpr size_t kSearchDim = 32;
constexpr uint64_t kSearchSeed = 7;
constexpr size_t kSearchK = 10;
constexpr size_t kSearchCallers = 4;
constexpr size_t kScanRepeats = 3;

/// Times `query(i)` over every query on one thread: us/query, best of
/// kScanRepeats passes.
template <typename Query>
double TimeOneCore(size_t queries, Query query) {
  const Pass one = BestOf(kScanRepeats, [&] {
    Pass pass;
    Stopwatch sw;
    for (size_t i = 0; i < queries; ++i) query(i);
    pass.seconds = sw.ElapsedSeconds();
    return pass;
  });
  return one.seconds / static_cast<double>(queries) * 1e6;
}

/// Times `query(i)` from kSearchCallers threads that each run every query:
/// q/s, best of kScanRepeats passes.
template <typename Query>
double TimeCallers(size_t queries, Query query) {
  const Pass many = BestOf(kScanRepeats, [&] {
    Pass pass;
    Stopwatch sw;
    std::vector<std::thread> callers;
    for (size_t c = 0; c < kSearchCallers; ++c) {
      callers.emplace_back([&, c] {
        for (size_t i = 0; i < queries; ++i) query((i + c) % queries);
      });
    }
    for (std::thread& t : callers) t.join();
    pass.seconds = sw.ElapsedSeconds();
    return pass;
  });
  return static_cast<double>(kSearchCallers * queries) / many.seconds;
}

/// One model's half of section 9: embeds the corpus and queries with
/// `model`, times every-row against bounded TopK, counts the rows the bound
/// lets through, and adds the replies that differ from EmbeddingTopK to
/// `*mismatches`. Returns the bounded scan's one-core speedup.
double BenchBoundedModel(JsonWriter& json, const char* key,
                         const NeuTrajModel& model,
                         const std::vector<Trajectory>& corpus,
                         const std::vector<Trajectory>& query_trajs,
                         size_t* mismatches) {
  const EmbeddingDatabase built =
      EmbeddingDatabase::Build(model, corpus, kServerThreads);
  const std::vector<nn::Vector> queries = model.EmbedAll(query_trajs);
  const std::vector<nn::Vector>& rows = built.embeddings();
  EmbeddingDatabase plain;
  for (const nn::Vector& r : rows) plain.Insert(r);
  const std::string bytes = plain.Serialize();
  Stopwatch sw;
  EmbeddingDatabase::Deserialize(bytes, "bounded_scan");
  const double load_1_ms = sw.ElapsedSeconds() * 1e3;
  obs::MetricsRegistry registry;
  sw.Restart();
  EmbeddingDatabase db =
      EmbeddingDatabase::Deserialize(bytes, "bounded_scan", kSearchCallers);
  const double load_4_ms = sw.ElapsedSeconds() * 1e3;
  db.AttachMetrics(&registry);
  const obs::Counter& scored = registry.GetCounter("db/topk_scored_rows");
  ThreadPool helpers(kServerThreads > 1 ? kServerThreads - 1 : 1);
  std::vector<double> per_query;
  for (const nn::Vector& q : queries) {
    const SearchResult want = EmbeddingTopK(rows, q, kSearchK);
    const uint64_t before = scored.Value();
    const SearchResult inline_scan = db.TopK(q, kSearchK);
    per_query.push_back(static_cast<double>(scored.Value() - before));
    const SearchResult helped = db.TopK(q, kSearchK, -1, &helpers);
    for (const SearchResult* got : {&inline_scan, &helped}) {
      if (got->ids != want.ids || got->dists != want.dists) ++*mismatches;
    }
  }
  double scored_sum = 0.0;
  for (const double n : per_query) scored_sum += n;

  const auto plain_query = [&](size_t i) { plain.TopK(queries[i], kSearchK); };
  const auto bounded_query = [&](size_t i) { db.TopK(queries[i], kSearchK); };
  const double plain_us = TimeOneCore(queries.size(), plain_query);
  const double bounded_us = TimeOneCore(queries.size(), bounded_query);
  const double plain_qps = TimeCallers(queries.size(), plain_query);
  const double bounded_qps = TimeCallers(queries.size(), bounded_query);
  const double n = static_cast<double>(rows.size());
  const double nq = static_cast<double>(queries.size());
  json.Object(key, {{"plain_us_per_query", plain_us},
                    {"bounded_us_per_query", bounded_us},
                    {"speedup_one_core", plain_us / bounded_us},
                    {"plain_qps_4_callers", plain_qps},
                    {"bounded_qps_4_callers", bounded_qps},
                    {"speedup_4_callers", bounded_qps / plain_qps},
                    {"scored_rows_p50", Quantile(per_query, 0.5)},
                    {"scored_rows_p90", Quantile(per_query, 0.9)},
                    {"scored_rows_max", Quantile(per_query, 1.0)},
                    {"prune_rate", 1.0 - scored_sum / (nq * n)},
                    {"deserialize_ms_1_thread", load_1_ms},
                    {"deserialize_ms_4_threads", load_4_ms}});
  return plain_us / bounded_us;
}

void BenchBoundedScan(JsonWriter& json, std::vector<Gate>& gates,
                      double ivf_qps) {
  // perfbench search's inputs: MakePorto(kSearchCorpus + held-out queries)
  // and a random-init d = 32 model over a 100 m grid.
  GeneratorConfig gen = PortoLikeConfig(1.0);
  gen.num_trajectories = kSearchCorpus + kSearchQueries;
  gen.seed = kSearchSeed;
  gen.road.seed = kSearchSeed ^ 0x5bd1e995ull;
  TrajectoryDataset data = GeneratePortoLike(gen);
  const std::vector<Trajectory> queries(
      data.trajectories.end() - kSearchQueries, data.trajectories.end());
  data.trajectories.resize(kSearchCorpus);
  NeuTrajConfig cfg = NeuTrajConfig::NeuTraj();
  cfg.embedding_dim = kSearchDim;
  NeuTrajModel random_init(cfg, Grid(data.region.Inflated(50.0), 100.0));
  Rng rng(kSearchSeed);
  random_init.InitializeWeights(&rng);
  const NeuTrajModel trained =
      OneEpochModel(MakeTrainingSetup(600, 4242, 60));

  size_t mismatches = 0;
  json.Open("bounded_scan", '{');
  json.Add({{"corpus", kSearchCorpus},
            {"dim", kSearchDim},
            {"queries", kSearchQueries},
            {"k", kSearchK},
            {"callers", kSearchCallers},
            {"seed", kSearchSeed}});
  const double speedup =
      BenchBoundedModel(json, "random_init", random_init, data.trajectories,
                        queries, &mismatches);
  BenchBoundedModel(json, "trained", trained, data.trajectories, queries,
                    &mismatches);

  // Section 7's 1M x 8 rows, published through Deserialize.
  std::vector<nn::Vector> rows, retrieval_queries;
  RetrievalCorpus(&rows, &retrieval_queries);
  EmbeddingDatabase flat;
  for (const nn::Vector& r : rows) flat.Insert(r);
  std::vector<nn::Vector>().swap(rows);
  const EmbeddingDatabase db = EmbeddingDatabase::Deserialize(
      flat.Serialize(), "bounded_scan", kServerThreads);
  flat = EmbeddingDatabase();
  const double bounded_qps =
      MeasureQueries(json, "retrieval_1m_bounded", [&](size_t i) {
        db.TopK(retrieval_queries[i], kRetrievalK);
      });
  json.Add({{"mismatches", mismatches},
            {"ivf_over_bounded_1m", ivf_qps / bounded_qps}});
  json.Close();
  gates.push_back(AtLeast("bounded_scan_speedup_one_core", speedup, 2.0));
  gates.push_back(AtMost("bounded_scan_mismatches",
                         static_cast<double>(mismatches), 0.0));
}

}  // namespace

int main() {
#ifdef NEUTRAJ_CHECKS
  const bool checked = true;
#else
  const bool checked = false;
#endif
  JsonWriter json;
  json.Object("header",
              {{"hardware_concurrency", std::thread::hardware_concurrency()},
               {"build_type", NEUTRAJ_BUILD_TYPE},
               {"checked", checked},
               {"int8_kernel", retrieval::QuantizedKernelName()}});

  std::vector<Gate> gates;
  BenchKernels(json, gates);
  BenchTraining(json, gates);
  BenchEncodeSpan(json, gates);
  BenchBatcherTrace(json, gates);

  // Sections 5, 6 and 8 share one model and corpus: short trajectories
  // under an untrained d=8 model.
  GeneratorConfig gen_cfg = PortoLikeConfig(0.4);
  gen_cfg.seed = 17;
  TrajectoryDataset data = GeneratePortoLike(gen_cfg);
  for (Trajectory& t : data.trajectories) t = t.Downsampled(kMaxTrajLen);
  data.RecomputeRegion();
  NeuTrajConfig cfg = NeuTrajConfig::NeuTraj();
  cfg.embedding_dim = kEmbeddingDim;
  NeuTrajModel model(cfg, Grid(data.region.Inflated(50.0), 100.0));
  Rng rng(29);
  model.InitializeWeights(&rng);
  EmbeddingDatabase db =
      EmbeddingDatabase::Build(model, data.trajectories, kServerThreads);
  serve::MicroBatcher::Options batched;
  batched.threads = kServerThreads;
  batched.max_batch = kBurstSize;

  BenchServing(json, gates, model, &db, data.trajectories, batched);
  BenchDurableInsert(json, db);
  const double ivf_qps = BenchRetrieval(json, gates);
  BenchTracing(json, gates, model, &db, data.trajectories, batched);
  BenchBoundedScan(json, gates, ivf_qps);

  bool all_pass = true;
  json.Open("gates", '[');
  for (const Gate& g : gates) {
    all_pass = all_pass && g.pass;
    json.Object(nullptr, {{"name", g.name},
                          {"value", g.value},
                          {"op", g.op},
                          {"bound", g.bound},
                          {"pass", g.pass}});
  }
  json.Close();
  json.Add({{"pass", all_pass}});
  WriteFileAtomic("BENCH_gates.json", json.Finish());
  std::fprintf(stderr, "wrote BENCH_gates.json\n");
  for (const Gate& g : gates) {
    if (!g.pass) {
      std::fprintf(stderr, "GATE FAILED: %s = %g, need %s %g\n", g.name,
                   g.value, g.op, g.bound);
    }
  }
  return all_pass ? 0 : 1;
}
