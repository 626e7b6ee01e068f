// Serving benchmark: micro-batched encoding throughput over the wire, the
// durable-ack insert tax, and million-scale retrieval.
//
// Phases 1-2 start a real loopback server twice against the same model +
// corpus:
//   - unbatched baseline: max_batch=1, one sequential client issuing single
//     Encode requests back to back — the one-request-at-a-time cost every
//     serving stack starts from;
//   - batched: max_batch=64 and 8 concurrent clients driving the pipelined
//     EncodeMany path, so bursts coalesce into real batches.
// Trajectories are kept short so the per-request transport + dispatch
// overhead — the cost micro-batching amortizes — is visible next to the
// O(L d^2) encode compute; that ratio, not raw model speed, is what this
// benchmark tracks. Each phase also reports the server-side p50/p99 encode
// latency from the endpoint histogram snapshot.
//
// Phase 3 measures the durable-ack insert tax: the same embedding sequence
// appended to a plain in-memory EmbeddingDatabase versus through
// DurableStore (WAL append + fsync before ack). The encode step is excluded
// on purpose — it would dominate and hide the durability cost this phase
// exists to track.
//
// Phase 4 is the retrieval subsystem at the scale it was built for: a
// seeded, clustered 1M x dim-8 synthetic corpus queried through both
// retrieval backends the server can run —
//   - exact: ExactBackend, the flat EmbeddingDatabase O(N * d) scan (the
//     baseline and the ground truth for recall);
//   - ivf: IvfBackend — IVF probe over the int8 quantized tier, then exact
//     float re-rank, so scores match the exact path and only recall is
//     approximate.
// Reports qps and per-query p50/p99 per backend plus recall@10 for the ANN
// path, and records the knobs (nlist, nprobe, rerank, seed, kernel) next to
// the numbers in BENCH_serving.json.
//
// Phase 5 is the request-tracing overhead gate. Two servers in the batched
// configuration share the host, each fed by half the pipelined clients,
// for a 5 s run of 50 ms slices; each slice swaps which server runs the
// probed tracing options and which the reference ones. Each server's
// bursts under the reference over its bursts under the probe, combined
// over both servers, is free of either server's bias and of the host's
// drift, which back-to-back 30 ms phases were not (identical
// configurations read 0% and 30% apart). Each gate is the median of 9
// runs. Tracing off must cost <= 1% against tracing off (an A/A
// comparison: it bounds the sampler's fast path, one branch per request,
// at the method's noise floor) and 1-in-64 sampling <= 2% against tracing
// off.
// The phase also pins that served bytes are bit-identical with a sampled
// trace context attached versus none: the serialized replies to the same
// query must match byte for byte.
//
// Exit status is the acceptance gate: batched >= 2x unbatched, IVF+int8
// >= 10x exact-scan qps at recall@10 >= 0.95, tracing overhead within
// budget, and traced/untraced served bytes identical.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "neutraj.h"

namespace {

using namespace neutraj;

constexpr size_t kEmbeddingDim = 8;
constexpr size_t kMaxTrajLen = 4;
constexpr size_t kPhaseRepeats = 5;   ///< Best-of, after one warm-up run.
constexpr size_t kTraceRepeats = 9;   ///< Phase 5's runs per gate.
constexpr size_t kTraceSlices = 100;  ///< Slices per phase-5 run.
constexpr uint64_t kTraceSliceMillis = 50;
const size_t kServerThreads =
    std::max<size_t>(1, std::thread::hardware_concurrency());
constexpr size_t kConcurrentClients = 8;
constexpr size_t kBurstSize = 64;
constexpr size_t kBurstsPerClient = 16;

// Phase 4 (retrieval) shape: a clustered corpus — the regime IVF exists
// for — with queries drawn as small perturbations of corpus rows, the way
// trajectory-similarity queries sit near the embedding manifold.
constexpr size_t kRetrievalCorpus = 1000000;
constexpr size_t kRetrievalCenters = 200;
constexpr double kCenterSigma = 4.0;
constexpr double kSpreadSigma = 0.3;
constexpr uint64_t kRetrievalSeed = 97;
constexpr size_t kRetrievalQueries = 64;
constexpr size_t kRetrievalK = 10;
constexpr size_t kRetrievalRepeats = 3;  ///< Best-of, after one warm-up.

struct PhaseResult {
  std::string name;
  size_t clients = 0;
  size_t requests = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double mean_batch = 0.0;
  uint64_t batches = 0;
  double p50_micros = 0.0;  ///< Server-side encode endpoint latency.
  double p99_micros = 0.0;
};

/// A loopback server over its own QueryService, up for its lifetime.
class LiveServer {
 public:
  LiveServer(const NeuTrajModel& model, EmbeddingDatabase* db,
             const serve::MicroBatcher::Options& batch_opts,
             uint32_t trace_sample_every)
      : service_(model, db, batch_opts),
        server_(&service_, serve::ServerOptions{}) {
    if (trace_sample_every > 0) {
      obs::ReqTraceOptions topts;
      topts.sample_every = trace_sample_every;
      service_.ConfigureTracing(topts);
    }
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
double TimedPass(const std::vector<Trajectory>& corpus, uint16_t port,
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
  return sw.ElapsedSeconds();
}

/// Runs one serving phase: spins up a server with the given batching
/// options, hammers it with `clients` threads, and tears it down.
PhaseResult RunPhase(const std::string& name, const NeuTrajModel& model,
                     EmbeddingDatabase* db,
                     const std::vector<Trajectory>& corpus, size_t clients,
                     bool pipelined,
                     const serve::MicroBatcher::Options& batch_opts) {
  LiveServer live(model, db, batch_opts, /*trace_sample_every=*/0);
  const uint16_t port = live.port();

  const size_t total = clients * kBurstSize * kBurstsPerClient;
  // Warm-up pass (connections, allocator, branch history), then best-of-N
  // timed passes: short loopback runs are scheduler-noisy, and the minimum
  // is the usual way to strip that noise from a throughput figure.
  TimedPass(corpus, port, clients, pipelined);
  double best = TimedPass(corpus, port, clients, pipelined);
  for (size_t rep = 1; rep < kPhaseRepeats; ++rep) {
    best = std::min(best, TimedPass(corpus, port, clients, pipelined));
  }

  const serve::StatsSnapshot snap = live.service().Snapshot();

  PhaseResult r;
  r.name = name;
  r.clients = clients;
  r.requests = total;
  r.seconds = best;
  r.qps = static_cast<double>(total) / best;
  r.mean_batch = snap.mean_batch_size;
  r.batches = snap.batches;
  // The encode endpoint histogram spans warm-up + all passes — it is a
  // latency distribution, where best-of would make no sense anyway.
  for (const serve::EndpointSnapshot& es : snap.endpoints) {
    if (es.name == "encode") {
      r.p50_micros = es.p50_micros;
      r.p99_micros = es.p99_micros;
    }
  }
  std::printf("  %-10s %zu clients  %5zu reqs  %6.3fs  %8.1f qps  "
              "p50 %.0fus  p99 %.0fus  (mean batch %.2f over %llu batches)\n",
              r.name.c_str(), r.clients, r.requests, r.seconds, r.qps,
              r.p50_micros, r.p99_micros, r.mean_batch,
              static_cast<unsigned long long>(r.batches));
  return r;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One phase-5 measurement: servers x and y share the host, each fed by
/// half the pipelined clients, for `slices` slices of kTraceSliceMillis.
/// Slices swap which server runs `probe` and which runs `ref` in the order
/// x, y, y, x, x, ... — so a linear drift cancels too — while the clients
/// run (Configure is safe during traffic). Returns the geometric mean over both
/// servers of bursts completed under `ref` over bursts under `probe`: each
/// server is compared with itself, and at every moment the host carries one
/// server of each configuration, so neither a bias of one server nor drift
/// of the host moves the ratio.
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
  return std::sqrt((bursts[0][0] / bursts[0][1]) * (bursts[1][0] / bursts[1][1]));
}

struct TraceResult {
  double off_overhead = 0.0;      ///< Median ratio - 1, clamped at 0.
  double sampled_overhead = 0.0;  ///< Likewise, 1-in-64 against off.
  // Smallest and largest run's ratio - 1.
  std::array<double, 2> off_range = {0.0, 0.0};
  std::array<double, 2> sampled_range = {0.0, 0.0};
};

/// Phase 5: tracing off against tracing off (an A/A run: the method's noise
/// floor), and 1-in-64 sampling against tracing off, each the median of
/// kTraceRepeats alternating measurements after one warm-up.
TraceResult RunTracingPhase(const NeuTrajModel& model, EmbeddingDatabase* db,
                            const std::vector<Trajectory>& corpus,
                            const serve::MicroBatcher::Options& batch_opts) {
  LiveServer x(model, db, batch_opts, /*trace_sample_every=*/0);
  LiveServer y(model, db, batch_opts, /*trace_sample_every=*/0);
  const obs::ReqTraceOptions off;
  obs::ReqTraceOptions sampled;
  sampled.sample_every = 64;

  AlternatingRatio(corpus, &x, &y, off, off, kTraceSlices / 4);  // Warm-up.
  std::vector<double> off_ratio;
  std::vector<double> sampled_ratio;
  for (size_t rep = 0; rep < kTraceRepeats; ++rep) {
    off_ratio.push_back(AlternatingRatio(corpus, &x, &y, off, off, kTraceSlices));
    sampled_ratio.push_back(
        AlternatingRatio(corpus, &x, &y, sampled, off, kTraceSlices));
  }

  auto range = [](const std::vector<double>& v) {
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    return std::array<double, 2>{*lo - 1.0, *hi - 1.0};
  };
  TraceResult r;
  r.off_range = range(off_ratio);
  r.sampled_range = range(sampled_ratio);
  // A ratio below 1 is noise, not a negative cost.
  r.off_overhead = std::max(0.0, Median(off_ratio) - 1.0);
  r.sampled_overhead = std::max(0.0, Median(sampled_ratio) - 1.0);
  return r;
}

struct InsertResult {
  size_t inserts = 0;
  double plain_qps = 0.0;
  double durable_qps = 0.0;
  double overhead = 0.0;  ///< plain_qps / durable_qps (>= 1: the ack tax).
};

/// Phase 3: durable-ack insert overhead, measured without the encode step.
InsertResult RunInsertPhase(const EmbeddingDatabase& source) {
  constexpr size_t kDurableInserts = 1000;
  std::vector<nn::Vector> rows;
  rows.reserve(kDurableInserts);
  for (size_t i = 0; i < kDurableInserts; ++i) {
    rows.push_back(source.embeddings()[i % source.size()]);
  }

  InsertResult r;
  r.inserts = kDurableInserts;
  {
    EmbeddingDatabase plain;
    Stopwatch sw;
    for (const nn::Vector& v : rows) plain.Insert(v);
    r.plain_qps = static_cast<double>(kDurableInserts) / sw.ElapsedSeconds();
  }
  {
    const std::string dir =
        (std::filesystem::temp_directory_path() / "neutraj_bench_store")
            .string();
    std::filesystem::remove_all(dir);
    EmbeddingDatabase db;
    store::DurableStore::Options opts;
    opts.data_dir = dir;
    store::DurableStore durable(&db, opts);
    durable.Open();
    Stopwatch sw;
    for (const nn::Vector& v : rows) durable.Insert(v);
    r.durable_qps = static_cast<double>(kDurableInserts) / sw.ElapsedSeconds();
    std::filesystem::remove_all(dir);
  }
  r.overhead = r.plain_qps / r.durable_qps;
  std::printf("  plain    %6zu inserts  %10.1f qps\n", r.inserts, r.plain_qps);
  std::printf("  durable  %6zu inserts  %10.1f qps  (%.1fx ack tax: "
              "WAL append + fsync)\n",
              r.inserts, r.durable_qps, r.overhead);
  return r;
}

// ---------------------------------------------------------------------------
// Phase 4: million-scale retrieval.

struct LatencyStats {
  double qps = 0.0;
  double p50_micros = 0.0;
  double p99_micros = 0.0;
};

struct RetrievalResult {
  retrieval::IvfIndex::Options ivf;  ///< Knobs, recorded with the numbers.
  double build_seconds = 0.0;
  LatencyStats exact;
  LatencyStats ivf_stats;
  double recall = 0.0;       ///< recall@kRetrievalK vs the exact scan.
  double ivf_speedup = 0.0;  ///< ivf qps / exact qps.
};

/// Nearest-rank percentile of `micros` (q in (0, 1]).
double Percentile(std::vector<double> micros, double q) {
  if (micros.empty()) return 0.0;
  std::sort(micros.begin(), micros.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(micros.size())));
  return micros[std::min(micros.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Times `run(i)` for i in [0, n): one warm-up pass, then best-of-N passes
/// by total wall time; p50/p99 come from the per-query latencies of the
/// best pass.
LatencyStats MeasureQueries(size_t n, const std::function<void(size_t)>& run) {
  for (size_t i = 0; i < n; ++i) run(i);
  LatencyStats best;
  double best_seconds = 0.0;
  for (size_t rep = 0; rep < kRetrievalRepeats; ++rep) {
    std::vector<double> lat(n);
    Stopwatch total;
    for (size_t i = 0; i < n; ++i) {
      Stopwatch sw;
      run(i);
      lat[i] = sw.ElapsedSeconds() * 1e6;
    }
    const double seconds = total.ElapsedSeconds();
    if (rep == 0 || seconds < best_seconds) {
      best_seconds = seconds;
      best.qps = static_cast<double>(n) / seconds;
      best.p50_micros = Percentile(lat, 0.5);
      best.p99_micros = Percentile(lat, 0.99);
    }
  }
  return best;
}

RetrievalResult RunRetrievalPhase() {
  RetrievalResult r;
  r.ivf.nlist = 256;
  r.ivf.train_sample = 20000;
  r.ivf.kmeans_iters = 6;
  r.ivf.seed = 42;
  r.ivf.default_nprobe = 16;
  r.ivf.rerank = 128;

  // Seeded clustered corpus: centers well separated (sigma 4) next to the
  // in-cluster spread (sigma 0.3); queries perturbed off corpus rows.
  Rng rng(kRetrievalSeed);
  std::vector<nn::Vector> centers(kRetrievalCenters,
                                  nn::Vector(kEmbeddingDim));
  for (nn::Vector& c : centers) {
    for (double& x : c) x = rng.Gaussian(0.0, kCenterSigma);
  }
  std::vector<nn::Vector> rows;
  rows.reserve(kRetrievalCorpus);
  for (size_t i = 0; i < kRetrievalCorpus; ++i) {
    nn::Vector v = centers[i % centers.size()];
    for (double& x : v) x += rng.Gaussian(0.0, kSpreadSigma);
    rows.push_back(std::move(v));
  }
  std::vector<nn::Vector> queries(kRetrievalQueries,
                                  nn::Vector(kEmbeddingDim));
  for (nn::Vector& q : queries) {
    const nn::Vector& base = rows[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(kRetrievalCorpus) - 1))];
    for (size_t d = 0; d < kEmbeddingDim; ++d) {
      q[d] = base[d] + rng.Gaussian(0.0, 0.1);
    }
  }

  EmbeddingDatabase exact_db;
  for (const nn::Vector& v : rows) exact_db.Insert(v);
  std::vector<nn::Vector>().swap(rows);

  // Ground truth (and recall reference): the exact scan's answers.
  std::vector<SearchResult> truth(kRetrievalQueries);
  for (size_t i = 0; i < kRetrievalQueries; ++i) {
    truth[i] = exact_db.TopK(queries[i], kRetrievalK);
  }

  retrieval::ExactBackend exact(&exact_db);
  r.exact = MeasureQueries(kRetrievalQueries, [&](size_t i) {
    exact.TopK(queries[i], kRetrievalK, -1, 0);
  });
  std::printf("  exact    %8.1f qps  p50 %.0fus  p99 %.0fus  "
              "(flat O(N*d) scan)\n",
              r.exact.qps, r.exact.p50_micros, r.exact.p99_micros);

  retrieval::IvfBackend ivf(&exact_db, r.ivf);
  {
    Stopwatch sw;
    ivf.Build(kServerThreads);
    r.build_seconds = sw.ElapsedSeconds();
  }
  std::printf("  ivf build: %.2fs  (nlist=%zu, sample=%zu, seed=%llu, "
              "kernel=%s)\n",
              r.build_seconds, ivf.index().nlist(), r.ivf.train_sample,
              static_cast<unsigned long long>(r.ivf.seed),
              retrieval::QuantizedKernelName());

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
  r.recall = static_cast<double>(hits) /
             static_cast<double>(kRetrievalQueries * kRetrievalK);

  r.ivf_stats = MeasureQueries(kRetrievalQueries, [&](size_t i) {
    ivf.TopK(queries[i], kRetrievalK, -1, 0);
  });
  r.ivf_speedup = r.ivf_stats.qps / r.exact.qps;
  std::printf("  ivf      %8.1f qps  p50 %.0fus  p99 %.0fus  "
              "(nprobe=%zu, rerank=%zu, recall@%zu %.4f, %.1fx exact)\n",
              r.ivf_stats.qps, r.ivf_stats.p50_micros,
              r.ivf_stats.p99_micros, r.ivf.default_nprobe, r.ivf.rerank,
              kRetrievalK, r.recall, r.ivf_speedup);
  return r;
}

}  // namespace

int main() {
  std::printf("NeuTraj serving benchmark\n");
  std::printf("hardware_concurrency: %u\n",
              std::thread::hardware_concurrency());

  GeneratorConfig gen_cfg = PortoLikeConfig(0.4);
  gen_cfg.seed = 17;
  TrajectoryDataset data = GeneratePortoLike(gen_cfg);
  for (Trajectory& t : data.trajectories) {
    t = t.Downsampled(kMaxTrajLen);
  }
  data.RecomputeRegion();

  NeuTrajConfig cfg = NeuTrajConfig::NeuTraj();
  cfg.embedding_dim = kEmbeddingDim;
  Grid grid(data.region.Inflated(50.0), 100.0);
  NeuTrajModel model(cfg, grid);
  Rng rng(29);
  model.InitializeWeights(&rng);

  EmbeddingDatabase db =
      EmbeddingDatabase::Build(model, data.trajectories, kServerThreads);
  std::printf("corpus: %zu trajectories (mean length %.1f, d=%zu)\n\n",
              data.size(), data.MeanLength(), db.dim());

  std::printf("[1/5] unbatched baseline (batch=1, 1 sequential client)\n");
  serve::MicroBatcher::Options unbatched;
  unbatched.threads = kServerThreads;
  unbatched.max_batch = 1;
  const PhaseResult base =
      RunPhase("unbatched", model, &db, data.trajectories, 1,
               /*pipelined=*/false, unbatched);

  std::printf("[2/5] micro-batched (batch=%zu, %zu pipelined clients)\n",
              kBurstSize, kConcurrentClients);
  serve::MicroBatcher::Options batched;
  batched.threads = kServerThreads;
  batched.max_batch = kBurstSize;
  const PhaseResult fast =
      RunPhase("batched", model, &db, data.trajectories, kConcurrentClients,
               /*pipelined=*/true, batched);

  std::printf("[3/5] durable-ack insert overhead (WAL fsync before ack)\n");
  const InsertResult ins = RunInsertPhase(db);

  std::printf("[4/5] million-scale retrieval (%zu rows, d=%zu, %zu queries, "
              "k=%zu)\n",
              kRetrievalCorpus, kEmbeddingDim, kRetrievalQueries, kRetrievalK);
  const RetrievalResult ret = RunRetrievalPhase();

  std::printf("[5/5] request-tracing overhead (batched phase, median of %zu "
              "runs of %zu alternating %llu ms slices)\n",
              kTraceRepeats, kTraceSlices,
              static_cast<unsigned long long>(kTraceSliceMillis));
  const TraceResult tr = RunTracingPhase(model, &db, data.trajectories, batched);
  const double off_overhead = tr.off_overhead;
  const double sampled_overhead = tr.sampled_overhead;

  // Served-bytes identity: the same query answered with a sampled trace
  // context and with none must serialize to the same reply bytes.
  bool served_identical = true;
  {
    LiveServer live(model, &db, batched, /*trace_sample_every=*/1);
    serve::Client plain;
    serve::Client traced;
    plain.Connect("127.0.0.1", live.port());
    traced.Connect("127.0.0.1", live.port());
    traced.set_trace_context({0x5eed1234, /*sampled=*/true});
    for (size_t i = 0; i < 32; ++i) {
      const Trajectory& t = data.trajectories[i % data.trajectories.size()];
      const std::string a =
          serve::SerializeEncodeResponse({plain.Encode(t)});
      const std::string b =
          serve::SerializeEncodeResponse({traced.Encode(t)});
      if (a != b) served_identical = false;
    }
    plain.Close();
    traced.Close();
  }
  std::printf("  trace-off   %.2f%% vs trace-off (A/A; runs %+.2f%% .. %+.2f%%)\n",
              off_overhead * 100.0, tr.off_range[0] * 100.0,
              tr.off_range[1] * 100.0);
  std::printf("  trace-1/64  %.2f%% vs trace-off (runs %+.2f%% .. %+.2f%%)  "
              "served bytes identical: %s\n",
              sampled_overhead * 100.0, tr.sampled_range[0] * 100.0,
              tr.sampled_range[1] * 100.0,
              served_identical ? "yes" : "NO");

  const double speedup = fast.qps / base.qps;
  std::printf("\nbatched/unbatched throughput: %.2fx\n", speedup);
  std::printf("ivf/exact retrieval throughput: %.2fx at recall@%zu %.4f\n",
              ret.ivf_speedup, kRetrievalK, ret.recall);

  FILE* f = std::fopen("BENCH_serving.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_serving.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f,
               "  \"corpus_size\": %zu,\n  \"embedding_dim\": %zu,\n"
               "  \"server_threads\": %zu,\n  \"phases\": [\n",
               data.size(), db.dim(), kServerThreads);
  const PhaseResult* phases[] = {&base, &fast};
  for (size_t i = 0; i < 2; ++i) {
    const PhaseResult& r = *phases[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"clients\": %zu, \"requests\": %zu, "
                 "\"seconds\": %.4f, \"qps\": %.1f, \"p50_micros\": %.1f, "
                 "\"p99_micros\": %.1f, \"mean_batch\": %.3f, "
                 "\"batches\": %llu}%s\n",
                 r.name.c_str(), r.clients, r.requests, r.seconds, r.qps,
                 r.p50_micros, r.p99_micros, r.mean_batch,
                 static_cast<unsigned long long>(r.batches),
                 i == 0 ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"speedup\": %.3f,\n", speedup);
  std::fprintf(f,
               "  \"tracing\": {\"runs\": %zu, \"slices\": %zu, "
               "\"slice_ms\": %llu, "
               "\"off_overhead\": %.4f, \"sampled64_overhead\": %.4f, "
               "\"served_bytes_identical\": %s},\n",
               kTraceRepeats, kTraceSlices,
               static_cast<unsigned long long>(kTraceSliceMillis),
               off_overhead, sampled_overhead,
               served_identical ? "true" : "false");
  std::fprintf(f,
               "  \"durable_inserts\": %zu,\n  \"insert_plain_qps\": %.1f,\n"
               "  \"insert_durable_qps\": %.1f,\n"
               "  \"durable_insert_overhead\": %.3f,\n",
               ins.inserts, ins.plain_qps, ins.durable_qps, ins.overhead);
  std::fprintf(f,
               "  \"retrieval\": {\n"
               "    \"corpus\": %zu,\n    \"dim\": %zu,\n"
               "    \"queries\": %zu,\n    \"k\": %zu,\n"
               "    \"nlist\": %zu,\n"
               "    \"nprobe\": %zu,\n    \"rerank\": %zu,\n"
               "    \"seed\": %llu,\n    \"kernel\": \"%s\",\n"
               "    \"build_seconds\": %.3f,\n",
               kRetrievalCorpus, kEmbeddingDim, kRetrievalQueries, kRetrievalK,
               ret.ivf.nlist, ret.ivf.default_nprobe, ret.ivf.rerank,
               static_cast<unsigned long long>(ret.ivf.seed),
               retrieval::QuantizedKernelName(), ret.build_seconds);
  std::fprintf(f,
               "    \"exact\": {\"qps\": %.1f, \"p50_micros\": %.1f, "
               "\"p99_micros\": %.1f},\n"
               "    \"ivf\": {\"qps\": %.1f, \"p50_micros\": %.1f, "
               "\"p99_micros\": %.1f},\n"
               "    \"recall_at_k\": %.4f,\n    \"ivf_speedup\": %.3f\n"
               "  }\n}\n",
               ret.exact.qps, ret.exact.p50_micros, ret.exact.p99_micros,
               ret.ivf_stats.qps,
               ret.ivf_stats.p50_micros, ret.ivf_stats.p99_micros, ret.recall,
               ret.ivf_speedup);
  std::fclose(f);
  std::printf("wrote BENCH_serving.json\n");

  const bool trace_ok = off_overhead <= 0.01 && sampled_overhead <= 0.02 &&
                        served_identical;
  const bool ok = speedup >= 2.0 && ret.ivf_speedup >= 10.0 &&
                  ret.recall >= 0.95 && trace_ok;
  if (!ok) {
    std::fprintf(stderr,
                 "GATE FAILED: batched %.2fx (need >= 2), "
                 "ivf %.2fx (need >= 10) at recall %.4f (need >= 0.95), "
                 "trace off %.2f%% (need <= 1%%), trace 1/64 %.2f%% (need "
                 "<= 2%%), served bytes identical %d\n",
                 speedup, ret.ivf_speedup, ret.recall, off_overhead * 100.0,
                 sampled_overhead * 100.0,
                 static_cast<int>(served_identical));
  }
  return ok ? 0 : 1;
}
