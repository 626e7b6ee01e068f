// `search` workload: the paper's similarity search, served.
//
// A ~100k-trajectory Porto-like corpus (d = 32, about 26 MB of doubles) is
// embedded by the benchmark and loaded by neutraj_server at its defaults
// (exact retrieval, batch 32, 200 us window). Held-out trajectories are
// sent as TopK requests in rounds: a window on an open-loop schedule at a
// fixed nominal rate, then a window back to back on every connection for
// the saturated rate. The exact scan dominates each request, so changes to
// the core/retrieval scan show here, nn changes only as their share, and
// the store is idle.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "bench.h"

namespace perfbench {

using namespace neutraj;

namespace {

constexpr size_t kCorpus = 100000;
constexpr size_t kSmokeCorpus = 3000;
constexpr size_t kQueries = 2000;       ///< Held-out query pool.
constexpr size_t kCheckedQueries = 200;  ///< Queries with an exact reference.
constexpr uint32_t kK = 10;
constexpr int kSetupLaunches = 3;
constexpr size_t kSetupQuiet = 2;  ///< Launches the setup figure is taken from.
/// Nominal open-loop rate: under a third of the box's saturated TopK
/// throughput, so the latency figures describe a loaded but stable server.
constexpr double kNominalRps = 200.0;
constexpr size_t kRounds = 8;
constexpr size_t kMaxRounds = 16;
constexpr size_t kQuietRounds = 4;  ///< Rounds the figures are taken from.
constexpr double kQuietSteal = 0.03;

/// Compares served replies with the exact reference, per sending thread.
struct Checker {
  uint64_t checked = 0;
  uint64_t mismatched = 0;
  double recall_sum = 0.0;

  void Add(const serve::TopKResponse& got, const SearchResult& want) {
    ++checked;
    size_t hits = 0;
    for (uint64_t id : got.ids) {
      if (std::find(want.ids.begin(), want.ids.end(), id) != want.ids.end()) ++hits;
    }
    recall_sum += static_cast<double>(hits) / static_cast<double>(want.ids.size());
    bool same = got.ids.size() == want.ids.size() && got.dists.size() == want.dists.size();
    for (size_t i = 0; same && i < got.ids.size(); ++i) {
      same = got.ids[i] == want.ids[i] && got.dists[i] == want.dists[i];
    }
    if (!same) ++mismatched;
  }
};

}  // namespace

void RunSearch(const Options& opts, Report* report) {
  const size_t n = opts.smoke ? kSmokeCorpus : kCorpus;
  const size_t threads = opts.nproc;
  const double S = opts.seconds;

  // -- Inputs: corpus + held-out queries + model, all from the seed. ---------
  TrajectoryDataset data = MakePorto(n + kQueries, opts.seed);
  std::vector<Trajectory> queries(data.trajectories.end() - kQueries,
                                  data.trajectories.end());
  data.trajectories.resize(n);
  const std::string model_path = opts.work_dir + "/model.ntj";
  const std::string db_path = opts.work_dir + "/corpus.embdb";
  const NeuTrajModel model = MakeModel(data.region, opts.seed, model_path);
  const EmbeddingDatabase db =
      EmbeddingDatabase::Build(model, data.trajectories, threads);
  db.Save(db_path);

  std::vector<SearchResult> reference(kCheckedQueries);
  ParallelFor(kCheckedQueries, threads, [&](size_t q) {
    reference[q] = db.TopK(model.Embed(queries[q]), kK);
  });
  std::printf("search: corpus %zu (mean length %.1f, d=%zu), %zu queries\n",
              db.size(), data.MeanLength(), db.dim(), kQueries);

  // -- Setup: server launch to first OK Health, several times. ---------------
  const std::vector<std::string> server_args = {
      "--model", model_path, "--db", db_path, "--threads",
      std::to_string(threads)};
  report->Header("server_flags", "--db <corpus> --threads " +
                                     std::to_string(threads) +
                                     " (defaults: exact, batch 32, wait 200us)");
  std::vector<double> setups, setup_steals;
  ServerProcess server;
  for (int i = 0; i < kSetupLaunches; ++i) {
    if (i > 0) server.Stop();
    const CpuTimes launch = ReadCpuTimes();
    setups.push_back(server.Start(opts.server_bin, server_args, opts.work_dir + "/server"));
    setup_steals.push_back(StealShare(launch, ReadCpuTimes()));
  }
  const double setup_s = QuietMedian(setups, setup_steals, kSetupQuiet);
  report->Check(server.health().corpus_size == n, "server corpus size matches");

  std::vector<Checker> checkers(threads);
  std::vector<uint64_t> trace_ids;  // Non-empty: attach a sampled context.
  const auto topk = [&](size_t thread, size_t i, serve::Client* c) {
    const size_t q = i % kQueries;
    if (!trace_ids.empty()) c->set_trace_context({trace_ids[i], true});
    const serve::TopKResponse r = c->TopK(queries[q], kK);
    if (q < kCheckedQueries) checkers[thread].Add(r, reference[q]);
    return true;
  };

  // Every reply to a referenced query is compared as it arrives; this
  // reports the tally and returns recall10.
  const auto verify = [&] {
    uint64_t checked = 0, mismatched = 0;
    double recall_sum = 0.0;
    for (const Checker& c : checkers) {
      checked += c.checked;
      mismatched += c.mismatched;
      recall_sum += c.recall_sum;
    }
    const double recall = checked > 0 ? recall_sum / static_cast<double>(checked) : 0.0;
    report->Check(checked > 0 && mismatched == 0,
                  "served ids and distances bit-identical to the exact reference (" +
                      std::to_string(checked) + " replies)");
    report->Check(recall == 1.0, "recall10 is 1.0");
    return recall;
  };

  RunOpenLoop(server.port(), kNominalRps, 0.05 * S, threads, topk);  // Warm-up.

  Phase total;
  const auto account = [&](const Phase& p) {
    total.attempted += p.attempted;
    total.failed += p.failed;
  };

  if (!opts.trace) {
    // Rounds alternate a nominal-rate window with a saturation window. A
    // round is quiet when less than kQuietSteal of the machine's time was
    // stolen during it; rounds go on past kRounds, up to kMaxRounds, until
    // kQuietRounds are quiet, and each figure is the median of the
    // kQuietRounds quietest rounds (see QuietMedian).
    std::vector<double> p50s, lates, rates, steals, nominal_us;
    size_t saturated_n = 0;
    const auto quiet = [&] {
      return static_cast<size_t>(std::count_if(steals.begin(), steals.end(),
                                               [](double s) { return s < kQuietSteal; }));
    };
    while (p50s.size() < kRounds || (quiet() < kQuietRounds && p50s.size() < kMaxRounds)) {
      const CpuTimes round_start = ReadCpuTimes();
      const Phase nominal = Collect(RunOpenLoop(server.port(), kNominalRps,
                                                0.75 * S / kRounds, threads, topk).samples);
      account(nominal);
      p50s.push_back(Median(nominal.latency));
      lates.push_back(Percentile(nominal.late, 0.99));
      nominal_us.insert(nominal_us.end(), nominal.latency.begin(), nominal.latency.end());
      // Saturation: every connection sends back to back. Past this rate an
      // open-loop backlog can only grow, so it is the highest sustainable
      // rate for nproc concurrent connections.
      const PhaseResult sat = RunClosedLoop(server.port(), 0.2 * S / kRounds, threads, topk);
      const Phase saturated = Collect(sat.samples);
      account(saturated);
      rates.push_back(static_cast<double>(saturated.latency.size()) / sat.elapsed_s);
      saturated_n += saturated.latency.size();
      steals.push_back(StealShare(round_start, ReadCpuTimes()));
    }
    const double recall = verify();
    std::printf("search rounds (p50 us / saturated rps / steal):");
    for (size_t r = 0; r < p50s.size(); ++r) {
      std::printf(" %.0f/%.0f/%.1f%%", p50s[r], rates[r], 100.0 * steals[r]);
    }
    std::printf("\n");
    const double p50 = QuietMedian(p50s, steals, kQuietRounds);
    const double p99 = Percentile(nominal_us, 0.99);
    const double max_rps = QuietMedian(rates, steals, kQuietRounds);
    const double error_rate =
        static_cast<double>(total.failed) / static_cast<double>(total.attempted);
    std::printf("search @ %.0f rps: topk_p50_us %.1f  topk_p99_us %.1f  "
                "(p50: median of the %zu quietest of %zu rounds; p99: all n=%zu)\n",
                kNominalRps, p50, p99, Quietest(steals, kQuietRounds).size(), p50s.size(),
                nominal_us.size());
    std::printf("search: topk_max_rps %.1f (saturated, %zu connections, n=%zu)  "
                "recall10 %.4f  error_rate %.4f  setup_s %.3f (n=%zu)  "
                "gen late p99 %.1f us\n",
                max_rps, threads, saturated_n, recall, error_rate, setup_s,
                setups.size(), Median(lates));
    report->Metric("setup_s", setup_s, "s");
    report->Metric("success_rate", 1.0 - error_rate, "fraction");
    report->Metric("latency_p50_us", p50, "us");
    report->Metric("throughput_per_s", max_rps, "1/s");
    report->Metric("quality", recall, "fraction");
    report->Ops(total.attempted, total.failed);
  } else {
    serve::Client admin = Connect(server.port());
    const Phase untraced =
        Collect(RunOpenLoop(server.port(), kNominalRps, 0.5 * S, threads, topk).samples);
    account(untraced);
    const auto before = StatsMap(&admin);
    const size_t traced_n = static_cast<size_t>(std::llround(kNominalRps * 0.5 * S));
    for (size_t i = 0; i < traced_n; ++i) {
      trace_ids.push_back((opts.seed << 32) + i + 1);
    }
    const PhaseResult traced_raw =
        RunOpenLoop(server.port(), kNominalRps, 0.5 * S, threads, topk);
    const Phase traced = Collect(traced_raw.samples);
    account(traced);
    const auto after = StatsMap(&admin);
    const serve::TraceDumpResponse dump = admin.TraceDump(256);
    verify();

    const Reconciliation rec = Reconcile(before, after);
    const double client_mean = Mean(traced.service);
    PrintReconciliation(rec, client_mean);
    // Join the dumped server trees with the client-side spans by trace id.
    std::map<uint64_t, double> client_us;
    for (const Sample& s : traced_raw.samples) {
      if (s.ok) client_us[trace_ids[s.index]] = s.service_us;
    }
    std::ofstream out(opts.work_dir + "/trace.jsonl");
    size_t joined = 0;
    for (const obs::FinishedTrace& t : dump.traces) {
      auto it = client_us.find(t.trace_id);
      if (it == client_us.end()) continue;
      ++joined;
      out << "{\"trace_id\": " << t.trace_id << ", \"client_us\": " << it->second
          << ", \"server_total_us\": " << t.total_us << ", \"spans\": [";
      for (size_t i = 0; i < t.spans.size(); ++i) {
        out << (i ? ", " : "") << "{\"stage\": \"" << t.spans[i].stage
            << "\", \"start_us\": " << t.spans[i].start_us
            << ", \"dur_us\": " << t.spans[i].dur_us << ", \"tid\": " << t.spans[i].tid
            << "}";
      }
      out << "]}\n";
    }
    std::printf("trace trees joined with client spans: %zu of %zu dumped\n", joined,
                dump.traces.size());
    report->Check(joined > 0, "dumped server trees join client spans by trace id");

    // Benchmark-timed layers, with the server idle.
    std::vector<nn::Vector> embedded;
    for (size_t q = 0; q < 100; ++q) embedded.push_back(model.Embed(queries[q]));
    Stopwatch sw;
    for (const nn::Vector& e : embedded) db.TopK(e, kK);
    const double topk_exact_us = sw.ElapsedMicros() / 100.0;

    // Protocol codec on the workload's own frames: a TopK request and its
    // reply, each serialized, framed, unframed and parsed.
    const size_t codec_iters = 2000;
    bool codec_ok = true;
    sw.Restart();
    for (size_t i = 0; i < codec_iters; ++i) {
      serve::TopKRequest req;
      req.query = queries[i % kQueries];
      req.k = kK;
      WireFrame f;
      size_t off = 0;
      const std::string frame = EncodeWireFrame(
          static_cast<uint16_t>(serve::MsgType::kTopKRequest),
          serve::SerializeTopKRequest(req));
      serve::TopKRequest parsed;
      codec_ok = codec_ok && DecodeWireFrame(frame, &off, &f) == FrameStatus::kOk &&
                 serve::ParseTopKRequest(f.payload, &parsed) && parsed.query == req.query;
      const SearchResult& ref = reference[i % kCheckedQueries];
      serve::TopKResponse resp;
      resp.ids.assign(ref.ids.begin(), ref.ids.end());
      resp.dists = ref.dists;
      const std::string rframe = EncodeWireFrame(
          static_cast<uint16_t>(serve::MsgType::kTopKResponse),
          serve::SerializeTopKResponse(resp));
      serve::TopKResponse back;
      off = 0;
      codec_ok = codec_ok && DecodeWireFrame(rframe, &off, &f) == FrameStatus::kOk &&
                 serve::ParseTopKResponse(f.payload, &back) && back.dists == ref.dists;
    }
    const double codec_ns = sw.ElapsedMicros() * 1000.0 / codec_iters;
    report->Check(codec_ok, "TopK request and reply frames round-trip");

    report->Metric("serve.queue_wait_us", rec.stage_us("queue_wait"), "us");
    report->Metric("serve.batch_size",
                   HistWindow(before, after, "serve/batcher/batch_size").mean(),
                   "count");
    report->Metric("serve.reply_us", rec.stage_us("reply"), "us");
    report->Metric("serve.codec_ns", codec_ns, "ns");
    report->Metric("serve.other_us", rec.other_us(), "us");
    report->Metric("serve.unexplained_us", client_mean - rec.total_us, "us");
    report->Metric("serve.client_mean_us", client_mean, "us");
    report->Metric("nn.encode_us", rec.stage_us("encode"), "us");
    report->Metric("core.scan_us", rec.stage_us("scan"), "us");
    report->Metric("core.topk_exact_us", topk_exact_us, "us");
    report->Metric("obs.trace_overhead", client_mean / Mean(untraced.service),
                   "ratio");
    report->Metric("gen.late_p99_us", Percentile(traced.late, 0.99), "us");
    report->Metric("gen.latency_p99_us", Percentile(untraced.latency, 0.99), "us");
    report->Ops(total.attempted, total.failed);
  }

  const int rc = server.Stop();
  report->Check(rc == 0, "server drained and exited cleanly on SIGTERM");
}

}  // namespace perfbench
