// `ingest` workload: durable inserts beside reads.
//
// neutraj_server runs with a fresh --data-dir and IVF retrieval, seeded with
// ~20k Porto-like rows. Closed-loop inserters (each waits for its ack) send
// short 8-16-point trajectories while one open-loop reader sends TopK at a
// fixed low rate. Every insert is appended to the WAL and fsync'd before
// its ack, and every 1024th one stalls for an inline snapshot rewrite, so
// the store does most of the work here; the reader covers the db writer
// lock, IVF NotifyInsert and probe/re-rank under writes.
//
// The untraced run measures in rounds, each on a freshly launched server,
// so every round inserts into the same ~20k-row corpus and every compaction
// cycle (1024 consecutive acked ids, one inline snapshot rewrite each) costs
// about the same. The figures come from the cycles with the least CPU steal.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench.h"

namespace perfbench {

using namespace neutraj;

namespace {

constexpr size_t kSeedRows = 20000;
constexpr size_t kSmokeSeedRows = 1000;
constexpr size_t kPool = 20000;  ///< Short trajectories available to insert.
constexpr size_t kSmokePool = 4000;
constexpr size_t kReadQueries = 1000;
constexpr double kReadRps = 100.0;
constexpr uint32_t kK = 10;
constexpr uint32_t kNlist = 64;          ///< neutraj_server's --ivf-nlist default.
constexpr size_t kCompactEvery = 1024;   ///< neutraj_server's --compact-every default.
constexpr size_t kWarmupInserts = 64;    ///< Acks of a round before its first cycle.
constexpr size_t kRounds = 5;
constexpr size_t kMaxRounds = 10;
constexpr size_t kQuietCycles = 8;       ///< Cycles the figures are taken from.
constexpr double kQuietSteal = 0.03;
constexpr size_t kRecallQueries = 100;
constexpr size_t kDurableSamples = 50;
constexpr auto kStealTick = std::chrono::milliseconds(50);

struct Ack {
  uint64_t id = 0;
  size_t pool_index = 0;
  double done_s = 0.0;      ///< Ack time, seconds since the load began.
  double latency_us = 0.0;  ///< Send to ack.
};

/// Machine-wide CPU readings taken every kStealTick during a load.
struct StealTimeline {
  std::vector<double> at_s;  ///< Seconds since the load began.
  std::vector<CpuTimes> cpu;

  void Add(double t, const CpuTimes& c) {
    at_s.push_back(t);
    cpu.push_back(c);
  }
  /// Share of machine time stolen between load times `a` and `b`, from the
  /// last reading at or before `a` to the first at or after `b`.
  double Share(double a, double b) const {
    if (at_s.size() < 2) return 0.0;
    const size_t last = at_s.size() - 1;
    size_t i = static_cast<size_t>(std::upper_bound(at_s.begin(), at_s.end(), a) - at_s.begin());
    i = i == 0 ? 0 : std::min(i - 1, last - 1);
    size_t j = static_cast<size_t>(std::lower_bound(at_s.begin(), at_s.end(), b) - at_s.begin());
    j = std::clamp(j, i + 1, last);
    return StealShare(cpu[i], cpu[j]);
  }
};

/// Closed-loop inserters plus the open-loop reader for `seconds`.
struct LoadResult {
  std::vector<Sample> inserts, reads;
  std::vector<Ack> acks;  ///< Sorted by id.
  double elapsed_s = 0.0;
  StealTimeline steal;
};

LoadResult RunLoad(uint16_t port, const std::vector<Trajectory>& pool,
                   const std::vector<Trajectory>& reads, size_t inserters,
                   double seconds, std::atomic<size_t>* next_insert,
                   uint64_t trace_base) {
  std::vector<std::vector<Ack>> acks(inserters);
  const uint64_t read_base = trace_base == 0 ? 0 : trace_base + (uint64_t{1} << 40);
  PhaseResult inserted, reader;
  LoadResult out;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  const auto since_start = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - start).count();
  };
  out.steal.Add(0.0, ReadCpuTimes());
  std::thread writer([&] {
    inserted = RunClosedLoop(port, seconds, inserters,
                             [&](size_t t, size_t i, serve::Client* c) {
      if (trace_base != 0) c->set_trace_context({trace_base + (t << 24) + i + 1, true});
      const size_t idx = next_insert->fetch_add(1) % pool.size();
      const Clock::time_point sent = Clock::now();
      const uint64_t id = c->Insert(pool[idx]).id;
      const Clock::time_point done = Clock::now();
      acks[t].push_back({id, idx, since_start(done),
                         std::chrono::duration<double, std::micro>(done - sent).count()});
      return true;
    });
  });
  std::thread read([&] {
    reader = RunOpenLoop(port, kReadRps, seconds, 1, [&](size_t, size_t i, serve::Client* c) {
      if (read_base != 0) c->set_trace_context({read_base + i + 1, true});
      c->TopK(reads[i % reads.size()], kK);
      return true;
    });
  });
  while (Clock::now() < end) {
    std::this_thread::sleep_for(kStealTick);
    out.steal.Add(since_start(Clock::now()), ReadCpuTimes());
  }
  writer.join();
  read.join();
  out.steal.Add(since_start(Clock::now()), ReadCpuTimes());
  out.inserts = inserted.samples;
  out.reads = reader.samples;
  out.elapsed_s = inserted.elapsed_s;
  for (const std::vector<Ack>& a : acks) out.acks.insert(out.acks.end(), a.begin(), a.end());
  std::sort(out.acks.begin(), out.acks.end(),
            [](const Ack& a, const Ack& b) { return a.id < b.id; });
  return out;
}

/// Whether the acked ids are exactly seed_rows, seed_rows + 1, ...
bool Dense(const std::vector<Ack>& acks, size_t seed_rows) {
  for (size_t j = 0; j < acks.size(); ++j) {
    if (acks[j].id != seed_rows + j) return false;
  }
  return true;
}

/// kCompactEvery consecutive acked inserts of a round, timed from the ack
/// of its first to the ack of the next cycle's first: exactly one inline
/// compaction stall falls inside.
struct Cycle {
  double p50_us = 0.0;
  double inserts = 0.0;
  double seconds = 0.0;
  double steal = 0.0;
};

/// The round's full cycles after kWarmupInserts; a round too short for
/// one (small self-test runs) counts as a single cycle of everything.
std::vector<Cycle> Cycles(const LoadResult& load) {
  std::vector<Cycle> out;
  const std::vector<Ack>& acks = load.acks;
  for (size_t a = kWarmupInserts; a + kCompactEvery < acks.size(); a += kCompactEvery) {
    std::vector<double> us;
    for (size_t j = a; j < a + kCompactEvery; ++j) us.push_back(acks[j].latency_us);
    const double from = acks[a].done_s, to = acks[a + kCompactEvery].done_s;
    out.push_back({Median(us), static_cast<double>(kCompactEvery), to - from,
                   load.steal.Share(from, to)});
  }
  if (out.empty() && !acks.empty()) {
    std::vector<double> us;
    for (const Ack& a : acks) us.push_back(a.latency_us);
    out.push_back({Median(us), static_cast<double>(acks.size()), load.elapsed_s,
                   load.steal.Share(0.0, load.elapsed_s)});
  }
  return out;
}

}  // namespace

void RunIngest(const Options& opts, Report* report) {
  namespace fs = std::filesystem;
  const size_t seed_rows = opts.smoke ? kSmokeSeedRows : kSeedRows;
  const size_t pool_size = opts.smoke ? kSmokePool : kPool;
  const size_t inserters = std::max<size_t>(1, opts.nproc - 1);
  const double S = opts.seconds;

  // -- Inputs ------------------------------------------------------------------
  TrajectoryDataset data = MakePorto(seed_rows + kReadQueries + pool_size, opts.seed);
  std::vector<Trajectory>& all = data.trajectories;
  const std::vector<Trajectory> reads(all.begin() + static_cast<long>(seed_rows),
                                      all.begin() + static_cast<long>(seed_rows + kReadQueries));
  std::vector<Trajectory> pool(all.begin() + static_cast<long>(seed_rows + kReadQueries),
                               all.end());
  TruncateEach(&pool, 8, 16, opts.seed + 1);
  all.resize(seed_rows);
  const std::string model_path = opts.work_dir + "/model.ntj";
  const std::string seed_path = opts.work_dir + "/seed.embdb";
  const NeuTrajModel model = MakeModel(data.region, opts.seed, model_path);
  EmbeddingDatabase::Build(model, all, opts.nproc).Save(seed_path);
  std::printf("ingest: %zu seed rows, %zu short trajectories to insert "
              "(8-16 points), %zu inserters, reader at %.0f rps\n",
              seed_rows, pool_size, inserters, kReadRps);

  const auto args_for = [&](const std::string& dir, bool seed_db) {
    std::vector<std::string> a = {"--model", model_path, "--data-dir", dir,
                                  "--retrieval", "ivf", "--threads",
                                  std::to_string(opts.nproc)};
    if (seed_db) {
      a.push_back("--db");
      a.push_back(seed_path);
    }
    return a;
  };
  report->Header("server_flags", "--db <seed> --data-dir <fresh> --retrieval ivf --threads " +
                                     std::to_string(opts.nproc) +
                                     " (defaults: nlist 64, nprobe 8, compact every 1024, "
                                     "batch 32, wait 200us)");

  // Setup: fresh data dir, seed snapshot, IVF build. Every launch replaces
  // the previous server and its data dir.
  ServerProcess server;
  std::string data_dir;
  std::vector<double> setups, setup_steals;
  const auto launch = [&] {
    if (!data_dir.empty()) {
      server.Stop();
      fs::remove_all(data_dir);
    }
    data_dir = opts.work_dir + "/data" + std::to_string(setups.size());
    const CpuTimes before = ReadCpuTimes();
    setups.push_back(server.Start(opts.server_bin, args_for(data_dir, true),
                                  opts.work_dir + "/server"));
    setup_steals.push_back(StealShare(before, ReadCpuTimes()));
  };

  // -- Load --------------------------------------------------------------------
  // Untraced: rounds of S / kRounds on a fresh server each; rounds go on
  // past kRounds, up to kMaxRounds, until kQuietCycles cycles had less than
  // kQuietSteal of the machine's time stolen. Traced: one server, an
  // untraced half, then a half in which every request carries a sampled
  // trace context. The live checks and the restart use the last server.
  std::vector<Cycle> cycles;
  std::vector<Sample> inserts, read_samples, traced_inserts, traced_reads;
  std::vector<Ack> acks;  ///< Of the last server, sorted by id.
  bool dense = true;
  uint64_t acked = 0;
  double compactions = 0.0;
  std::map<std::string, double> before, mid, after;
  std::atomic<size_t> next_insert{0};
  const auto quiet = [&] {
    return static_cast<size_t>(std::count_if(cycles.begin(), cycles.end(), [](const Cycle& c) {
      return c.steal < kQuietSteal;
    }));
  };
  const auto append = [](std::vector<Sample>* to, const std::vector<Sample>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  size_t rounds = 0;
  if (!opts.trace) {
    while (rounds < kRounds || (quiet() < kQuietCycles && rounds < kMaxRounds)) {
      launch();
      ++rounds;
      serve::Client admin = Connect(server.port());
      before = StatsMap(&admin);
      next_insert = 0;  // Every round inserts the same trajectories.
      const LoadResult load =
          RunLoad(server.port(), pool, reads, inserters, S / kRounds, &next_insert, 0);
      after = StatsMap(&admin);
      compactions += CounterDelta(before, after, "store/compactions");
      dense = dense && Dense(load.acks, seed_rows);
      acked += load.acks.size();
      acks = load.acks;
      const std::vector<Cycle> round = Cycles(load);
      cycles.insert(cycles.end(), round.begin(), round.end());
      append(&inserts, load.inserts);
      append(&read_samples, load.reads);
    }
  } else {
    launch();
    serve::Client admin = Connect(server.port());
    before = StatsMap(&admin);
    const LoadResult load =
        RunLoad(server.port(), pool, reads, inserters, 0.5 * S, &next_insert, 0);
    mid = StatsMap(&admin);
    const LoadResult traced = RunLoad(server.port(), pool, reads, inserters, 0.5 * S,
                                      &next_insert, (opts.seed << 44) | (uint64_t{1} << 63));
    after = StatsMap(&admin);
    compactions = CounterDelta(before, after, "store/compactions");
    acks = load.acks;
    acks.insert(acks.end(), traced.acks.begin(), traced.acks.end());
    std::sort(acks.begin(), acks.end(), [](const Ack& a, const Ack& b) { return a.id < b.id; });
    dense = Dense(acks, seed_rows);
    acked = acks.size();
    append(&inserts, load.inserts);
    append(&read_samples, load.reads);
    append(&traced_inserts, traced.inserts);
    append(&traced_reads, traced.reads);
  }
  report->Check(dense, "acked ids are dense after the seed rows on every server (" +
                           std::to_string(acked) + " acks)");

  // -- Checks on the last, now quiescent, server ------------------------------
  EmbeddingDatabase replica = EmbeddingDatabase::Load(seed_path);
  {
    std::vector<Trajectory> inserted;
    inserted.reserve(acks.size());
    for (const Ack& a : acks) inserted.push_back(pool[a.pool_index]);
    for (const nn::Vector& e : model.EmbedAllParallel(inserted, opts.nproc)) {
      replica.Insert(e);
    }
  }
  double recall_sum = 0.0;
  bool rerank_exact = true;
  {
    serve::Client admin = Connect(server.port());
    for (size_t q = 0; q < kRecallQueries; ++q) {
      const nn::Vector e = model.Embed(reads[q]);
      const SearchResult exact = replica.TopK(e, kK);
      const serve::TopKResponse got = admin.TopK(reads[q], kK);
      size_t hits = 0;
      for (uint64_t id : got.ids) {
        hits += std::count(exact.ids.begin(), exact.ids.end(), id);
      }
      recall_sum += static_cast<double>(hits) / kK;
      const SearchResult rerank = replica.TopKOf(
          e, std::vector<size_t>(got.ids.begin(), got.ids.end()), kK);
      rerank_exact = rerank_exact && rerank.dists == got.dists &&
                     std::equal(rerank.ids.begin(), rerank.ids.end(), got.ids.begin(),
                                got.ids.end());
    }
  }
  const double recall = recall_sum / kRecallQueries;
  report->Check(rerank_exact, "served distances bit-identical to an exact re-rank");

  // -- Graceful stop, restart from the data dir, durability checks -----------
  report->Check(server.Stop() == 0, "server drained and exited cleanly on SIGTERM");
  ServerProcess restarted;
  restarted.Start(opts.server_bin, args_for(data_dir, false), opts.work_dir + "/server");
  report->Check(restarted.health().corpus_size == seed_rows + acks.size(),
                "restarted corpus = seed rows + acked inserts (" +
                    std::to_string(restarted.health().corpus_size) + ")");
  {
    serve::Client c = Connect(restarted.port());
    bool all_zero = !acks.empty();
    const size_t samples = std::min(kDurableSamples, acks.size());
    for (size_t s = 0; s < samples; ++s) {
      const Ack& a = acks[s * acks.size() / samples];
      const serve::TopKResponse r = c.TopK(pool[a.pool_index], 1, -1, kNlist);
      all_zero = all_zero && !r.dists.empty() && r.dists[0] == 0.0;
    }
    report->Check(all_zero, "sampled acked trajectories come back at distance 0 "
                            "after restart");
  }
  report->Check(restarted.Stop() == 0, "restarted server exited cleanly");

  const Phase insert_phase = Collect(inserts);
  const Phase reads_phase = Collect(read_samples);
  const Phase traced_insert_phase = Collect(traced_inserts);
  const Phase traced_reads_phase = Collect(traced_reads);
  uint64_t attempted = 0, failed = 0;
  for (const Phase* p : {&insert_phase, &reads_phase, &traced_insert_phase, &traced_reads_phase}) {
    attempted += p->attempted;
    failed += p->failed;
  }
  report->Ops(attempted, failed);

  if (!opts.trace) {
    // Both figures come from the kQuietCycles cycles with the least steal
    // (see Quietest): the median of their p50s, and their inserts over
    // their time, each compaction stall counted once.
    std::vector<double> steals;
    for (const Cycle& c : cycles) steals.push_back(c.steal);
    const std::vector<size_t> order = Quietest(steals, kQuietCycles);
    std::vector<double> p50s;
    double quiet_inserts = 0.0, quiet_seconds = 0.0;
    for (size_t i : order) {
      p50s.push_back(cycles[i].p50_us);
      quiet_inserts += cycles[i].inserts;
      quiet_seconds += cycles[i].seconds;
    }
    const double p50 = Median(p50s);
    const double insert_per_s = quiet_inserts / quiet_seconds;
    const double setup_s = QuietMedian(setups, setup_steals, setups.size() / 2 + 1);
    const std::vector<double>& insert_us = insert_phase.latency;
    const std::vector<double>& read_us = reads_phase.latency;
    const double error_rate = static_cast<double>(failed) / static_cast<double>(attempted);
    std::printf("ingest cycles (p50 us / inserts per s / steal):");
    for (const Cycle& c : cycles) {
      std::printf(" %.0f/%.0f/%.1f%%", c.p50_us, c.inserts / c.seconds, 100.0 * c.steal);
    }
    std::printf("\n");
    std::printf("ingest setup launches (s / steal):");
    for (size_t i = 0; i < setups.size(); ++i) {
      std::printf(" %.3f/%.1f%%", setups[i], 100.0 * setup_steals[i]);
    }
    std::printf("\n");
    std::printf("ingest: insert_p50_us %.1f (median of the %zu quietest of %zu cycles, %zu "
                "rounds)  insert_p99_us %.1f  p99.9 %.0f  max %.0f  (all n=%zu)\n",
                p50, order.size(), cycles.size(), rounds, Percentile(insert_us, 0.99),
                Percentile(insert_us, 0.999), Percentile(insert_us, 1.0), insert_us.size());
    std::printf("ingest: insert_per_s %.1f (the same cycles)  compactions %.0f\n",
                insert_per_s, compactions);
    std::printf("ingest: topk_p50_us %.1f  topk_p99_us %.1f  (n=%zu)  recall10 %.4f  "
                "error_rate %.4f  setup_s %.3f (n=%zu)\n",
                Median(read_us), Percentile(read_us, 0.99), read_us.size(), recall,
                error_rate, setup_s, setups.size());
    report->Metric("setup_s", setup_s, "s");
    report->Metric("success_rate", 1.0 - error_rate, "fraction");
    report->Metric("latency_p50_us", p50, "us");
    report->Metric("throughput_per_s", insert_per_s, "1/s");
    report->Metric("quality", recall, "fraction");
    return;
  }

  // Per-layer numbers. Store and retrieval counters cover the whole load;
  // reqtrace stages cover the traced half, where every request is traced.
  const Reconciliation rec = Reconcile(mid, after);
  std::vector<double> traced_us = traced_insert_phase.service;
  traced_us.insert(traced_us.end(), traced_reads_phase.service.begin(),
                   traced_reads_phase.service.end());
  const double client_mean = Mean(traced_us);
  PrintReconciliation(rec, client_mean);
  const double queries = std::max(CounterDelta(before, after, "retrieval/queries"), 1.0);
  const double wal_records = std::max(CounterDelta(before, after, "wal/records"), 1.0);
  report->Metric("serve.queue_wait_us", rec.stage_us("queue_wait"), "us");
  report->Metric("serve.batch_size",
                 HistWindow(before, after, "serve/batcher/batch_size").mean(), "count");
  report->Metric("serve.reply_us", rec.stage_us("reply"), "us");
  report->Metric("serve.other_us", rec.other_us(), "us");
  report->Metric("serve.unexplained_us", client_mean - rec.total_us, "us");
  report->Metric("serve.client_mean_us", client_mean, "us");
  report->Metric("nn.encode_us", rec.stage_us("encode"), "us");
  report->Metric("core.db_insert_us", HistWindow(before, after, "db/insert_us").mean(),
                 "us");
  report->Metric("retrieval.probe_us", HistWindow(before, after, "retrieval/probe_us").mean(),
                 "us");
  report->Metric("retrieval.rerank_us",
                 HistWindow(before, after, "retrieval/rerank_us").mean(), "us");
  report->Metric("retrieval.candidates_per_query",
                 CounterDelta(before, after, "retrieval/candidates_scanned") / queries,
                 "count");
  report->Metric("retrieval.proxy_top1_rate",
                 CounterDelta(before, after, "retrieval/proxy_top1_hits") / queries,
                 "fraction");
  report->Metric("store.wal_us", rec.stage_us("wal"), "us");
  report->Metric("store.compactions", compactions, "count");
  report->Metric("store.compact_us", HistWindow(before, after, "store/compact_us").mean(),
                 "us");
  report->Metric("store.wal_bytes_per_insert",
                 CounterDelta(before, after, "wal/bytes") / wal_records, "bytes");
  report->Metric("obs.trace_overhead",
                 Mean(traced_insert_phase.latency) / Mean(insert_phase.latency), "ratio");
  report->Metric("gen.late_p99_us", Percentile(reads_phase.late, 0.99), "us");
  report->Metric("gen.latency_p99_us", Percentile(insert_phase.latency, 0.99), "us");
}

}  // namespace perfbench
