// neutraj_server — long-lived similarity-search server over a trained model.
//
// Loads a model plus a corpus (CSV trajectories or a prebuilt .embdb), binds
// a loopback/TCP port, and serves the binary wire protocol of src/serve/:
// Encode, PairSim, TopK, Insert (live corpus appends), Stats, Health.
// Encoding is micro-batched across a thread pool: an idle batcher encodes a
// request at once, and requests that queue while a batch runs form the next
// batch of at most --batch B (default 32). SIGTERM/SIGINT trigger a
// graceful drain (in-flight requests finish, new work is refused) and a
// zero exit code.
//
// Usage:
//   neutraj_server --model model.ntj [--data corpus.csv | --db corpus.embdb]
//                  [--host H] [--port P] [--port-file F]
//                  [--threads N] [--batch B]
//                  [--save-db F] [--data-dir D] [--compact-every N]
//                  [--idle-timeout-ms MS]
//                  [--retrieval exact|ivf] [--ivf-nlist N] [--ivf-nprobe N]
//                  [--ivf-seed S]
//                  [--trace-sample-every N] [--slow-query-log F]
//                  [--slow-query-threshold-us U]
//
// --threads N (default 4) is the cores the server spends per request
// stage: N encode workers in the micro-batcher, and with --retrieval exact
// an exact TopK scan split across the calling thread plus up to N-1
// helpers (shared among the scans in flight, so callers plus helpers never
// outnumber N and a busy server scans each query on its own thread). --port 0 (default) picks an ephemeral
// port; --port-file writes the bound port for scripts (see
// tools/serve_smoke_test.sh). --save-db persists the
// final corpus embeddings (including live inserts) on shutdown.
//
// --retrieval ivf answers TopK through an IVF ANN index (src/retrieval/):
// built deterministically over the corpus after load/recovery (so a
// restarted --data-dir server probes the exact same index a fresh build
// would produce), probing --ivf-nprobe of --ivf-nlist cells and exactly
// re-ranking the survivors — returned distances are bit-identical to
// --retrieval exact; only recall is approximate. Clients can widen one
// query's probe breadth with the request's nprobe knob. Requires a
// non-empty corpus at startup; live inserts are indexed as they arrive.
//
// --data-dir turns on durability: every Insert is written to a CRC-framed
// write-ahead log before it is acknowledged, and the corpus is periodically
// compacted into <data-dir>/snapshot.embdb. On restart the directory is
// recovered (snapshot + WAL tail) — pass --data-dir WITHOUT --data/--db to
// resume a prior corpus; seeding flags are only for the first run, when the
// directory is empty. A corrupt snapshot aborts startup with the corrupt
// section and offset; a torn WAL tail is truncated and reported.
//
// --trace-sample-every N traces 1 request in N with a per-stage span tree
// (pull recent trees with `neutraj_client trace`); --slow-query-log F
// appends a JSONL line with the per-stage breakdown for every traced
// request slower than --slow-query-threshold-us (default 10000). Client
// requests carrying --trace-id are traced regardless of the sampling rate.

#include <cstdio>
#include <memory>
#include <string>

#include "common/errors.h"
#include "common/file_util.h"
#include "flags.h"
#include "neutraj.h"

namespace {

using namespace neutraj;

using flags::Args;

void PrintUsage() {
  std::printf(
      "neutraj_server --model M [--data F.csv | --db F.embdb]\n"
      "               [--host H] [--port P] [--port-file F]\n"
      "               [--threads N] [--batch B]\n"
      "               [--save-db F] [--data-dir D] [--compact-every N]\n"
      "               [--idle-timeout-ms MS]\n"
      "               [--retrieval exact|ivf] [--ivf-nlist N]\n"
      "               [--ivf-nprobe N] [--ivf-seed S]\n"
      "               [--trace-sample-every N] [--slow-query-log F]\n"
      "               [--slow-query-threshold-us U]\n"
      "  --threads N  encode workers, and the cores the exact TopK\n"
      "               scans in flight share (default 4)\n");
}

int Run(const Args& args) {
  if (args.Has("help")) {
    PrintUsage();
    return 0;
  }
  const NeuTrajModel model = NeuTrajModel::Load(args.Require("model"));
  const size_t threads = static_cast<size_t>(args.GetInt("threads", 4));

  EmbeddingDatabase db;
  if (args.Has("db")) {
    db = EmbeddingDatabase::Load(args.Get("db"));
    std::printf("loaded %zu embeddings (d=%zu) from %s\n", db.size(), db.dim(),
                args.Get("db").c_str());
  } else if (args.Has("data")) {
    size_t dropped = 0;
    const auto corpus =
        DropEmptyTrajectories(LoadTrajectories(args.Get("data")), &dropped);
    if (dropped > 0) {
      std::fprintf(stderr, "warning: dropped %zu empty trajectories\n", dropped);
    }
    Stopwatch sw;
    db = EmbeddingDatabase::Build(model, corpus, threads);
    std::printf("embedded %zu trajectories (d=%zu) in %.2fs\n", db.size(),
                db.dim(), sw.ElapsedSeconds());
  } else {
    std::printf("starting with an empty corpus (populate via Insert)\n");
  }

  std::unique_ptr<store::DurableStore> durable;
  if (args.Has("data-dir")) {
    store::DurableStore::Options store_opts;
    store_opts.data_dir = args.Get("data-dir");
    store_opts.compact_every =
        static_cast<size_t>(args.GetInt("compact-every", 1024));
    durable = std::make_unique<store::DurableStore>(&db, store_opts);
    const store::DurableStore::RecoveryInfo info = durable->Open();
    std::printf(
        "durable store %s: snapshot %zu records, wal replayed %zu "
        "(skipped %zu), tail %s%s%s\n",
        args.Get("data-dir").c_str(), info.snapshot_records, info.replayed,
        info.skipped, store::WalTailName(info.tail),
        info.tail_detail.empty() ? "" : " — ", info.tail_detail.c_str());
    std::printf("corpus after recovery: %zu embeddings\n", db.size());
  }

  serve::MicroBatcher::Options batch_opts;
  batch_opts.threads = threads;
  batch_opts.max_batch = static_cast<size_t>(args.GetInt("batch", 32));
  serve::QueryService service(model, &db, batch_opts, durable.get());

  std::unique_ptr<retrieval::IvfBackend> ivf;
  const std::string mode = args.Get("retrieval", "exact");
  if (mode == "ivf") {
    if (db.empty()) {
      throw std::runtime_error(
          "--retrieval ivf requires a non-empty corpus at startup "
          "(seed one with --data/--db or recover via --data-dir)");
    }
    retrieval::IvfIndex::Options ivf_opts;
    ivf_opts.nlist = static_cast<size_t>(args.GetInt("ivf-nlist", 64));
    ivf_opts.default_nprobe =
        static_cast<size_t>(args.GetInt("ivf-nprobe", 8));
    ivf_opts.seed = static_cast<uint64_t>(args.GetInt("ivf-seed", 42));
    // Built here — after any --data-dir recovery — so a restarted server
    // deterministically reproduces the index of a fresh build over the
    // recovered corpus (pinned by tests/retrieval_recovery_test.cc).
    ivf = std::make_unique<retrieval::IvfBackend>(&db, ivf_opts);
    Stopwatch ivf_sw;
    ivf->Build(threads);
    std::printf("ivf index built in %.2fs: %zu cells over %zu rows "
                "(nprobe=%zu, seed=%llu, int8 kernel=%s)\n",
                ivf_sw.ElapsedSeconds(), ivf->index().nlist(),
                ivf->index().size(), ivf_opts.default_nprobe,
                static_cast<unsigned long long>(ivf_opts.seed),
                retrieval::QuantizedKernelName());
    service.set_retrieval_backend(ivf.get());
  } else if (mode != "exact") {
    throw std::runtime_error("unknown --retrieval mode: " + mode +
                             " (expected exact or ivf)");
  }

  serve::ServerOptions server_opts;
  server_opts.host = args.Get("host", "127.0.0.1");
  server_opts.port = static_cast<uint16_t>(args.GetInt("port", 0));
  server_opts.idle_timeout_ms =
      static_cast<uint32_t>(args.GetInt("idle-timeout-ms", 0));
  obs::ReqTraceOptions trace_opts;
  trace_opts.sample_every =
      static_cast<uint32_t>(args.GetInt("trace-sample-every", 0));
  trace_opts.slow_log_path = args.Get("slow-query-log");
  trace_opts.slow_threshold_us =
      static_cast<double>(args.GetInt("slow-query-threshold-us", 10000));
  service.ConfigureTracing(trace_opts);
  if (trace_opts.sample_every != 0 || !trace_opts.slow_log_path.empty()) {
    std::printf("request tracing: sample 1-in-%u%s%s\n",
                trace_opts.sample_every,
                trace_opts.slow_log_path.empty() ? "" : ", slow-query log ",
                trace_opts.slow_log_path.c_str());
  }
  serve::Server server(&service, server_opts);
  server.Start();
  serve::InstallStopSignalHandlers(&server);

  std::printf("listening on %s:%u (threads=%zu, batch=%zu)\n",
              server_opts.host.c_str(), server.port(), threads,
              batch_opts.max_batch);
  std::fflush(stdout);
  if (args.Has("port-file")) {
    WriteFileAtomic(args.Get("port-file"), std::to_string(server.port()) + "\n");
  }

  server.Wait();  // Returns after a SIGTERM/SIGINT-triggered drain.
  serve::InstallStopSignalHandlers(nullptr);

  const serve::StatsSnapshot stats = service.Snapshot();
  std::printf("drained; final stats:\n%s", stats.ToString().c_str());
  if (durable != nullptr && durable->read_only()) {
    std::fprintf(stderr, "warning: store degraded to read-only: %s\n",
                 durable->degraded_reason().c_str());
  }
  if (args.Has("save-db")) {
    db.Save(args.Get("save-db"));
    std::printf("saved %zu embeddings to %s\n", db.size(),
                args.Get("save-db").c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(flags::ParseArgs(argc, argv, /*subcommand=*/false));
  } catch (const neutraj::CorruptionError& e) {
    // Corrupt persistent state is an operational problem, not a usage one:
    // report the typed context (source file, section, byte offset) and stop.
    std::fprintf(stderr, "error: corrupt store: %s\n", e.what());
    return 1;
  } catch (const neutraj::store::StoreError& e) {
    std::fprintf(stderr, "error: store: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    PrintUsage();
    return 1;
  }
}
