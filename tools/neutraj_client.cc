// neutraj_client — command-line client for neutraj_server.
//
// Subcommands (all take --host H (default 127.0.0.1) and --port P):
//   health                                    liveness + corpus shape
//   stats [--prometheus]                      per-endpoint latency/QPS table
//                                             (or Prometheus text format)
//   encode   --traj "x,y;x,y;..."             embed one trajectory
//   pairsim  --a "..." --b "..."              distance + similarity
//   topk     --traj "..." [--k K] [--exclude I] [--nprobe N]
//   insert   --traj "..."                     append to the live corpus
//   trace    [--out trace.json] [--max N]     pull the server's recent
//                                             sampled span trees as a
//                                             chrome://tracing JSON file
//
// Trajectories can come inline via --traj/--a/--b (the corpus CSV line
// format) or from a file: --data corpus.csv --id N picks line N.
//
// Robustness knobs (all optional):
//   --connect-timeout-ms MS   bound the TCP connect (default: OS default)
//   --io-timeout-ms MS        bound each send/recv (default: unbounded)
//   --retries N               retry transient connect failures up to N
//                             attempts with exponential backoff (default 1,
//                             i.e. no retry) — lets scripts start the client
//                             before the server has bound its port.
//   --trace-id N              attach trace id N (nonzero, decimal or 0x hex)
//                             to each request sent by this invocation and
//                             force it to be traced server-side; pull the
//                             span tree afterwards with the trace command.

#include <cstdio>
#include <string>

#include "common/file_util.h"
#include "flags.h"
#include "neutraj.h"

namespace {

using namespace neutraj;

using flags::Args;

void PrintUsage() {
  std::printf(
      "neutraj_client <command> [--host H] [--port P] [flags]\n"
      "  (global: --connect-timeout-ms MS --io-timeout-ms MS --retries N)\n"
      "  health\n"
      "  stats   [--prometheus]\n"
      "  encode  --traj \"x,y;x,y;...\" | --data F --id N\n"
      "  pairsim --a \"...\" --b \"...\"\n"
      "  topk    --traj \"...\" [--k K] [--exclude I] [--nprobe N]\n"
      "  insert  --traj \"...\"\n"
      "  trace   [--out trace.json] [--max N]\n"
      "  (any request command also takes --trace-id N to force tracing)\n");
}

/// Resolves a trajectory argument: inline CSV under `key`, or --data + --id.
Trajectory GetTrajectory(const Args& args, const std::string& key) {
  if (args.Has(key)) {
    const auto trajs = ParseTrajectories(args.Get(key));
    if (trajs.size() != 1) {
      throw std::runtime_error("--" + key + " must hold exactly one trajectory");
    }
    return trajs.front();
  }
  if (args.Has("data")) {
    const auto corpus = LoadTrajectories(args.Get("data"));
    const size_t id = static_cast<size_t>(args.GetInt("id", 0));
    if (id >= corpus.size()) {
      throw std::runtime_error("--id out of range (corpus has " +
                               std::to_string(corpus.size()) + " trajectories)");
    }
    return corpus[id];
  }
  throw std::runtime_error("need --" + key + " or --data F --id N");
}

serve::Client Connect(const Args& args) {
  serve::Client client;
  client.set_connect_timeout_ms(
      static_cast<uint32_t>(args.GetInt("connect-timeout-ms", 0)));
  client.set_io_timeout_ms(
      static_cast<uint32_t>(args.GetInt("io-timeout-ms", 0)));
  serve::RetryPolicy retry;
  retry.max_attempts = static_cast<uint32_t>(args.GetInt("retries", 1));
  client.set_retry_policy(retry);
  if (args.Has("trace-id")) {
    // std::stoull with base 0 accepts decimal and 0x-prefixed hex — handy
    // for pasting ids back out of the slow-query log.
    const uint64_t id = std::stoull(args.Get("trace-id"), nullptr, 0);
    if (id == 0) throw std::runtime_error("--trace-id must be nonzero");
    client.set_trace_context({id, /*sampled=*/true});
  }
  client.Connect(args.Get("host", "127.0.0.1"),
                 static_cast<uint16_t>(args.GetInt("port", 0)));
  return client;
}

int Run(const Args& args) {
  if (args.command == "help" || args.command == "--help") {
    PrintUsage();
    return 0;
  }
  serve::Client client = Connect(args);

  if (args.command == "health") {
    const serve::HealthResponse h = client.Health();
    std::printf("status: %s  corpus: %llu (d=%u)\n", h.status.c_str(),
                static_cast<unsigned long long>(h.corpus_size), h.dim);
    return h.ok ? 0 : 1;
  }
  if (args.command == "stats") {
    const serve::StatsSnapshot snap = client.Stats();
    std::printf("%s", args.Has("prometheus") ? snap.ToPrometheus().c_str()
                                             : snap.ToString().c_str());
    return 0;
  }
  if (args.command == "encode") {
    const nn::Vector e = client.Encode(GetTrajectory(args, "traj"));
    for (size_t i = 0; i < e.size(); ++i) {
      std::printf("%s%.8g", i > 0 ? " " : "", e[i]);
    }
    std::printf("\n");
    return 0;
  }
  if (args.command == "pairsim") {
    const serve::PairSimResponse r =
        client.PairSim(GetTrajectory(args, "a"), GetTrajectory(args, "b"));
    std::printf("distance %.6f  similarity %.6f\n", r.distance, r.similarity);
    return 0;
  }
  if (args.command == "topk") {
    const serve::TopKResponse r =
        client.TopK(GetTrajectory(args, "traj"),
                    static_cast<uint32_t>(args.GetInt("k", 10)),
                    args.GetInt("exclude", -1),
                    static_cast<uint32_t>(args.GetInt("nprobe", 0)));
    for (size_t i = 0; i < r.ids.size(); ++i) {
      std::printf("%2zu. trajectory %-6llu dist %.6f\n", i + 1,
                  static_cast<unsigned long long>(r.ids[i]), r.dists[i]);
    }
    return 0;
  }
  if (args.command == "insert") {
    const serve::InsertResponse r = client.Insert(GetTrajectory(args, "traj"));
    std::printf("inserted as id %llu (corpus size %llu)\n",
                static_cast<unsigned long long>(r.id),
                static_cast<unsigned long long>(r.corpus_size));
    return 0;
  }
  if (args.command == "trace") {
    const serve::TraceDumpResponse r =
        client.TraceDump(static_cast<uint32_t>(args.GetInt("max", 0)));
    const std::string json = obs::RenderChromeTrace(r.traces);
    if (args.Has("out")) {
      WriteFileAtomic(args.Get("out"), json);
      std::printf("wrote %zu trace(s) to %s — open in chrome://tracing\n",
                  r.traces.size(), args.Get("out").c_str());
    } else {
      std::printf("%s\n", json.c_str());
    }
    return 0;
  }
  std::fprintf(stderr, "unknown command: %s\n\n", args.command.c_str());
  PrintUsage();
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(flags::ParseArgs(argc, argv, /*subcommand=*/true));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
