// Serving-side observability, built on the src/obs metrics primitives.
//
// ServerStats is a thin per-endpoint view over an obs::MetricsRegistry: each
// endpoint resolves its latency histogram ("serve/<name>/latency_us") and
// error counter ("serve/<name>/errors") once at construction, so Record is
// entirely lock-free — per-endpoint atomic increments, no shared mutex.
//
// The registry is the only record of serving counts. A Stats reply is built
// from one registry snapshot: the endpoint rows, the batcher fields and the
// flattened metrics all come from it, so the two halves of one reply cannot
// disagree.
//
// The histogram type (log2 microsecond buckets) is obs::LatencyHistogram,
// shared with the trainer and database timings.
//
// All timing flows through Stopwatch (steady_clock); nothing here reads the
// wall clock.

#ifndef NEUTRAJ_SERVE_STATS_H_
#define NEUTRAJ_SERVE_STATS_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace neutraj::serve {

/// The service's request kinds, indexing the per-endpoint counters.
enum class Endpoint : size_t {
  kEncode = 0,
  kPairSim,
  kTopK,
  kInsert,
  kStats,
  kHealth,
  kTraceDump,
  kCount,  ///< Sentinel; not an endpoint.
};

const char* EndpointName(Endpoint e);

/// One endpoint's frozen counters inside a StatsSnapshot.
struct EndpointSnapshot {
  std::string name;
  uint64_t requests = 0;
  uint64_t errors = 0;
  double qps = 0.0;  ///< requests / uptime seconds.
  double mean_micros = 0.0;
  double p50_micros = 0.0;
  double p90_micros = 0.0;
  double p99_micros = 0.0;
  double max_micros = 0.0;
};

/// Everything a kStatsResponse carries; plain data, protocol-serializable.
struct StatsSnapshot {
  double uptime_seconds = 0.0;
  uint64_t corpus_size = 0;
  uint32_t dim = 0;
  // Micro-batcher counters (serve/batcher/requests and /batches): how well
  // encode work is being coalesced.
  uint64_t batched_requests = 0;
  uint64_t batches = 0;
  double mean_batch_size = 0.0;
  std::vector<EndpointSnapshot> endpoints;
  /// Flattened registry metrics (batch-size distribution, endpoint
  /// latencies, embedding-DB timings, corpus gauge, ...). Serialized as an
  /// optional trailing wire section, so old clients parse everything above
  /// this field and new clients get the full registry.
  std::vector<std::pair<std::string, double>> metrics;

  /// Human-readable multi-line rendering (client CLI, logs).
  std::string ToString() const;

  /// Prometheus text exposition rendering of the endpoint counters plus the
  /// flattened metrics, for scraping via `neutraj_client stats --prometheus`.
  /// Each metric family appears once.
  std::string ToPrometheus() const;
};

/// Per-endpoint latency/error view over a MetricsRegistry. Record is
/// lock-free: each endpoint's histogram and error counter are resolved once
/// at construction and live in the registry under their registry names.
class ServerStats {
 public:
  /// Metrics are registered in (and owned by) `registry`, which must outlive
  /// this object. nullptr uses the process-global registry.
  explicit ServerStats(obs::MetricsRegistry* registry = nullptr);
  ServerStats(const ServerStats&) = delete;
  ServerStats& operator=(const ServerStats&) = delete;

  void Record(Endpoint e, double micros, bool error);

  /// Everything a Stats reply carries except the corpus shape, derived from
  /// one snapshot of this object's registry: the endpoint rows from the
  /// serve/<name>/latency_us histograms and serve/<name>/errors counters,
  /// the batcher fields from serve/batcher/requests and /batches, and
  /// `metrics` from metrics.Flatten(). The caller fills corpus_size and dim.
  StatsSnapshot Snapshot(const obs::MetricsSnapshot& metrics) const;

 private:
  struct PerEndpoint {
    obs::ConcurrentHistogram* hist = nullptr;  ///< Owned by the registry.
    obs::Counter* errors = nullptr;            ///< Owned by the registry.
  };

  Stopwatch uptime_;  ///< Started at construction = server start.
  std::array<PerEndpoint, static_cast<size_t>(Endpoint::kCount)> per_{};
};

}  // namespace neutraj::serve

#endif  // NEUTRAJ_SERVE_STATS_H_
