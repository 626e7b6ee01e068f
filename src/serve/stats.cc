#include "serve/stats.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"

namespace neutraj::serve {

const char* EndpointName(Endpoint e) {
  switch (e) {
    case Endpoint::kEncode: return "encode";
    case Endpoint::kPairSim: return "pairsim";
    case Endpoint::kTopK: return "topk";
    case Endpoint::kInsert: return "insert";
    case Endpoint::kStats: return "stats";
    case Endpoint::kHealth: return "health";
    case Endpoint::kTraceDump: return "tracedump";
    case Endpoint::kCount: break;
  }
  return "unknown";
}

namespace {

/// The registry name of endpoint `i`'s metric `suffix`.
std::string EndpointMetric(size_t i, const char* suffix) {
  return std::string("serve/") + EndpointName(static_cast<Endpoint>(i)) +
         suffix;
}

/// The value named `name` in one section of a MetricsSnapshot; empty (zero)
/// when the registry never registered it.
template <typename V>
V Lookup(const std::vector<std::pair<std::string, V>>& rows,
         const std::string& name) {
  for (const auto& [key, value] : rows) {
    if (key == name) return value;
  }
  return V();
}

}  // namespace

ServerStats::ServerStats(obs::MetricsRegistry* registry) {
  obs::MetricsRegistry& reg =
      registry != nullptr ? *registry : obs::MetricsRegistry::Global();
  for (size_t i = 0; i < per_.size(); ++i) {
    per_[i].hist = &reg.GetHistogram(EndpointMetric(i, "/latency_us"));
    per_[i].errors = &reg.GetCounter(EndpointMetric(i, "/errors"));
  }
}

void ServerStats::Record(Endpoint e, double micros, bool error) {
  const PerEndpoint& pe = per_[static_cast<size_t>(e)];
  pe.hist->Record(micros);
  if (error) pe.errors->Increment();
}

StatsSnapshot ServerStats::Snapshot(const obs::MetricsSnapshot& metrics) const {
  StatsSnapshot snap;
  snap.uptime_seconds = uptime_.ElapsedSeconds();
  const double uptime = std::max(snap.uptime_seconds, 1e-9);
  for (size_t i = 0; i < per_.size(); ++i) {
    const obs::LatencyHistogram hist =
        Lookup(metrics.histograms, EndpointMetric(i, "/latency_us"));
    EndpointSnapshot es;
    es.name = EndpointName(static_cast<Endpoint>(i));
    es.requests = hist.count();
    es.errors = Lookup(metrics.counters, EndpointMetric(i, "/errors"));
    es.qps = static_cast<double>(es.requests) / uptime;
    es.mean_micros = hist.mean_micros();
    es.p50_micros = hist.PercentileMicros(0.50);
    es.p90_micros = hist.PercentileMicros(0.90);
    es.p99_micros = hist.PercentileMicros(0.99);
    es.max_micros = hist.max_micros();
    snap.endpoints.push_back(std::move(es));
  }
  snap.batched_requests = Lookup(metrics.counters, "serve/batcher/requests");
  snap.batches = Lookup(metrics.counters, "serve/batcher/batches");
  snap.mean_batch_size = snap.batches == 0
                             ? 0.0
                             : static_cast<double>(snap.batched_requests) /
                                   static_cast<double>(snap.batches);
  snap.metrics = metrics.Flatten();
  return snap;
}

std::string StatsSnapshot::ToString() const {
  std::string out = StrFormat(
      "uptime %.1fs  corpus %llu (d=%u)  encode batches %llu/%llu "
      "(mean batch %.2f)\n",
      uptime_seconds, static_cast<unsigned long long>(corpus_size), dim,
      static_cast<unsigned long long>(batches),
      static_cast<unsigned long long>(batched_requests), mean_batch_size);
  out += StrFormat("%-8s %9s %7s %9s %10s %10s %10s %10s\n", "endpoint",
                   "requests", "errors", "qps", "mean_us", "p50_us", "p99_us",
                   "max_us");
  for (const EndpointSnapshot& e : endpoints) {
    out += StrFormat("%-8s %9llu %7llu %9.2f %10.1f %10.0f %10.0f %10.1f\n",
                     e.name.c_str(), static_cast<unsigned long long>(e.requests),
                     static_cast<unsigned long long>(e.errors), e.qps,
                     e.mean_micros, e.p50_micros, e.p99_micros, e.max_micros);
  }
  if (!metrics.empty()) {
    out += "metrics:\n";
    for (const auto& [name, value] : metrics) {
      out += StrFormat("  %-44s %.6g\n", name.c_str(), value);
    }
  }
  return out;
}

std::string StatsSnapshot::ToPrometheus() const {
  std::string out;
  // The first rendering of a name wins, so each family is typed once: the
  // endpoint error counters stay counters, and their flattened copies in
  // `metrics` (which the wire carries without a kind) are skipped.
  std::set<std::string> seen;
  const auto family = [&](const std::string& name, const char* type,
                          double value) {
    const std::string p = obs::PrometheusName(name);
    if (!seen.insert(p).second) return;
    out += StrFormat("# TYPE %s %s\n%s %.17g\n", p.c_str(), type, p.c_str(),
                     value);
  };
  family("serve/uptime_seconds", "gauge", uptime_seconds);
  family("serve/corpus_size", "gauge", static_cast<double>(corpus_size));
  for (const EndpointSnapshot& e : endpoints) {
    const std::string base = "serve/" + e.name;
    family(base + "/requests", "counter", static_cast<double>(e.requests));
    family(base + "/errors", "counter", static_cast<double>(e.errors));
  }
  // The flattened registry metrics as gauges; the full-resolution histogram
  // buckets are available server-side via RenderPrometheus over the
  // registry, but a remote scrape only sees the snapshot the wire carries.
  for (const auto& [name, value] : metrics) family(name, "gauge", value);
  return out;
}

}  // namespace neutraj::serve
