#include "obs/reqtrace.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/string_util.h"
#include "obs/jsonl.h"

namespace neutraj::obs {

namespace {

/// Fixed column order of the slow-query log: every stage the serving
/// pipeline emits gets its own key (0 when the request skipped it), so
/// lines are schema-stable and jq/pandas-friendly. Stages outside this
/// list (future subsystems) sum into "other_us".
constexpr const char* kSlowLogStages[] = {
    "queue_wait", "encode", "scan",    "probe", "rerank",
    "store_wait", "wal",    "compact", "reply",
};

/// splitmix64: spreads a dense counter over the id space so trace ids are
/// visually distinct while staying fully deterministic (lint rule 1: no
/// wall clocks or random_device in src/).
uint64_t Splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string TraceIdHex(uint64_t id) {
  return StrFormat("%016llx", static_cast<unsigned long long>(id));
}

/// %.17g, with JSON-illegal non-finite values as null — the same rendering
/// JsonlSink uses, so the two JSONL sinks stay grep-compatible.
std::string JsonNumber(double v) {
  return std::isfinite(v) ? StrFormat("%.17g", v) : std::string("null");
}

}  // namespace

uint32_t CompactThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

RequestTracer::RequestTracer(MetricsRegistry* registry) : registry_(registry) {
  if (registry == nullptr) {
    throw std::invalid_argument("RequestTracer: null MetricsRegistry");
  }
  total_us_hist_ = &registry_->GetHistogram("reqtrace/total_us");
  traces_counter_ = &registry_->GetCounter("reqtrace/traces");
  dropped_counter_ = &registry_->GetCounter("reqtrace/spans_dropped");
}

RequestTracer::~RequestTracer() {
  MutexLock lock(mu_);
  if (slow_log_ != nullptr) std::fclose(slow_log_);
}

void RequestTracer::Configure(const ReqTraceOptions& opts) {
  MutexLock lock(mu_);
  if (slow_log_ != nullptr) {
    std::fclose(slow_log_);
    slow_log_ = nullptr;
  }
  opts_ = opts;
  sample_every_.store(opts_.sample_every, std::memory_order_relaxed);
  if (opts_.ring_capacity == 0) opts_.ring_capacity = 1;
  while (ring_.size() > opts_.ring_capacity) ring_.pop_front();
  if (!opts_.slow_log_path.empty()) {
    slow_log_ = std::fopen(opts_.slow_log_path.c_str(), "w");
    if (slow_log_ == nullptr) {
      throw std::runtime_error("RequestTracer: cannot open slow-query log '" +
                               opts_.slow_log_path + "' for writing");
    }
  }
}

std::shared_ptr<RequestTrace> RequestTracer::Begin(
    const TraceContext& client_ctx, const char* endpoint) {
  TraceContext ctx;
  if (client_ctx.valid()) {
    // A client that attached a context asked for this request specifically;
    // honor it regardless of the server's own sampling rate. An explicitly
    // unsampled context is a deliberate "propagate but don't record".
    if (!client_ctx.sampled) return nullptr;
    ctx = client_ctx;
  } else {
    const uint32_t every = sample_every_.load(std::memory_order_relaxed);
    if (every == 0) return nullptr;  // Tracing off: one load, one branch.
    if (sample_seq_.fetch_add(1, std::memory_order_relaxed) % every != 0) {
      return nullptr;
    }
    uint64_t id = Splitmix64(id_seq_.fetch_add(1, std::memory_order_relaxed));
    if (id == 0) id = 1;  // 0 is the "no context" sentinel on the wire.
    ctx.trace_id = id;
    ctx.sampled = true;
  }
  return std::make_shared<RequestTrace>(ctx, endpoint);
}

void RequestTracer::Finish(const std::shared_ptr<RequestTrace>& trace) {
  if (trace == nullptr) return;
  const double total = trace->total_override_us_ >= 0.0
                           ? trace->total_override_us_
                           : trace->ElapsedMicros();
  total_us_hist_->Record(total);
  traces_counter_->Increment();
  const uint64_t dropped = trace->dropped_.load(std::memory_order_relaxed);
  if (dropped > 0) dropped_counter_->Add(dropped);

  FinishedTrace ft;
  ft.trace_id = trace->ctx_.trace_id;
  ft.endpoint = trace->endpoint_;
  ft.total_us = total;
  ft.spans_dropped = dropped;
  const size_t n = std::min<size_t>(
      trace->size_.load(std::memory_order_relaxed), RequestTrace::kMaxSpans);
  ft.spans.reserve(n);
  std::map<std::string, double> stage_us;
  for (size_t i = 0; i < n; ++i) {
    const RequestTrace::Slot& s = trace->spans_[i];
    ft.spans.push_back(FinishedSpan{s.stage, s.start_us, s.dur_us, s.tid});
    stage_us[s.stage] += s.dur_us;
    registry_->GetHistogram(std::string("reqtrace/stage/") + s.stage + "_us")
        .Record(s.dur_us);
  }

  // Running p99 estimate over the sampled totals themselves. Cheap (28
  // bucket loads) and self-consistent: a request is "tail" when it is at or
  // above the p99 of everything sampled so far. The warm-up gate keeps the
  // first few dozen requests from all classifying as tail while the
  // estimate is still meaningless.
  constexpr uint64_t kTailMinSamples = 64;
  const LatencyHistogram totals = total_us_hist_->Snapshot();
  const bool is_tail = totals.count() >= kTailMinSamples &&
                       total >= totals.PercentileMicros(0.99);

  MutexLock lock(mu_);
  if (is_tail) {
    tail_total_us_ += total;
    for (const auto& [stage, us] : stage_us) tail_stage_us_[stage] += us;
    for (const auto& [stage, us] : tail_stage_us_) {
      registry_->GetGauge("reqtrace/tail/" + stage + "_us").Set(us);
      registry_->GetGauge("reqtrace/p99_share/" + stage)
          .Set(tail_total_us_ > 0.0 ? us / tail_total_us_ : 0.0);
    }
  }
  if (slow_log_ != nullptr && total >= opts_.slow_threshold_us) {
    std::string line = "{\"endpoint\": \"" + JsonEscape(ft.endpoint) +
                       "\", \"trace_id\": \"" + TraceIdHex(ft.trace_id) +
                       "\", \"total_us\": " + JsonNumber(total);
    double accounted = 0.0;
    for (const char* stage : kSlowLogStages) {
      const auto it = stage_us.find(stage);
      const double us = it != stage_us.end() ? it->second : 0.0;
      accounted += us;
      line += std::string(", \"") + stage + "_us\": " + JsonNumber(us);
    }
    double all = 0.0;
    for (const auto& [stage, us] : stage_us) all += us;
    line += ", \"other_us\": " + JsonNumber(all - accounted);
    line += ", \"spans\": " + std::to_string(ft.spans.size()) + "}\n";
    std::fwrite(line.data(), 1, line.size(), slow_log_);
    std::fflush(slow_log_);
  }
  ring_.push_back(std::move(ft));
  while (ring_.size() > opts_.ring_capacity) ring_.pop_front();
}

std::vector<FinishedTrace> RequestTracer::Dump(size_t max_traces) const {
  MutexLock lock(mu_);
  const size_t n = max_traces == 0 ? ring_.size()
                                   : std::min(max_traces, ring_.size());
  return std::vector<FinishedTrace>(ring_.end() - static_cast<long>(n),
                                    ring_.end());
}

std::string RenderChromeTrace(const std::vector<FinishedTrace>& traces) {
  // Traces are sequential requests, not simultaneous ones; lay them end to
  // end with a fixed gap so the viewer shows a readable timeline. The
  // request-level slice uses tid 0 (no real stage ran on "thread 0":
  // CompactThreadId starts at 1), stages keep their recording thread.
  constexpr double kGapUs = 1000.0;
  std::string out = "{\"traceEvents\": [";
  double base = 0.0;
  bool first = true;
  for (const FinishedTrace& t : traces) {
    const std::string id_hex = TraceIdHex(t.trace_id);
    if (!first) out += ",";
    first = false;
    out += "\n  {\"name\": \"" + JsonEscape(t.endpoint) +
           "\", \"cat\": \"request\", \"ph\": \"X\", \"ts\": " +
           JsonNumber(base) + ", \"dur\": " + JsonNumber(t.total_us) +
           ", \"pid\": 1, \"tid\": 0, \"args\": {\"trace_id\": \"" + id_hex +
           "\", \"spans_dropped\": " +
           std::to_string(t.spans_dropped) + "}}";
    for (const FinishedSpan& s : t.spans) {
      out += ",\n  {\"name\": \"" + JsonEscape(s.stage) +
             "\", \"cat\": \"stage\", \"ph\": \"X\", \"ts\": " +
             JsonNumber(base + s.start_us) + ", \"dur\": " +
             JsonNumber(s.dur_us) + ", \"pid\": 1, \"tid\": " +
             std::to_string(s.tid) + ", \"args\": {\"trace_id\": \"" +
             id_hex + "\"}}";
    }
    base += t.total_us + kGapUs;
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

}  // namespace neutraj::obs
