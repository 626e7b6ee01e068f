// Request-scoped tracing: per-request span trees across every thread hop.
//
// The aggregate histograms in metrics.h can say that p99 moved; they cannot
// say where any single slow request spent its time. This layer closes that
// gap with explicit context propagation — no thread-locals, because a
// request hops threads at every stage (accept handler → MicroBatcher group
// → ThreadPool workers → retrieval scatter-gather → store WAL → reply
// write) and a thread-local context would silently detach at each hop.
//
// Pieces:
//
//   TraceContext   64-bit trace id + sampled flag. Travels as an OPTIONAL
//                  trailing wire field on request payloads (see
//                  serve/protocol.h) — old payloads still parse — and is
//                  generated server-side when a sampled request arrives
//                  without one. Ids are deterministic (process counter mixed
//                  through splitmix64), per lint rule 1: no wall clocks, no
//                  random_device.
//
//   RequestTrace   One sampled request's bounded lock-free span buffer.
//                  Stages reach it through obs::Span (obs/trace.h), which
//                  passes the trace as its second sink next to the stage's
//                  histogram, so both see one duration; a span given a null
//                  trace (the 1-in-N unsampled majority) pays one pointer
//                  test for it. Intervals that start on one thread and end
//                  on another (queue_wait, reply) call Record() directly.
//                  Record() claims a slot with one atomic increment;
//                  overflow increments a drop counter instead of
//                  reallocating, so recording never takes a lock or
//                  allocates on another subsystem's thread.
//
//   RequestTracer  Owns sampling, the ring of completed trees (served by
//                  the kTraceDump endpoint), the slow-query JSONL log, and
//                  the tail-latency attribution rolled into MetricsRegistry:
//                    reqtrace/total_us            histogram  sampled totals
//                    reqtrace/stage/<stage>_us    histogram  per-stage
//                    reqtrace/traces              counter    trees finished
//                    reqtrace/spans_dropped       counter    buffer overflow
//                    reqtrace/tail/<stage>_us     gauge      µs inside
//                                                            >= p99 requests
//                    reqtrace/p99_share/<stage>   gauge      that stage's
//                                                            share of tail µs
//                  The share gauges are the "why did p99 move" answer: when
//                  rerank_us owns 0.7 of the tail, widening nprobe is what
//                  moved it.
//
//   RenderChromeTrace  Exports finished trees in the Chrome trace_event
//                  JSON format (chrome://tracing, Perfetto); traces are laid
//                  out sequentially on one timeline, spans keep their real
//                  thread ids.
//
// Overhead contract (gated by bench_serving): tracing off — one plain load
// per request; 1-in-64 sampling — ≤2% on the batched serving bench. Tracing
// never touches served bytes: results are computed identically whether or
// not a trace rides along (pinned in serve_server_test).

#ifndef NEUTRAJ_OBS_REQTRACE_H_
#define NEUTRAJ_OBS_REQTRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "obs/metrics.h"

namespace neutraj::obs {

/// The wire-portable request identity: carried on request frames, echoed
/// through every stage of the span tree.
struct TraceContext {
  uint64_t trace_id = 0;  ///< 0 = no context attached.
  bool sampled = false;   ///< Head-based decision; only sampled requests
                          ///< build span trees.

  bool valid() const { return trace_id != 0; }
};

/// Small dense id for the current thread (1, 2, ... in first-use order) —
/// stable for the thread's lifetime, readable in trace viewers, and
/// deterministic enough for tests (no pointer-sized OS handles).
uint32_t CompactThreadId();

/// One recorded stage of a request. Offsets are µs relative to the
/// request's trace start, so a tree is self-contained.
struct FinishedSpan {
  std::string stage;
  double start_us = 0.0;
  double dur_us = 0.0;
  uint32_t tid = 0;
};

/// A completed span tree, as stored in the tracer ring and served by
/// kTraceDump.
struct FinishedTrace {
  uint64_t trace_id = 0;
  std::string endpoint;
  double total_us = 0.0;
  uint64_t spans_dropped = 0;
  std::vector<FinishedSpan> spans;
};

/// One in-flight sampled request's span buffer. Bounded and lock-free:
/// Record() claims a slot with a single atomic increment and writes it
/// without synchronization (slots are claimed exclusively), so batcher
/// workers, pool threads and the WAL writer can all record
/// concurrently. The request's own completion edges (future.get(), pool
/// barrier) order those writes before the tracer reads them in Finish().
class RequestTrace {
 public:
  /// Spans above this per-request cap are counted as dropped, never stored
  /// — a runaway stage cannot grow a request's footprint.
  static constexpr size_t kMaxSpans = 48;

  RequestTrace(const TraceContext& ctx, const char* endpoint)
      : ctx_(ctx), endpoint_(endpoint) {}

  /// Records one completed stage. `stage` must have static storage
  /// duration (the fixed stage-name literals). Thread-safe, lock-free.
  void Record(const char* stage, double start_us, double dur_us) {
    const uint32_t idx = size_.fetch_add(1, std::memory_order_relaxed);
    if (idx >= kMaxSpans) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Slot& s = spans_[idx];
    s.stage = stage;
    s.start_us = start_us;
    s.dur_us = dur_us;
    s.tid = CompactThreadId();
  }

  /// µs from this trace's start to `t` — the time base of every offset.
  double MicrosAt(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - start_).count();
  }

  /// µs since this trace began.
  double ElapsedMicros() const {
    return MicrosAt(std::chrono::steady_clock::now());
  }

  const TraceContext& context() const { return ctx_; }
  const char* endpoint() const { return endpoint_; }

  /// Test hook: pins the total the tracer reports (slow-query golden tests
  /// need a deterministic total). < 0 (the default) = measure.
  void OverrideTotalForTest(double total_us) { total_override_us_ = total_us; }

 private:
  friend class RequestTracer;

  struct Slot {
    const char* stage = nullptr;
    double start_us = 0.0;
    double dur_us = 0.0;
    uint32_t tid = 0;
  };

  TraceContext ctx_;
  const char* endpoint_;
  const std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  std::atomic<uint32_t> size_{0};
  std::atomic<uint64_t> dropped_{0};
  std::array<Slot, kMaxSpans> spans_;
  double total_override_us_ = -1.0;
};

/// Tracing knobs; lives on serve::ServerOptions and is forwarded to the
/// service's tracer before serving.
struct ReqTraceOptions {
  /// Head-based sampling: trace 1 in N contextless requests (the server
  /// generates their ids). 0 = off. A client-supplied sampled TraceContext
  /// (neutraj_client --trace-id) is ALWAYS traced, independent of this.
  uint32_t sample_every = 0;
  /// Completed sampled trees kept for kTraceDump (FIFO eviction).
  size_t ring_capacity = 256;
  /// Slow-query JSONL path; empty = no slow-query log.
  std::string slow_log_path;
  /// A sampled request at least this slow writes one slow-query line.
  double slow_threshold_us = 10000.0;
};

/// Owns the sampling decision and every sink. One per QueryService.
class RequestTracer {
 public:
  /// `registry` must outlive the tracer; rollup metrics register there.
  explicit RequestTracer(MetricsRegistry* registry);
  ~RequestTracer();

  RequestTracer(const RequestTracer&) = delete;
  RequestTracer& operator=(const RequestTracer&) = delete;

  /// Applies knobs (opens/closes the slow-query log). Safe while serving:
  /// Begin reads the sampling rate from an atomic, and everything else is
  /// read under mu_. Throws std::runtime_error when slow_log_path cannot be
  /// created.
  void Configure(const ReqTraceOptions& opts) NEUTRAJ_EXCLUDES(mu_);

  /// The per-request sampling gate. Returns a live trace for a sampled
  /// request (client-forced or 1-in-N head-sampled with a server-generated
  /// id) and nullptr — at the cost of one branch — for everything else.
  std::shared_ptr<RequestTrace> Begin(const TraceContext& client_ctx,
                                      const char* endpoint);

  /// Finalizes one trace: rollup histograms and tail attribution, ring
  /// push, slow-query line when over threshold. Null-safe.
  void Finish(const std::shared_ptr<RequestTrace>& trace)
      NEUTRAJ_EXCLUDES(mu_);

  /// The most recent completed trees, oldest first, at most `max_traces`
  /// (0 = everything retained).
  std::vector<FinishedTrace> Dump(size_t max_traces = 0) const
      NEUTRAJ_EXCLUDES(mu_);

 private:
  MetricsRegistry* registry_;
  ReqTraceOptions opts_ NEUTRAJ_GUARDED_BY(mu_);
  std::atomic<uint32_t> sample_every_{0};  ///< opts_.sample_every for Begin.
  std::atomic<uint64_t> sample_seq_{0};    ///< Head-sampling counter.
  std::atomic<uint64_t> id_seq_{0};        ///< Server-generated id source.

  // Resolved once; hammered lock-free on the Finish path.
  ConcurrentHistogram* total_us_hist_;
  Counter* traces_counter_;
  Counter* dropped_counter_;

  /// Guards the ring, the slow-log FILE and the tail accumulators. Only
  /// sampled requests ever take it; may resolve registry metrics (kObs)
  /// while held.
  mutable Mutex mu_{lock_rank::kReqTrace};
  std::deque<FinishedTrace> ring_ NEUTRAJ_GUARDED_BY(mu_);
  std::FILE* slow_log_ NEUTRAJ_GUARDED_BY(mu_) NEUTRAJ_PT_GUARDED_BY(mu_) =
      nullptr;
  /// Tail attribution: cumulative µs spent per stage inside requests whose
  /// total was at or above the running p99 estimate.
  std::map<std::string, double> tail_stage_us_ NEUTRAJ_GUARDED_BY(mu_);
  double tail_total_us_ NEUTRAJ_GUARDED_BY(mu_) = 0.0;
};

/// Renders finished trees as a Chrome trace_event JSON document (open with
/// chrome://tracing or Perfetto). Deterministic for a given input: traces
/// are laid end to end on one timeline with a fixed gap, each request's
/// spans nested under one enclosing request-level slice. Pure function —
/// usable by the client CLI on dumped trees.
std::string RenderChromeTrace(const std::vector<FinishedTrace>& traces);

}  // namespace neutraj::obs

#endif  // NEUTRAJ_OBS_REQTRACE_H_
