// obs::Span: the one RAII timer behind every measured interval, from the
// training epoch down to one request's WAL append.
//
//   obs::Span span("probe", probe_us_, trace);  // starts now
//   ...
//   span.Stop();  // or at scope exit; idempotent
//
// A span has two sinks, each nullable:
//   - a ConcurrentHistogram, which gets the duration in µs (the aggregate
//     view: `retrieval/probe_us`, `store/compact_us`, ...);
//   - a RequestTrace, which gets (name, start offset, duration) in the
//     request's span tree when the request is sampled. The name is then the
//     tree's stage name and must be listed in kSlowLogStages
//     (obs/reqtrace.cc; tools/lint.sh rule 9 checks it).
// Both sinks get the same duration, from the same two clock reads. With both
// sinks null the span is inert: one test and no clock read, which is all an
// unsampled request pays for its stage spans.
//
// Trace level. The process-wide level (SetTraceLevel, mirrored in the
// `obs/trace_level` gauge) gates the spans that exist only for profiling
// the training and encode paths. Traced() hands such a span its
// `trace/<name>_us` histogram only while the level is kCoarse, so with
// tracing off (the default, and the only level neutraj_server runs at) the
// span costs one relaxed load:
//
//   static obs::ConcurrentHistogram& encode_us = obs::TraceHistogram("nn/encode");
//   obs::Span span("nn/encode", obs::Traced(encode_us), nullptr);
//
// While the level is on, every span that records also lands in the flight
// recorder, so a crash dump shows the last intervals the process timed.
// While it is off, no span touches the recorder's mutex.
//
// Span names must have static storage duration (string literals): the
// request tree and the flight recorder keep the pointer.

#ifndef NEUTRAJ_OBS_TRACE_H_
#define NEUTRAJ_OBS_TRACE_H_

#include <atomic>
#include <chrono>

#include "obs/metrics.h"

namespace neutraj::obs {

class RequestTrace;

enum class TraceLevel : int {
  kOff = 0,     ///< Traced() spans are inert.
  kCoarse = 1,  ///< Traced() spans record per call / per epoch.
};

void SetTraceLevel(TraceLevel level);
TraceLevel trace_level();

namespace trace_internal {
extern std::atomic<int> g_trace_level;
}  // namespace trace_internal

/// True while the trace level is above kOff: one relaxed load.
inline bool Tracing() {
  return trace_internal::g_trace_level.load(std::memory_order_relaxed) !=
         static_cast<int>(TraceLevel::kOff);
}

/// The global registry's `trace/<name>_us` histogram. Resolve it once per
/// call site (a function-local static) and pass it through Traced().
ConcurrentHistogram& TraceHistogram(const char* name);

/// `&hist` while tracing, else null: a span given this records only while
/// the trace level is on.
inline ConcurrentHistogram* Traced(ConcurrentHistogram& hist) {
  return Tracing() ? &hist : nullptr;
}

/// Times the interval from construction to Stop() (or destruction) into
/// its histogram and its request trace, either of which may be null.
class Span {
 public:
  Span(const char* name, ConcurrentHistogram* hist, RequestTrace* trace)
      : name_(name), hist_(hist), trace_(trace) {
    if (hist_ != nullptr || trace_ != nullptr) start_ = Clock::now();
  }
  ~Span() { Stop(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span now. Later calls, and the destructor, record nothing.
  void Stop() {
    if (hist_ != nullptr || trace_ != nullptr) Finish();
  }

 private:
  using Clock = std::chrono::steady_clock;

  void Finish();  // Out of line: records into every sink, then clears them.

  const char* name_;
  ConcurrentHistogram* hist_;
  RequestTrace* trace_;
  Clock::time_point start_;
};

}  // namespace neutraj::obs

#endif  // NEUTRAJ_OBS_TRACE_H_
