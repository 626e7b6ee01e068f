#include "obs/trace.h"

#include <string>

#include "obs/flight_recorder.h"
#include "obs/reqtrace.h"

namespace neutraj::obs {

namespace trace_internal {

std::atomic<int> g_trace_level{static_cast<int>(TraceLevel::kOff)};

}  // namespace trace_internal

ConcurrentHistogram& TraceHistogram(const char* name) {
  return MetricsRegistry::Global().GetHistogram("trace/" + std::string(name) +
                                                "_us");
}

void Span::Finish() {
  const double micros =
      std::chrono::duration<double, std::micro>(Clock::now() - start_).count();
  if (hist_ != nullptr) hist_->Record(micros);
  if (trace_ != nullptr) trace_->Record(name_, trace_->MicrosAt(start_), micros);
  if (Tracing()) FlightRecorder::Global().RecordSpan(name_, micros);
  hist_ = nullptr;
  trace_ = nullptr;
}

void SetTraceLevel(TraceLevel level) {
  trace_internal::g_trace_level.store(static_cast<int>(level),
                                      std::memory_order_relaxed);
  MetricsRegistry::Global()
      .GetGauge("obs/trace_level")
      .Set(static_cast<double>(static_cast<int>(level)));
}

TraceLevel trace_level() {
  return static_cast<TraceLevel>(
      trace_internal::g_trace_level.load(std::memory_order_relaxed));
}

}  // namespace neutraj::obs
