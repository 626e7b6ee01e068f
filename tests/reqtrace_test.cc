// Tests for request-scoped tracing (src/obs/reqtrace.{h,cc}): the span
// buffer's lock-free recording and overflow bound, obs::Span feeding its
// histogram and the request tree one duration (down to the store's inline
// compaction), the tracer's sampling gate (client-forced vs 1-in-N vs
// off), the finished ring + Dump ordering, the slow-query JSONL golden
// line, tail-latency attribution gauges, and the Chrome trace_event
// renderer.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/embedding_db.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "obs/trace.h"
#include "store/durable_store.h"

namespace neutraj::obs {
namespace {

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// -- CompactThreadId ---------------------------------------------------------

TEST(CompactThreadIdTest, StablePerThreadAndDistinctAcrossThreads) {
  const uint32_t here = CompactThreadId();
  EXPECT_GT(here, 0u);  // 0 is reserved for the request-level slice.
  EXPECT_EQ(CompactThreadId(), here);

  uint32_t other = 0;
  std::thread t([&] { other = CompactThreadId(); });
  t.join();
  EXPECT_NE(other, here);
  EXPECT_GT(other, 0u);
}

// -- RequestTrace / Span -----------------------------------------------------

TEST(RequestTraceTest, RecordStoresSpansAndOverflowCountsAsDropped) {
  MetricsRegistry reg;
  RequestTracer tracer(&reg);
  auto live = std::make_shared<RequestTrace>(TraceContext{0x1234, true}, "topk");
  for (size_t i = 0; i < RequestTrace::kMaxSpans + 5; ++i) {
    live->Record("scan", static_cast<double>(i), 1.0);
  }
  tracer.Finish(live);
  const std::vector<FinishedTrace> dump = tracer.Dump();
  ASSERT_EQ(dump.size(), 1u);
  EXPECT_EQ(dump[0].spans.size(), RequestTrace::kMaxSpans);
  EXPECT_EQ(dump[0].spans_dropped, 5u);
  EXPECT_EQ(dump[0].trace_id, 0x1234u);
  EXPECT_EQ(dump[0].endpoint, "topk");
  EXPECT_EQ(reg.GetCounter("reqtrace/spans_dropped").Value(), 5u);
}

TEST(RequestTraceTest, ConcurrentRecordClaimsDistinctSlots) {
  // The lock-free contract TSan exercises: N threads recording into one
  // trace must each land a distinct slot, with exact total accounting.
  auto trace = std::make_shared<RequestTrace>(TraceContext{7, true}, "encode");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4;  // 32 total < kMaxSpans: nothing dropped.
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        trace->Record("encode", t * 100.0 + i, 1.0);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  MetricsRegistry reg;
  RequestTracer tracer(&reg);
  tracer.Finish(trace);
  const std::vector<FinishedTrace> dump = tracer.Dump();
  ASSERT_EQ(dump.size(), 1u);
  ASSERT_EQ(dump[0].spans.size(), size_t{kThreads} * kPerThread);
  std::set<double> starts;
  for (const FinishedSpan& s : dump[0].spans) starts.insert(s.start_us);
  EXPECT_EQ(starts.size(), size_t{kThreads} * kPerThread);  // No slot lost.
}

/// The one span of a single-span trace, after RequestTracer::Finish.
FinishedSpan OnlySpan(const std::shared_ptr<RequestTrace>& trace) {
  MetricsRegistry reg;
  RequestTracer tracer(&reg);
  tracer.Finish(trace);
  const std::vector<FinishedTrace> dump = tracer.Dump();
  EXPECT_EQ(dump.size(), 1u);
  EXPECT_EQ(dump.at(0).spans.size(), 1u);
  return dump.at(0).spans.at(0);
}

TEST(SpanTest, NullSinksAreInertAndStopIsIdempotent) {
  {
    Span inert("scan", nullptr, nullptr);  // Must not crash or record.
    inert.Stop();
  }
  MetricsRegistry reg;
  ConcurrentHistogram& hist = reg.GetHistogram("test/probe_us");
  auto trace = std::make_shared<RequestTrace>(TraceContext{9, true}, "topk");
  {
    Span span("probe", &hist, trace.get());
    span.Stop();
    span.Stop();  // Second stop must not double-record.
  }                // Destructor after Stop() must not record either.
  EXPECT_EQ(hist.count(), 1u);
  const FinishedSpan probe = OnlySpan(trace);
  EXPECT_EQ(probe.stage, "probe");
  EXPECT_GE(probe.dur_us, 0.0);
}

TEST(SpanTest, FeedsItsHistogramAndTheRequestTreeOneDuration) {
  MetricsRegistry reg;
  ConcurrentHistogram& hist = reg.GetHistogram("test/rerank_us");
  auto trace = std::make_shared<RequestTrace>(TraceContext{11, true}, "topk");
  {
    Span span("rerank", &hist, trace.get());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const FinishedSpan rerank = OnlySpan(trace);
  EXPECT_EQ(rerank.stage, "rerank");
  EXPECT_GE(rerank.dur_us, 200.0);
  const LatencyHistogram snap = hist.Snapshot();
  ASSERT_EQ(snap.count(), 1u);
  EXPECT_EQ(snap.sum_micros(), rerank.dur_us);  // Exact: one measurement.
}

TEST(SpanTest, OnlySpansRecordedWhileTracingReachTheFlightRecorder) {
  FlightRecorder& rec = FlightRecorder::Global();
  rec.Clear();
  MetricsRegistry reg;
  ConcurrentHistogram& hist = reg.GetHistogram("test/wal_us");
  auto trace = std::make_shared<RequestTrace>(TraceContext{12, true}, "insert");
  SetTraceLevel(TraceLevel::kOff);
  { Span span("wal", &hist, trace.get()); }
  EXPECT_EQ(rec.total_recorded(), 0u);  // Off: the recorder is not touched.
  SetTraceLevel(TraceLevel::kCoarse);
  { Span span("wal", &hist, nullptr); }
  SetTraceLevel(TraceLevel::kOff);
  const std::vector<FlightEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "wal");
  EXPECT_EQ(hist.count(), 2u);
  rec.Clear();
}

TEST(SpanTest, TracedCompactionIsOneSpanForStageAndHistogram) {
  // The compaction an insert triggers is timed once: its "compact" stage
  // and its store/compact_us sample are the same measurement.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "neutraj_reqtrace_compact")
          .string();
  std::filesystem::remove_all(dir);
  EmbeddingDatabase db;
  store::DurableStore store(&db, {.data_dir = dir, .compact_every = 1});
  store.Open();
  MetricsRegistry reg;
  store.AttachMetrics(&reg);
  auto trace = std::make_shared<RequestTrace>(TraceContext{13, true}, "insert");
  store.Insert(nn::Vector{1.0, 2.0, 3.0}, trace.get());
  RequestTracer tracer(&reg);
  tracer.Finish(trace);
  const std::vector<FinishedTrace> dump = tracer.Dump();
  ASSERT_EQ(dump.size(), 1u);
  const FinishedSpan* compact = nullptr;
  for (const FinishedSpan& s : dump[0].spans) {
    if (s.stage == "compact") compact = &s;
  }
  ASSERT_NE(compact, nullptr);
  const LatencyHistogram snap = reg.GetHistogram("store/compact_us").Snapshot();
  ASSERT_EQ(snap.count(), 1u);
  EXPECT_EQ(snap.sum_micros(), compact->dur_us);
  std::filesystem::remove_all(dir);
}

// -- Sampling gate -----------------------------------------------------------

TEST(RequestTracerTest, TracingOffReturnsNullForContextlessRequests) {
  MetricsRegistry reg;
  RequestTracer tracer(&reg);  // Default options: sample_every = 0.
  EXPECT_EQ(tracer.Begin(TraceContext{}, "topk"), nullptr);
}

TEST(RequestTracerTest, ClientForcedContextIsAlwaysTraced) {
  MetricsRegistry reg;
  RequestTracer tracer(&reg);  // Sampling off…
  const auto trace = tracer.Begin(TraceContext{0xabcdef, true}, "encode");
  ASSERT_NE(trace, nullptr);  // …but a client-forced context still traces,
  EXPECT_EQ(trace->context().trace_id, 0xabcdefu);  // under the client's id.
  EXPECT_TRUE(trace->context().sampled);

  // An explicitly unsampled context is "propagate, don't record".
  EXPECT_EQ(tracer.Begin(TraceContext{0xabcdef, false}, "encode"), nullptr);
}

TEST(RequestTracerTest, OneInNSamplingTracesExactlyOnePerWindow) {
  MetricsRegistry reg;
  RequestTracer tracer(&reg);
  ReqTraceOptions opts;
  opts.sample_every = 8;
  tracer.Configure(opts);
  size_t sampled = 0;
  std::set<uint64_t> ids;
  for (int i = 0; i < 64; ++i) {
    const auto t = tracer.Begin(TraceContext{}, "topk");
    if (t != nullptr) {
      ++sampled;
      ids.insert(t->context().trace_id);
      EXPECT_TRUE(t->context().sampled);
      EXPECT_NE(t->context().trace_id, 0u);  // 0 is the wire sentinel.
    }
  }
  EXPECT_EQ(sampled, 8u);          // Exactly 1 in 8.
  EXPECT_EQ(ids.size(), sampled);  // Server-generated ids are distinct.
}

// -- Finish / ring / Dump ----------------------------------------------------

TEST(RequestTracerTest, RingEvictsOldestAndDumpReturnsOldestFirst) {
  MetricsRegistry reg;
  RequestTracer tracer(&reg);
  ReqTraceOptions opts;
  opts.ring_capacity = 3;
  tracer.Configure(opts);
  for (uint64_t id = 1; id <= 5; ++id) {
    auto t = std::make_shared<RequestTrace>(TraceContext{id, true}, "topk");
    tracer.Finish(t);
  }
  const std::vector<FinishedTrace> all = tracer.Dump();
  ASSERT_EQ(all.size(), 3u);  // 1 and 2 evicted.
  EXPECT_EQ(all[0].trace_id, 3u);
  EXPECT_EQ(all[1].trace_id, 4u);
  EXPECT_EQ(all[2].trace_id, 5u);
  const std::vector<FinishedTrace> last2 = tracer.Dump(2);
  ASSERT_EQ(last2.size(), 2u);  // Most recent two, still oldest first.
  EXPECT_EQ(last2[0].trace_id, 4u);
  EXPECT_EQ(last2[1].trace_id, 5u);

  EXPECT_EQ(reg.GetCounter("reqtrace/traces").Value(), 5u);
  EXPECT_EQ(reg.GetHistogram("reqtrace/total_us").count(), 5u);
}

TEST(RequestTracerTest, FinishIsNullSafe) {
  MetricsRegistry reg;
  RequestTracer tracer(&reg);
  tracer.Finish(nullptr);  // The unsampled path calls this on every request.
  EXPECT_EQ(reg.GetCounter("reqtrace/traces").Value(), 0u);
}

TEST(RequestTracerTest, PerStageHistogramsRollUpDurations) {
  MetricsRegistry reg;
  RequestTracer tracer(&reg);
  auto t = std::make_shared<RequestTrace>(TraceContext{5, true}, "topk");
  t->Record("probe", 0.0, 100.0);
  t->Record("rerank", 100.0, 50.0);
  t->Record("probe", 150.0, 20.0);
  tracer.Finish(t);
  EXPECT_EQ(reg.GetHistogram("reqtrace/stage/probe_us").count(), 2u);
  EXPECT_DOUBLE_EQ(reg.GetHistogram("reqtrace/stage/probe_us")
                       .Snapshot().sum_micros(), 120.0);
  EXPECT_EQ(reg.GetHistogram("reqtrace/stage/rerank_us").count(), 1u);
}

// -- Slow-query log ----------------------------------------------------------

TEST(RequestTracerTest, SlowQueryLogWritesGoldenJsonlLine) {
  const std::string path = ::testing::TempDir() + "/reqtrace_slow.jsonl";
  MetricsRegistry reg;
  RequestTracer tracer(&reg);
  ReqTraceOptions opts;
  opts.slow_log_path = path;
  opts.slow_threshold_us = 1000.0;
  tracer.Configure(opts);

  // Under threshold: no line.
  auto fast = std::make_shared<RequestTrace>(TraceContext{1, true}, "encode");
  fast->OverrideTotalForTest(999.0);
  tracer.Finish(fast);
  EXPECT_TRUE(ReadLines(path).empty());

  // Over threshold: one schema-stable line with every pipeline stage keyed,
  // skipped stages zero, and out-of-schema stages summed into other_us.
  auto slow = std::make_shared<RequestTrace>(
      TraceContext{0x00000000deadbeef, true}, "topk");
  slow->Record("queue_wait", 0.0, 100.0);
  slow->Record("encode", 100.0, 400.0);
  slow->Record("probe", 500.0, 800.0);
  slow->Record("rerank", 1300.0, 150.0);
  slow->Record("reply", 1450.0, 25.0);
  slow->Record("shard_scan", 500.0, 75.0);  // Not in the fixed schema.
  slow->OverrideTotalForTest(1500.0);
  tracer.Finish(slow);

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0],
            "{\"endpoint\": \"topk\", \"trace_id\": \"00000000deadbeef\", "
            "\"total_us\": 1500, \"queue_wait_us\": 100, \"encode_us\": 400, "
            "\"scan_us\": 0, \"probe_us\": 800, \"rerank_us\": 150, "
            "\"store_wait_us\": 0, \"wal_us\": 0, \"compact_us\": 0, "
            "\"reply_us\": 25, \"other_us\": 75, "
            "\"spans\": 6}");
  std::remove(path.c_str());
}

TEST(RequestTracerTest, ConfigureThrowsWhenSlowLogCannotBeCreated) {
  MetricsRegistry reg;
  RequestTracer tracer(&reg);
  ReqTraceOptions opts;
  opts.slow_log_path = "/nonexistent-dir/slow.jsonl";
  EXPECT_THROW(tracer.Configure(opts), std::runtime_error);
}

// -- Tail-latency attribution ------------------------------------------------

TEST(RequestTracerTest, TailGaugesAttributeStageShareOfP99Requests) {
  MetricsRegistry reg;
  RequestTracer tracer(&reg);
  // 100 fast requests (100 µs, all "scan") warm the p99 estimate past the
  // 64-sample gate; then one 10 ms request dominated by "rerank" lands in
  // the tail and must own (nearly all of) the tail attribution.
  for (int i = 0; i < 100; ++i) {
    auto t = std::make_shared<RequestTrace>(
        TraceContext{static_cast<uint64_t>(i + 1), true}, "topk");
    t->Record("scan", 0.0, 90.0);
    t->OverrideTotalForTest(100.0);
    tracer.Finish(t);
  }
  auto slow = std::make_shared<RequestTrace>(TraceContext{999, true}, "topk");
  slow->Record("rerank", 0.0, 9000.0);
  slow->Record("reply", 9000.0, 500.0);
  slow->OverrideTotalForTest(10000.0);
  tracer.Finish(slow);

  EXPECT_DOUBLE_EQ(reg.GetGauge("reqtrace/tail/rerank_us").Value(), 9000.0);
  EXPECT_DOUBLE_EQ(reg.GetGauge("reqtrace/tail/reply_us").Value(), 500.0);
  const double rerank_share = reg.GetGauge("reqtrace/p99_share/rerank").Value();
  EXPECT_GT(rerank_share, 0.5);  // Rerank owns the tail.
  EXPECT_LE(rerank_share, 1.0);
  EXPECT_GT(reg.GetGauge("reqtrace/p99_share/reply").Value(), 0.0);
}

// -- Chrome trace rendering --------------------------------------------------

TEST(RenderChromeTraceTest, EmptyInputIsStillAValidDocument) {
  const std::string json = RenderChromeTrace({});
  EXPECT_EQ(json, "{\"traceEvents\": [\n], \"displayTimeUnit\": \"ms\"}\n");
}

TEST(RenderChromeTraceTest, LaysTracesSequentiallyWithStageEvents) {
  FinishedTrace a;
  a.trace_id = 0x10;
  a.endpoint = "topk";
  a.total_us = 500.0;
  a.spans.push_back({"probe", 10.0, 200.0, 3});
  FinishedTrace b;
  b.trace_id = 0x20;
  b.endpoint = "insert";
  b.total_us = 100.0;
  const std::string json = RenderChromeTrace({a, b});

  // Request-level slices on tid 0, stages on their recording thread.
  EXPECT_NE(json.find("\"name\": \"topk\", \"cat\": \"request\", \"ph\": "
                      "\"X\", \"ts\": 0, \"dur\": 500, \"pid\": 1, \"tid\": 0"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\": \"probe\", \"cat\": \"stage\", \"ph\": "
                      "\"X\", \"ts\": 10, \"dur\": 200, \"pid\": 1, "
                      "\"tid\": 3"),
            std::string::npos);
  // The second trace starts after the first's total plus the fixed gap.
  EXPECT_NE(json.find("\"name\": \"insert\", \"cat\": \"request\", \"ph\": "
                      "\"X\", \"ts\": 1500"),
            std::string::npos);
  EXPECT_NE(json.find("\"trace_id\": \"0000000000000010\""),
            std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
}

}  // namespace
}  // namespace neutraj::obs
