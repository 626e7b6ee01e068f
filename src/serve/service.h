// The query service: request dispatch over a model + live corpus.
//
// QueryService is the socket-independent heart of src/serve/: it owns the
// trained model, the live EmbeddingDatabase, the MicroBatcher, and the
// ServerStats, and maps one request frame to one response frame. The
// Server (server.h) feeds it frames read from sockets; tests feed it
// frames directly — the protocol semantics are fully exercisable without
// ever opening a socket.
//
// Locking discipline: encoding runs in the batcher with no corpus lock
// held; EmbeddingDatabase takes its reader lock inside TopK and its writer
// lock inside Insert. Handle() itself holds no lock across an encode, so
// inserts never stall queries for the duration of an embedding.

#ifndef NEUTRAJ_SERVE_SERVICE_H_
#define NEUTRAJ_SERVE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <optional>

#include "common/framing.h"
#include "common/stopwatch.h"
#include "core/embedding_db.h"
#include "core/model.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "retrieval/backend.h"
#include "serve/micro_batcher.h"
#include "serve/protocol.h"
#include "serve/stats.h"
#include "store/durable_store.h"

namespace neutraj::serve {

/// Dispatches decoded request frames against a model + live corpus.
class QueryService {
 public:
  /// Both references must outlive the service. `db` may start empty and be
  /// populated purely through Insert requests.
  ///
  /// `store` (optional, must outlive the service, already Open()ed, and
  /// wrapping the same `db`) makes Insert durable: the WAL record is
  /// fsync'd before the reply is sent, and a store that has degraded to
  /// read-only turns Insert into a typed kDegraded error while every query
  /// endpoint keeps serving.
  QueryService(const NeuTrajModel& model, EmbeddingDatabase* db,
               const MicroBatcher::Options& batch_opts,
               store::DurableStore* store = nullptr);

  /// Maps one request frame to its response frame. Never throws: parse
  /// failures, unknown types, and handler exceptions all become kError
  /// replies. Thread-safe — called concurrently from connection handlers.
  ///
  /// When this request is sampled for tracing, `trace_out` (if non-null)
  /// receives the live trace so the transport can record the "reply" span
  /// around the socket write and then call tracer().Finish(). With a null
  /// `trace_out` (tests, socketless callers) the service finishes the trace
  /// itself — no reply span, everything else identical.
  WireFrame Handle(const WireFrame& request,
                   std::shared_ptr<obs::RequestTrace>* trace_out = nullptr);

  /// Convenience for frame-level failures discovered by the transport:
  /// builds the kError reply matching a FrameStatus.
  static WireFrame FrameErrorReply(FrameStatus status);

  /// A group of Encode requests dispatched to the micro-batcher whose
  /// replies have not been produced yet. Move-only.
  struct PendingEncodes {
    std::future<MicroBatcher::BatchResult> fut;
    Stopwatch sw;  ///< Started at dispatch; FinishEncodes records latency.
    size_t count = 0;
    /// Parallel to the group (nullptr = unsampled). Keeps the traces alive
    /// while batcher workers record into them; the transport moves these
    /// out before FinishEncodes to add reply spans and finish them.
    std::vector<std::shared_ptr<obs::RequestTrace>> traces;
  };

  /// Pipelining fast path, step 1: if `request` is a well-formed Encode
  /// request and the service is accepting work, appends its trajectory to
  /// *group and returns true. Returns false for every other frame (and
  /// for malformed/draining cases, where Handle() produces the precise
  /// error reply). `traces` (if non-null) gets one entry per collected
  /// item — the sampling decision for that request, nullptr when unsampled
  /// — so it stays index-aligned with *group.
  bool CollectEncode(
      const WireFrame& request, std::vector<Trajectory>* group,
      std::vector<std::shared_ptr<obs::RequestTrace>>* traces = nullptr);

  /// Step 2: dispatches a collected group to the batcher as one unit —
  /// one future for the whole burst, so a pipelined connection fills a
  /// batch by itself at per-group (not per-request) synchronization cost.
  /// Returns nullopt for an empty group. `traces` must be empty or
  /// index-aligned with `group` (CollectEncode's output).
  std::optional<PendingEncodes> BeginEncodes(
      std::vector<Trajectory> group,
      std::vector<std::shared_ptr<obs::RequestTrace>> traces = {});

  /// Step 3: waits for a dispatched group and builds one reply frame per
  /// item, in submission order (kError on per-item failure). Never
  /// throws; records Encode endpoint stats per item.
  std::vector<WireFrame> FinishEncodes(PendingEncodes pending);

  /// While draining, every request except Health and Stats is refused with
  /// kShuttingDown so in-flight connections wind down crisply.
  void SetDraining(bool draining) { draining_.store(draining); }
  bool draining() const { return draining_.load(); }

  /// Routes TopK through `backend` (must outlive the service; typically a
  /// retrieval::IvfBackend already Build()t over this service's database).
  /// Inserts keep landing in the database/store first and are then mirrored
  /// to the backend via NotifyInsert, so the backend stays a view of the
  /// durable corpus. The backend's metrics re-register into this service's
  /// registry. nullptr restores the default: the service's own
  /// ExactBackend, the full scan of its database.
  /// Not thread-safe against in-flight requests — call before serving.
  void set_retrieval_backend(retrieval::RetrievalBackend* backend) {
    backend_ = backend != nullptr ? backend : &exact_backend_;
    backend_->AttachMetrics(&registry_);
  }
  /// The backend answering TopK; never null.
  retrieval::RetrievalBackend* retrieval_backend() { return backend_; }

  /// Applies tracing knobs (sampling rate, ring size, slow-query log) to
  /// this service's tracer. Not thread-safe against in-flight requests —
  /// call before serving.
  void ConfigureTracing(const obs::ReqTraceOptions& opts) {
    tracer_.Configure(opts);
  }
  obs::RequestTracer& tracer() { return tracer_; }

  /// Endpoint counters plus corpus/batcher gauges and the flattened
  /// registry metrics, ready to serialize.
  StatsSnapshot Snapshot() const;

  const NeuTrajModel& model() const { return model_; }
  EmbeddingDatabase& db() { return *db_; }
  MicroBatcher& batcher() { return batcher_; }
  obs::MetricsRegistry& registry() { return registry_; }
  store::DurableStore* durable_store() { return store_; }

 private:
  WireFrame Dispatch(const WireFrame& request, Endpoint* endpoint,
                     std::shared_ptr<obs::RequestTrace>* trace);

  const NeuTrajModel& model_;
  EmbeddingDatabase* db_;
  store::DurableStore* store_;  ///< Nullable: no durability configured.
  /// The default backend: the exact scan over db_, shared with up to
  /// batch_opts.threads - 1 helper threads of its own.
  retrieval::ExactBackend exact_backend_;
  /// Answers every TopK; exact_backend_ unless set_retrieval_backend
  /// installed another.
  retrieval::RetrievalBackend* backend_ = &exact_backend_;
  /// Per-service registry (declared before the members that register into
  /// it): two services in one process — routine in tests — never share
  /// counters, and a stats snapshot covers exactly this server's traffic.
  obs::MetricsRegistry registry_;
  /// Request tracing (sampling gate, trace ring, slow-query log). Declared
  /// after registry_ — its rollup metrics register there.
  obs::RequestTracer tracer_{&registry_};
  MicroBatcher batcher_;
  ServerStats stats_;
  std::atomic<bool> draining_{false};
};

}  // namespace neutraj::serve

#endif  // NEUTRAJ_SERVE_SERVICE_H_
