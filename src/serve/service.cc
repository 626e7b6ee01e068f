#include "serve/service.h"

#include <cmath>
#include <exception>
#include <future>
#include <stdexcept>
#include <utility>

#include "core/similarity.h"

namespace neutraj::serve {

namespace {

WireFrame ErrorFrame(ErrorCode code, const std::string& message) {
  WireFrame f;
  f.type = static_cast<uint16_t>(MsgType::kError);
  f.payload = SerializeError({code, message});
  return f;
}

WireFrame Reply(MsgType type, std::string payload) {
  WireFrame f;
  f.type = static_cast<uint16_t>(type);
  f.payload = std::move(payload);
  return f;
}

/// Index of the first point with a NaN or infinite coordinate; t.size()
/// when there is none.
size_t FirstNonFinite(const Trajectory& t) {
  for (size_t i = 0; i < t.size(); ++i) {
    if (!std::isfinite(t[i].x) || !std::isfinite(t[i].y)) return i;
  }
  return t.size();
}

/// Shared request validation: the encoder rejects empty trajectories, but
/// the service refuses them up front with a precise message instead of an
/// internal error. A NaN or infinite coordinate is refused too: it encodes
/// to a non-finite embedding, which as a query scores NaN against every
/// row and as an insert puts a row into the corpus (and WAL) that no exact
/// scan can order.
void CheckTrajectory(const Trajectory& t, const char* what) {
  if (t.empty()) {
    throw std::invalid_argument(std::string(what) + " is empty");
  }
  if (const size_t i = FirstNonFinite(t); i != t.size()) {
    throw std::invalid_argument(std::string(what) +
                                " has a non-finite coordinate at point " +
                                std::to_string(i));
  }
}

/// A finite trajectory can still encode to a non-finite embedding. The
/// encoder refuses a point that normalizes to infinity (a coordinate near
/// the double maximum on a region narrower than one unit), but a finite,
/// huge normalized input can still overflow the cell to NaN. Such a vector
/// must reach neither a scan nor the corpus, for the same reason as a
/// non-finite coordinate.
void CheckEmbedding(const nn::Vector& e, const char* what) {
  for (const double v : e) {
    if (!std::isfinite(v)) {
      throw std::invalid_argument(std::string(what) +
                                  " encodes to a non-finite embedding");
    }
  }
}

/// The batcher must register into the service's own registry, whatever the
/// caller put (or left unset) in the options.
MicroBatcher::Options WithRegistry(MicroBatcher::Options opts,
                                   obs::MetricsRegistry* registry) {
  opts.registry = registry;
  return opts;
}

}  // namespace

QueryService::QueryService(const NeuTrajModel& model, EmbeddingDatabase* db,
                           const MicroBatcher::Options& batch_opts,
                           store::DurableStore* store)
    : model_(model),
      db_(db),
      store_(store),
      exact_backend_(db, batch_opts.threads),
      batcher_(model, WithRegistry(batch_opts, &registry_)),
      stats_(&registry_) {
  if (db == nullptr) {
    throw std::invalid_argument("QueryService: null EmbeddingDatabase");
  }
  // Route the live corpus's build/insert/TopK timings into this service's
  // registry so kStatsRequest ships them alongside the endpoint latencies.
  db_->AttachMetrics(&registry_);
  // Likewise the WAL/snapshot/recovery counters when durability is on.
  if (store_ != nullptr) store_->AttachMetrics(&registry_);
}

WireFrame QueryService::FrameErrorReply(FrameStatus status) {
  const ErrorCode code = status == FrameStatus::kOversized
                             ? ErrorCode::kOversizedFrame
                             : ErrorCode::kMalformedFrame;
  return ErrorFrame(code, std::string("frame error: ") + FrameStatusName(status));
}

bool QueryService::CollectEncode(
    const WireFrame& request, std::vector<Trajectory>* group,
    std::vector<std::shared_ptr<obs::RequestTrace>>* traces) {
  if (static_cast<MsgType>(request.type) != MsgType::kEncodeRequest ||
      draining_.load()) {
    return false;
  }
  EncodeRequest req;
  if (!ParseEncodeRequest(request.payload, &req) || req.traj.empty() ||
      FirstNonFinite(req.traj) != req.traj.size()) {
    return false;  // Handle() will build the precise error reply.
  }
  group->push_back(std::move(req.traj));
  if (traces != nullptr) {
    traces->push_back(
        tracer_.Begin(req.trace, EndpointName(Endpoint::kEncode)));
  }
  return true;
}

std::optional<QueryService::PendingEncodes> QueryService::BeginEncodes(
    std::vector<Trajectory> group,
    std::vector<std::shared_ptr<obs::RequestTrace>> traces) {
  if (group.empty()) return std::nullopt;
  PendingEncodes pending;
  pending.count = group.size();
  traces.resize(pending.count);
  std::vector<obs::RequestTrace*> raw;
  raw.reserve(pending.count);
  for (const auto& t : traces) raw.push_back(t.get());
  pending.traces = std::move(traces);
  pending.fut = batcher_.SubmitBatch(std::move(group), std::move(raw));
  return pending;
}

std::vector<WireFrame> QueryService::FinishEncodes(PendingEncodes pending) {
  std::vector<WireFrame> replies;
  replies.reserve(pending.count);
  MicroBatcher::BatchResult result;
  std::string group_error;
  try {
    result = pending.fut.get();
  } catch (const std::exception& e) {
    group_error = e.what();  // Unreachable in practice; fail every slot.
  }
  const double micros = pending.sw.ElapsedMillis() * 1e3;
  for (size_t i = 0; i < pending.count; ++i) {
    if (!group_error.empty()) {
      replies.push_back(ErrorFrame(ErrorCode::kInternal, group_error));
    } else if (!result.errors[i].empty()) {
      replies.push_back(ErrorFrame(result.bad_input[i] != 0
                                       ? ErrorCode::kBadRequest
                                       : ErrorCode::kInternal,
                                   result.errors[i]));
    } else {
      EncodeResponse resp;
      resp.embedding = std::move(result.embeddings[i]);
      replies.push_back(
          Reply(MsgType::kEncodeResponse, SerializeEncodeResponse(resp)));
    }
    stats_.Record(Endpoint::kEncode, micros,
                  replies.back().type == static_cast<uint16_t>(MsgType::kError));
  }
  return replies;
}

StatsSnapshot QueryService::Snapshot() const {
  StatsSnapshot snap = stats_.Snapshot(registry_.Snapshot());
  snap.corpus_size = db_->size();
  snap.dim = static_cast<uint32_t>(db_->dim());
  return snap;
}

WireFrame QueryService::Handle(const WireFrame& request,
                               std::shared_ptr<obs::RequestTrace>* trace_out) {
  Stopwatch sw;
  Endpoint endpoint = Endpoint::kCount;
  std::shared_ptr<obs::RequestTrace> trace;
  WireFrame reply;
  try {
    reply = Dispatch(request, &endpoint, &trace);
  } catch (const std::invalid_argument& e) {
    reply = ErrorFrame(ErrorCode::kBadRequest, e.what());
  } catch (const std::exception& e) {
    reply = ErrorFrame(ErrorCode::kInternal, e.what());
  }
  if (endpoint != Endpoint::kCount) {
    const bool is_error =
        reply.type == static_cast<uint16_t>(MsgType::kError);
    stats_.Record(endpoint, sw.ElapsedMillis() * 1e3, is_error);
  }
  if (trace_out != nullptr) {
    *trace_out = std::move(trace);  // Transport adds the reply span.
  } else {
    tracer_.Finish(trace);  // Socketless caller: finalize without one.
  }
  return reply;
}

WireFrame QueryService::Dispatch(const WireFrame& request, Endpoint* endpoint,
                                 std::shared_ptr<obs::RequestTrace>* trace) {
  const auto type = static_cast<MsgType>(request.type);
  switch (type) {
    case MsgType::kHealthRequest: {
      *endpoint = Endpoint::kHealth;
      HealthResponse resp;
      resp.ok = true;
      resp.corpus_size = db_->size();
      resp.dim = static_cast<uint32_t>(db_->dim());
      resp.status = draining_.load() ? "draining"
                    : store_ != nullptr && store_->read_only()
                        ? "degraded"
                        : "serving";
      return Reply(MsgType::kHealthResponse, SerializeHealthResponse(resp));
    }

    case MsgType::kStatsRequest: {
      *endpoint = Endpoint::kStats;
      StatsResponse resp;
      resp.stats = Snapshot();
      return Reply(MsgType::kStatsResponse, SerializeStatsResponse(resp));
    }

    case MsgType::kEncodeRequest: {
      *endpoint = Endpoint::kEncode;
      if (draining_.load()) {
        return ErrorFrame(ErrorCode::kShuttingDown, "server is draining");
      }
      EncodeRequest req;
      if (!ParseEncodeRequest(request.payload, &req)) {
        return ErrorFrame(ErrorCode::kBadRequest, "malformed encode request");
      }
      *trace = tracer_.Begin(req.trace, EndpointName(*endpoint));
      CheckTrajectory(req.traj, "trajectory");
      EncodeResponse resp;
      resp.embedding = batcher_.Encode(req.traj, trace->get());
      return Reply(MsgType::kEncodeResponse, SerializeEncodeResponse(resp));
    }

    case MsgType::kPairSimRequest: {
      *endpoint = Endpoint::kPairSim;
      if (draining_.load()) {
        return ErrorFrame(ErrorCode::kShuttingDown, "server is draining");
      }
      PairSimRequest req;
      if (!ParsePairSimRequest(request.payload, &req)) {
        return ErrorFrame(ErrorCode::kBadRequest, "malformed pairsim request");
      }
      *trace = tracer_.Begin(req.trace, EndpointName(*endpoint));
      CheckTrajectory(req.a, "trajectory a");
      CheckTrajectory(req.b, "trajectory b");
      // One two-item group: both trajectories share a batch and one
      // future. Both items record into the one request trace (two encode
      // spans, possibly two threads).
      std::vector<Trajectory> pair;
      pair.reserve(2);
      pair.push_back(std::move(req.a));
      pair.push_back(std::move(req.b));
      MicroBatcher::BatchResult r =
          batcher_
              .SubmitBatch(std::move(pair), {trace->get(), trace->get()})
              .get();
      for (size_t i = 0; i < 2; ++i) {
        if (r.errors[i].empty()) continue;
        if (r.bad_input[i] != 0) throw std::invalid_argument(r.errors[i]);
        throw std::runtime_error(r.errors[i]);
      }
      PairSimResponse resp;
      resp.distance = EmbeddingDistance(r.embeddings[0], r.embeddings[1]);
      resp.similarity = EmbeddingSimilarity(r.embeddings[0], r.embeddings[1]);
      return Reply(MsgType::kPairSimResponse, SerializePairSimResponse(resp));
    }

    case MsgType::kTopKRequest: {
      *endpoint = Endpoint::kTopK;
      if (draining_.load()) {
        return ErrorFrame(ErrorCode::kShuttingDown, "server is draining");
      }
      TopKRequest req;
      if (!ParseTopKRequest(request.payload, &req)) {
        return ErrorFrame(ErrorCode::kBadRequest, "malformed topk request");
      }
      *trace = tracer_.Begin(req.trace, EndpointName(*endpoint));
      obs::RequestTrace* t = trace->get();
      CheckTrajectory(req.query, "query trajectory");
      if (req.k == 0) {
        return ErrorFrame(ErrorCode::kBadRequest, "k must be >= 1");
      }
      if (req.k > kMaxTopKResults) req.k = kMaxTopKResults;
      const nn::Vector query = batcher_.Encode(req.query, t);
      CheckEmbedding(query, "query trajectory");
      const SearchResult r =
          backend_->TopK(query, req.k, req.exclude, req.nprobe, t);
      TopKResponse resp;
      resp.ids.assign(r.ids.begin(), r.ids.end());
      resp.dists = r.dists;
      return Reply(MsgType::kTopKResponse, SerializeTopKResponse(resp));
    }

    case MsgType::kInsertRequest: {
      *endpoint = Endpoint::kInsert;
      if (draining_.load()) {
        return ErrorFrame(ErrorCode::kShuttingDown, "server is draining");
      }
      InsertRequest req;
      if (!ParseInsertRequest(request.payload, &req)) {
        return ErrorFrame(ErrorCode::kBadRequest, "malformed insert request");
      }
      *trace = tracer_.Begin(req.trace, EndpointName(*endpoint));
      obs::RequestTrace* t = trace->get();
      CheckTrajectory(req.traj, "trajectory");
      // A degraded store refuses before the (expensive) encode, not after.
      if (store_ != nullptr && store_->read_only()) {
        return ErrorFrame(ErrorCode::kDegraded,
                          "store is read-only: " + store_->degraded_reason());
      }
      const nn::Vector embedding = batcher_.Encode(req.traj, t);
      CheckEmbedding(embedding, "trajectory");
      InsertResponse resp;
      if (store_ != nullptr) {
        try {
          // Durable ack: the WAL record is on stable storage before this
          // returns, so the reply below is a promise recovery can keep.
          resp.id = store_->Insert(embedding, t);
        } catch (const store::StoreError& e) {
          return ErrorFrame(ErrorCode::kDegraded, e.what());
        }
      } else {
        resp.id = db_->Insert(embedding);
      }
      // Mirror into the backend only after the row is in the primary (and
      // durable) corpus: a query racing this insert may briefly miss the
      // row, but can never surface an id the database cannot re-rank.
      backend_->NotifyInsert(resp.id, embedding);
      // id+1, not db_->size(): a concurrent insert may land between the two
      // calls, and the reply should be a consistent snapshot of *this* op.
      resp.corpus_size = resp.id + 1;
      return Reply(MsgType::kInsertResponse, SerializeInsertResponse(resp));
    }

    case MsgType::kTraceDumpRequest: {
      *endpoint = Endpoint::kTraceDump;
      // Read-only diagnostics, allowed while draining (like Stats/Health):
      // a drain is exactly when the last traces are most interesting.
      TraceDumpRequest req;
      if (!ParseTraceDumpRequest(request.payload, &req)) {
        return ErrorFrame(ErrorCode::kBadRequest,
                          "malformed tracedump request");
      }
      // Cap the reply: at kMaxSpans spans of ~40 bytes a trace serializes
      // to ~2 KB, so 512 traces stay far below kWireMaxPayload.
      constexpr uint32_t kDefaultDump = 32;
      constexpr uint32_t kMaxDump = 512;
      const uint32_t want = req.max_traces == 0 ? kDefaultDump : req.max_traces;
      TraceDumpResponse resp;
      resp.traces = tracer_.Dump(std::min(want, kMaxDump));
      return Reply(MsgType::kTraceDumpResponse,
                   SerializeTraceDumpResponse(resp));
    }

    case MsgType::kError:
    case MsgType::kEncodeResponse:
    case MsgType::kPairSimResponse:
    case MsgType::kTopKResponse:
    case MsgType::kInsertResponse:
    case MsgType::kStatsResponse:
    case MsgType::kHealthResponse:
    case MsgType::kTraceDumpResponse:
      break;
  }
  return ErrorFrame(ErrorCode::kUnknownType,
                    "unknown request type " + std::to_string(request.type));
}

}  // namespace neutraj::serve
