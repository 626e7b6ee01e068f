#include "serve/protocol.h"

#include <utility>
#include <vector>

#include "common/byte_codec.h"

namespace neutraj::serve {

namespace {

// -- Trajectories and embeddings --------------------------------------------
// Both are a u32 count followed by the doubles (x, y per point). The count
// is checked against the bytes present before anything is sized.

void PutTraj(ByteWriter& w, const Trajectory& t) {
  w.U32(static_cast<uint32_t>(t.size()));
  for (const Point& p : t) {
    w.F64(p.x);
    w.F64(p.y);
  }
}

bool GetTraj(ByteReader& r, Trajectory* t) {
  uint32_t n = 0;
  if (!r.U32(&n) || !r.Need(static_cast<size_t>(n) * 16)) return false;
  std::vector<Point> pts(n);
  for (Point& p : pts) {
    if (!r.F64(&p.x) || !r.F64(&p.y)) return false;
  }
  *t = Trajectory(std::move(pts));
  return true;
}

void PutVec(ByteWriter& w, const nn::Vector& v) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (double x : v) w.F64(x);
}

bool GetVec(ByteReader& r, nn::Vector* v) {
  uint32_t n = 0;
  if (!r.U32(&n) || !r.Need(static_cast<size_t>(n) * 8)) return false;
  v->resize(n);
  for (double& x : *v) {
    if (!r.F64(&x)) return false;
  }
  return true;
}

// -- Optional trailing trace section ----------------------------------------
// 9 bytes: u64 trace id + u8 flags (bit 0 = sampled). Written only when the
// id is non-zero so untraced payloads stay byte-identical to the pre-tracing
// format; on the read side the section must be the LAST thing in the
// payload, its id must be non-zero (a zero id with the section present is
// an encoder bug, not "no trace"), and unknown flag bits are rejected so a
// future flag cannot be silently dropped by an old server.

void WriteTrace(ByteWriter& w, const obs::TraceContext& t) {
  w.U64(t.trace_id);
  w.U8(t.sampled ? 1 : 0);
}

bool ParseTrailingTrace(ByteReader& r, obs::TraceContext* out) {
  uint64_t id = 0;
  uint8_t flags = 0;
  if (!r.U64(&id) || !r.U8(&flags) || !r.Done()) return false;
  if (id == 0 || (flags & ~static_cast<uint8_t>(1)) != 0) return false;
  out->trace_id = id;
  out->sampled = (flags & 1) != 0;
  return true;
}

}  // namespace

const char* ErrorCodeName(ErrorCode c) {
  switch (c) {
    case ErrorCode::kMalformedFrame: return "malformed-frame";
    case ErrorCode::kOversizedFrame: return "oversized-frame";
    case ErrorCode::kBadRequest: return "bad-request";
    case ErrorCode::kUnknownType: return "unknown-type";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kShuttingDown: return "shutting-down";
    case ErrorCode::kDegraded: return "degraded";
  }
  return "unknown";
}

std::string SerializeError(const ErrorReply& m) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(m.code));
  w.Str(m.message);
  return w.Take();
}

bool ParseError(const std::string& in, ErrorReply* out) {
  ByteReader r(in);
  uint32_t code = 0;
  if (!r.U32(&code) || !r.Str(&out->message) || !r.Done()) return false;
  out->code = static_cast<ErrorCode>(code);
  return true;
}

std::string SerializeEncodeRequest(const EncodeRequest& m) {
  ByteWriter w;
  PutTraj(w, m.traj);
  if (m.trace.valid()) WriteTrace(w, m.trace);
  return w.Take();
}

bool ParseEncodeRequest(const std::string& in, EncodeRequest* out) {
  ByteReader r(in);
  if (!GetTraj(r, &out->traj)) return false;
  out->trace = obs::TraceContext{};
  if (r.Done()) return true;  // Pre-tracing payload: valid, no context.
  return ParseTrailingTrace(r, &out->trace);
}

std::string SerializeEncodeResponse(const EncodeResponse& m) {
  ByteWriter w;
  PutVec(w, m.embedding);
  return w.Take();
}

bool ParseEncodeResponse(const std::string& in, EncodeResponse* out) {
  ByteReader r(in);
  return GetVec(r, &out->embedding) && r.Done();
}

std::string SerializePairSimRequest(const PairSimRequest& m) {
  ByteWriter w;
  PutTraj(w, m.a);
  PutTraj(w, m.b);
  if (m.trace.valid()) WriteTrace(w, m.trace);
  return w.Take();
}

bool ParsePairSimRequest(const std::string& in, PairSimRequest* out) {
  ByteReader r(in);
  if (!GetTraj(r, &out->a) || !GetTraj(r, &out->b)) return false;
  out->trace = obs::TraceContext{};
  if (r.Done()) return true;  // Pre-tracing payload: valid, no context.
  return ParseTrailingTrace(r, &out->trace);
}

std::string SerializePairSimResponse(const PairSimResponse& m) {
  ByteWriter w;
  w.F64(m.distance);
  w.F64(m.similarity);
  return w.Take();
}

bool ParsePairSimResponse(const std::string& in, PairSimResponse* out) {
  ByteReader r(in);
  return r.F64(&out->distance) && r.F64(&out->similarity) && r.Done();
}

std::string SerializeTopKRequest(const TopKRequest& m) {
  ByteWriter w;
  PutTraj(w, m.query);
  w.U32(m.k);
  w.I64(m.exclude);
  // Optional trailing sections: nprobe (4 bytes), then trace (9 bytes).
  // Each is omitted at its default so default-knob payloads stay
  // byte-identical to older formats — but a present trace forces nprobe
  // onto the wire even when 0, keeping the four trailing lengths
  // (0 / 4 / 9 / 13) unambiguous.
  if (m.nprobe != 0 || m.trace.valid()) w.U32(m.nprobe);
  if (m.trace.valid()) WriteTrace(w, m.trace);
  return w.Take();
}

bool ParseTopKRequest(const std::string& in, TopKRequest* out) {
  ByteReader r(in);
  if (!GetTraj(r, &out->query) || !r.U32(&out->k) || !r.I64(&out->exclude)) {
    return false;
  }
  out->nprobe = 0;
  out->trace = obs::TraceContext{};
  if (r.Done()) return true;  // Pre-nprobe payload: valid, all defaults.
  const size_t rem = r.Remaining();
  if (rem == 4 || rem == 13) {
    if (!r.U32(&out->nprobe)) return false;
    if (r.Done()) return true;  // nprobe only, no trace.
  }
  return ParseTrailingTrace(r, &out->trace);
}

std::string SerializeTopKResponse(const TopKResponse& m) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(m.ids.size()));
  for (size_t i = 0; i < m.ids.size(); ++i) {
    w.U64(m.ids[i]);
    w.F64(m.dists[i]);
  }
  return w.Take();
}

bool ParseTopKResponse(const std::string& in, TopKResponse* out) {
  ByteReader r(in);
  uint32_t n = 0;
  if (!r.U32(&n)) return false;
  out->ids.clear();
  out->dists.clear();
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t id = 0;
    double d = 0.0;
    if (!r.U64(&id) || !r.F64(&d)) return false;
    out->ids.push_back(id);
    out->dists.push_back(d);
  }
  return r.Done();
}

std::string SerializeInsertRequest(const InsertRequest& m) {
  ByteWriter w;
  PutTraj(w, m.traj);
  if (m.trace.valid()) WriteTrace(w, m.trace);
  return w.Take();
}

bool ParseInsertRequest(const std::string& in, InsertRequest* out) {
  ByteReader r(in);
  if (!GetTraj(r, &out->traj)) return false;
  out->trace = obs::TraceContext{};
  if (r.Done()) return true;  // Pre-tracing payload: valid, no context.
  return ParseTrailingTrace(r, &out->trace);
}

std::string SerializeInsertResponse(const InsertResponse& m) {
  ByteWriter w;
  w.U64(m.id);
  w.U64(m.corpus_size);
  return w.Take();
}

bool ParseInsertResponse(const std::string& in, InsertResponse* out) {
  ByteReader r(in);
  return r.U64(&out->id) && r.U64(&out->corpus_size) && r.Done();
}

std::string SerializeStatsResponse(const StatsResponse& m) {
  ByteWriter w;
  const StatsSnapshot& s = m.stats;
  w.F64(s.uptime_seconds);
  w.U64(s.corpus_size);
  w.U32(s.dim);
  w.U64(s.batched_requests);
  w.U64(s.batches);
  w.F64(s.mean_batch_size);
  w.U32(static_cast<uint32_t>(s.endpoints.size()));
  for (const EndpointSnapshot& e : s.endpoints) {
    w.Str(e.name);
    w.U64(e.requests);
    w.U64(e.errors);
    w.F64(e.qps);
    w.F64(e.mean_micros);
    w.F64(e.p50_micros);
    w.F64(e.p90_micros);
    w.F64(e.p99_micros);
    w.F64(e.max_micros);
  }
  // Optional trailing registry-metrics section (added after the original
  // format froze). Old parsers required Done() right after the endpoints,
  // so new servers talking to old clients would fail — but the compat
  // direction that matters is new CLIENT / old SERVER, and there the old
  // payload simply ends early and the parser below accepts it.
  w.U32(static_cast<uint32_t>(s.metrics.size()));
  for (const auto& [name, value] : s.metrics) {
    w.Str(name);
    w.F64(value);
  }
  return w.Take();
}

bool ParseStatsResponse(const std::string& in, StatsResponse* out) {
  ByteReader r(in);
  StatsSnapshot& s = out->stats;
  uint32_t n = 0;
  if (!r.F64(&s.uptime_seconds) || !r.U64(&s.corpus_size) || !r.U32(&s.dim) ||
      !r.U64(&s.batched_requests) || !r.U64(&s.batches) ||
      !r.F64(&s.mean_batch_size) || !r.U32(&n)) {
    return false;
  }
  s.endpoints.clear();
  for (uint32_t i = 0; i < n; ++i) {
    EndpointSnapshot e;
    if (!r.Str(&e.name) || !r.U64(&e.requests) || !r.U64(&e.errors) ||
        !r.F64(&e.qps) || !r.F64(&e.mean_micros) || !r.F64(&e.p50_micros) ||
        !r.F64(&e.p90_micros) || !r.F64(&e.p99_micros) ||
        !r.F64(&e.max_micros)) {
      return false;
    }
    s.endpoints.push_back(std::move(e));
  }
  s.metrics.clear();
  if (r.Done()) return true;  // Pre-metrics payload: valid, no registry data.
  uint32_t m_count = 0;
  if (!r.U32(&m_count)) return false;
  for (uint32_t i = 0; i < m_count; ++i) {
    std::string name;
    double value = 0.0;
    if (!r.Str(&name) || !r.F64(&value)) return false;
    s.metrics.emplace_back(std::move(name), value);
  }
  return r.Done();
}

std::string SerializeHealthResponse(const HealthResponse& m) {
  ByteWriter w;
  w.U8(m.ok ? 1 : 0);
  w.U64(m.corpus_size);
  w.U32(m.dim);
  w.Str(m.status);
  return w.Take();
}

bool ParseHealthResponse(const std::string& in, HealthResponse* out) {
  ByteReader r(in);
  uint8_t ok = 0;
  if (!r.U8(&ok) || !r.U64(&out->corpus_size) || !r.U32(&out->dim) ||
      !r.Str(&out->status) || !r.Done()) {
    return false;
  }
  out->ok = ok != 0;
  return true;
}

std::string SerializeTraceDumpRequest(const TraceDumpRequest& m) {
  ByteWriter w;
  w.U32(m.max_traces);
  return w.Take();
}

bool ParseTraceDumpRequest(const std::string& in, TraceDumpRequest* out) {
  ByteReader r(in);
  return r.U32(&out->max_traces) && r.Done();
}

std::string SerializeTraceDumpResponse(const TraceDumpResponse& m) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(m.traces.size()));
  for (const obs::FinishedTrace& t : m.traces) {
    w.U64(t.trace_id);
    w.Str(t.endpoint);
    w.F64(t.total_us);
    w.U64(t.spans_dropped);
    w.U32(static_cast<uint32_t>(t.spans.size()));
    for (const obs::FinishedSpan& s : t.spans) {
      w.Str(s.stage);
      w.F64(s.start_us);
      w.F64(s.dur_us);
      w.U32(s.tid);
    }
  }
  return w.Take();
}

bool ParseTraceDumpResponse(const std::string& in, TraceDumpResponse* out) {
  ByteReader r(in);
  uint32_t n = 0;
  if (!r.U32(&n)) return false;
  out->traces.clear();
  for (uint32_t i = 0; i < n; ++i) {
    obs::FinishedTrace t;
    uint32_t nspans = 0;
    if (!r.U64(&t.trace_id) || !r.Str(&t.endpoint) || !r.F64(&t.total_us) ||
        !r.U64(&t.spans_dropped) || !r.U32(&nspans)) {
      return false;
    }
    for (uint32_t s = 0; s < nspans; ++s) {
      obs::FinishedSpan span;
      if (!r.Str(&span.stage) || !r.F64(&span.start_us) ||
          !r.F64(&span.dur_us) || !r.U32(&span.tid)) {
        return false;
      }
      t.spans.push_back(std::move(span));
    }
    out->traces.push_back(std::move(t));
  }
  return r.Done();
}

}  // namespace neutraj::serve
