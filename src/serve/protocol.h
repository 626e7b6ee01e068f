// Binary message protocol of the NeuTraj query service.
//
// Every request and response travels as the payload of one wire frame
// (common/framing.h); the frame's 16-bit type field carries the MsgType.
// Payloads are little-endian and fixed-layout (common/byte_codec.h):
// integers as uint8/32/64, doubles as IEEE-754 bit patterns in a uint64,
// strings and repeated groups length-prefixed with a uint32. Parsers are
// bounds-checked and return false on any truncation, trailing garbage, or
// implausible count — a malformed payload can never crash the server or
// allocate unbounded memory (element counts are validated against the
// bytes actually present before any allocation).
//
// Request → response pairs (server replies kError on any failure):
//   kEncodeRequest   → kEncodeResponse     embed one trajectory
//   kPairSimRequest  → kPairSimResponse    distance + similarity of a pair
//   kTopKRequest     → kTopKResponse       top-k ids over the live corpus
//   kInsertRequest   → kInsertResponse     append to the live corpus
//   kStatsRequest    → kStatsResponse      per-endpoint latency/QPS counters
//   kHealthRequest   → kHealthResponse     liveness + corpus shape
//   kTraceDumpRequest→ kTraceDumpResponse  recently finished request traces
//
// Request tracing: Encode/PairSim/TopK/Insert requests may carry an
// OPTIONAL trailing trace section (u64 trace id + u8 flags, bit 0 =
// sampled) following the same compat pattern as TopK's trailing nprobe —
// serialized only when the id is non-zero, so pre-tracing payloads are
// byte-identical and still parse. A present section with a zero id or
// unknown flag bits fails the parse (kBadRequest; the connection stays
// open).

#ifndef NEUTRAJ_SERVE_PROTOCOL_H_
#define NEUTRAJ_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/framing.h"
#include "geo/trajectory.h"
#include "nn/matrix.h"
#include "obs/reqtrace.h"
#include "serve/stats.h"

namespace neutraj::serve {

/// Wire-frame type values. Requests are odd, their responses even (request
/// + 1), kError is the universal failure reply.
enum class MsgType : uint16_t {
  kError = 0,
  kEncodeRequest = 1,
  kEncodeResponse = 2,
  kPairSimRequest = 3,
  kPairSimResponse = 4,
  kTopKRequest = 5,
  kTopKResponse = 6,
  kInsertRequest = 7,
  kInsertResponse = 8,
  kStatsRequest = 9,
  kStatsResponse = 10,
  kHealthRequest = 11,
  kHealthResponse = 12,
  kTraceDumpRequest = 13,
  kTraceDumpResponse = 14,
};

/// Error codes carried by kError replies.
enum class ErrorCode : uint32_t {
  kMalformedFrame = 1,   ///< Frame-level failure (bad magic/version/CRC).
  kOversizedFrame = 2,   ///< Declared frame payload above the server limit.
  kBadRequest = 3,       ///< Frame ok, payload failed to parse or validate.
  kUnknownType = 4,      ///< Frame type is not a known request.
  kInternal = 5,         ///< Handler threw; message carries e.what().
  kShuttingDown = 6,     ///< Server is draining and rejects new work.
  kDegraded = 7,         ///< Durable store lost its log device; the server
                         ///< is read-only and refuses Insert (queries over
                         ///< the already-durable corpus keep working).
};

const char* ErrorCodeName(ErrorCode c);

// -- Message structs ---------------------------------------------------------

struct ErrorReply {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

struct EncodeRequest {
  Trajectory traj;
  /// Optional client-supplied trace context (trailing wire section, present
  /// only when trace_id != 0). When absent the server decides sampling.
  obs::TraceContext trace = {};
};
struct EncodeResponse {
  nn::Vector embedding;
};

struct PairSimRequest {
  Trajectory a, b;
  obs::TraceContext trace = {};  ///< Optional trailing section; see EncodeRequest.
};
struct PairSimResponse {
  double distance = 0.0;    ///< ||E(a) - E(b)||.
  double similarity = 0.0;  ///< exp(-distance).
};

struct TopKRequest {
  Trajectory query;
  uint32_t k = 10;
  int64_t exclude = -1;  ///< Corpus id to omit, or -1.
  /// ANN probe breadth (cells scanned by an IVF backend; see
  /// src/retrieval/). 0 = server default; exact backends ignore it. Wire
  /// compatibility: serialized as an OPTIONAL trailing section only when
  /// non-zero (the same pattern as kStatsResponse's metrics section), so
  /// old clients' payloads still parse and old servers reject new payloads
  /// cleanly rather than misreading them.
  uint32_t nprobe = 0;
  /// Optional trace context, a second trailing section AFTER nprobe. The
  /// remaining-byte count disambiguates the four layouts (0 = neither,
  /// 4 = nprobe, 9 = trace, 13 = both); a non-default trace forces nprobe
  /// onto the wire even at its default so the layouts stay distinct.
  obs::TraceContext trace = {};
};
struct TopKResponse {
  std::vector<uint64_t> ids;
  std::vector<double> dists;
};

/// Hard cap on the result count of one kTopKResponse: the uint32 count
/// prefix plus 16 bytes per (id, dist) pair must fit a kWireMaxPayload
/// frame. The service clamps a request's k to this before searching, so no
/// well-formed request — however large its k or the corpus — can produce a
/// reply the frame encoder refuses.
inline constexpr uint32_t kMaxTopKResults = static_cast<uint32_t>(
    (kWireMaxPayload - sizeof(uint32_t)) / (sizeof(uint64_t) + sizeof(double)));

struct InsertRequest {
  Trajectory traj;
  obs::TraceContext trace = {};  ///< Optional trailing section; see EncodeRequest.
};
struct InsertResponse {
  uint64_t id = 0;           ///< Assigned corpus id (dense, insert order).
  uint64_t corpus_size = 0;  ///< Corpus size after the insert.
};

// Stats/Health requests have empty payloads and no struct.

struct StatsResponse {
  StatsSnapshot stats;
};

struct HealthResponse {
  bool ok = false;
  uint64_t corpus_size = 0;
  uint32_t dim = 0;
  std::string status;  ///< "serving" or "draining".
};

struct TraceDumpRequest {
  /// Max traces to return, newest kept. 0 = server default (a reply-size
  /// conscious cap); the server additionally clamps to what its ring holds.
  uint32_t max_traces = 0;
};

struct TraceDumpResponse {
  std::vector<obs::FinishedTrace> traces;  ///< Oldest first.
};

// -- Serialization -----------------------------------------------------------
// SerializeX renders the payload bytes (not the wire frame); ParseX decodes
// them, returning false on malformed input with *out unspecified.

std::string SerializeError(const ErrorReply& m);
bool ParseError(const std::string& in, ErrorReply* out);

std::string SerializeEncodeRequest(const EncodeRequest& m);
bool ParseEncodeRequest(const std::string& in, EncodeRequest* out);
std::string SerializeEncodeResponse(const EncodeResponse& m);
bool ParseEncodeResponse(const std::string& in, EncodeResponse* out);

std::string SerializePairSimRequest(const PairSimRequest& m);
bool ParsePairSimRequest(const std::string& in, PairSimRequest* out);
std::string SerializePairSimResponse(const PairSimResponse& m);
bool ParsePairSimResponse(const std::string& in, PairSimResponse* out);

std::string SerializeTopKRequest(const TopKRequest& m);
bool ParseTopKRequest(const std::string& in, TopKRequest* out);
std::string SerializeTopKResponse(const TopKResponse& m);
bool ParseTopKResponse(const std::string& in, TopKResponse* out);

std::string SerializeInsertRequest(const InsertRequest& m);
bool ParseInsertRequest(const std::string& in, InsertRequest* out);
std::string SerializeInsertResponse(const InsertResponse& m);
bool ParseInsertResponse(const std::string& in, InsertResponse* out);

std::string SerializeStatsResponse(const StatsResponse& m);
bool ParseStatsResponse(const std::string& in, StatsResponse* out);

std::string SerializeHealthResponse(const HealthResponse& m);
bool ParseHealthResponse(const std::string& in, HealthResponse* out);

std::string SerializeTraceDumpRequest(const TraceDumpRequest& m);
bool ParseTraceDumpRequest(const std::string& in, TraceDumpRequest* out);
std::string SerializeTraceDumpResponse(const TraceDumpResponse& m);
bool ParseTraceDumpResponse(const std::string& in, TraceDumpResponse* out);

}  // namespace neutraj::serve

#endif  // NEUTRAJ_SERVE_PROTOCOL_H_
