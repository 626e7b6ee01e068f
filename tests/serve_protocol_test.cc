// Unit tests for the socket-independent serving layers: wire framing
// (common/framing), the message protocol codecs (serve/protocol), the
// micro_batcher, the query service dispatch, and the serving stats —
// including malformed-frame and fuzzed-payload robustness.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/framing.h"
#include "common/random.h"
#include "core/embedding_db.h"
#include "core/model.h"
#include "core/similarity.h"
#include "geo/grid.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "serve/micro_batcher.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/stats.h"
#include "test_util.h"

namespace neutraj::serve {
namespace {

using neutraj::testing::RandomCorpus;
using neutraj::testing::RandomTrajectory;

// -- Shared fixtures ---------------------------------------------------------

NeuTrajConfig SmallConfig() {
  NeuTrajConfig cfg = NeuTrajConfig::NeuTraj();
  cfg.embedding_dim = 8;
  cfg.scan_width = 1;
  return cfg;
}

Grid SmallGrid() {
  BoundingBox region = BoundingBox::Empty();
  region.Extend(Point(-50, -50));
  region.Extend(Point(150, 150));
  return Grid(region, 20.0);
}

NeuTrajModel MakeModel() {
  NeuTrajModel model(SmallConfig(), SmallGrid());
  Rng rng(7);
  model.InitializeWeights(&rng);
  return model;
}

std::vector<Trajectory> MakeCorpus(size_t n, uint64_t seed) {
  Rng rng(seed);
  return RandomCorpus(n, 4, 10, 100.0, &rng);
}

WireFrame Req(MsgType type, std::string payload = "") {
  WireFrame f;
  f.type = static_cast<uint16_t>(type);
  f.payload = std::move(payload);
  return f;
}

ErrorReply GetError(const WireFrame& reply) {
  EXPECT_EQ(reply.type, static_cast<uint16_t>(MsgType::kError));
  ErrorReply err;
  EXPECT_TRUE(ParseError(reply.payload, &err));
  return err;
}

void ExpectTrajEq(const Trajectory& a, const Trajectory& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.points()[i].x, b.points()[i].x);
    EXPECT_EQ(a.points()[i].y, b.points()[i].y);
  }
}

// -- Wire framing ------------------------------------------------------------

TEST(WireFrameTest, RoundTripsMultipleFramesFromOneBuffer) {
  const std::string buf = EncodeWireFrame(1, "alpha") +
                          EncodeWireFrame(7, "") +
                          EncodeWireFrame(42, std::string(1000, 'x'));
  size_t offset = 0;
  WireFrame f;
  ASSERT_EQ(DecodeWireFrame(buf, &offset, &f), FrameStatus::kOk);
  EXPECT_EQ(f.type, 1);
  EXPECT_EQ(f.payload, "alpha");
  ASSERT_EQ(DecodeWireFrame(buf, &offset, &f), FrameStatus::kOk);
  EXPECT_EQ(f.type, 7);
  EXPECT_EQ(f.payload, "");
  ASSERT_EQ(DecodeWireFrame(buf, &offset, &f), FrameStatus::kOk);
  EXPECT_EQ(f.type, 42);
  EXPECT_EQ(f.payload, std::string(1000, 'x'));
  EXPECT_EQ(offset, buf.size());
  EXPECT_EQ(DecodeWireFrame(buf, &offset, &f), FrameStatus::kIncomplete);
}

TEST(WireFrameTest, EveryTruncatedPrefixIsIncomplete) {
  const std::string frame = EncodeWireFrame(3, "payload bytes");
  for (size_t len = 0; len < frame.size(); ++len) {
    size_t offset = 0;
    WireFrame f;
    EXPECT_EQ(DecodeWireFrame(frame.substr(0, len), &offset, &f),
              FrameStatus::kIncomplete)
        << "prefix of " << len << " bytes";
    EXPECT_EQ(offset, 0u) << "offset must not advance on kIncomplete";
  }
}

TEST(WireFrameTest, BadMagicDetectedBeforeFullHeaderArrives) {
  std::string frame = EncodeWireFrame(3, "p");
  frame[0] = 'X';
  size_t offset = 0;
  WireFrame f;
  EXPECT_EQ(DecodeWireFrame(frame, &offset, &f), FrameStatus::kBadMagic);
  EXPECT_EQ(offset, 0u);
  // Even a short garbage prefix is rejected without waiting for 16 bytes.
  offset = 0;
  EXPECT_EQ(DecodeWireFrame(frame.substr(0, 4), &offset, &f),
            FrameStatus::kBadMagic);
}

TEST(WireFrameTest, WrongVersionRejected) {
  std::string frame = EncodeWireFrame(3, "p");
  frame[4] = static_cast<char>(0xFF);  // Version field is bytes 4..5.
  size_t offset = 0;
  WireFrame f;
  EXPECT_EQ(DecodeWireFrame(frame, &offset, &f), FrameStatus::kBadVersion);
  EXPECT_EQ(offset, 0u);
}

TEST(WireFrameTest, OversizedDeclarationRejectedFromHeaderAlone) {
  const std::string frame = EncodeWireFrame(3, std::string(100, 'q'));
  size_t offset = 0;
  WireFrame f;
  // Only the header present: the declared 100-byte payload already exceeds
  // the 50-byte cap, so the reader must not wait for more bytes.
  EXPECT_EQ(DecodeWireFrame(frame.substr(0, kWireHeaderSize), &offset, &f,
                            /*max_payload=*/50),
            FrameStatus::kOversized);
  EXPECT_EQ(offset, 0u);
}

TEST(WireFrameTest, EncoderEnforcesTheSamePayloadCap) {
  EXPECT_THROW(EncodeWireFrame(1, std::string(51, 'x'), /*max_payload=*/50),
               std::length_error);
  EXPECT_NO_THROW(EncodeWireFrame(1, std::string(50, 'x'), /*max_payload=*/50));
}

TEST(WireFrameTest, PayloadCorruptionFailsChecksum) {
  const std::string clean = EncodeWireFrame(3, "sensitive payload");
  for (size_t i = kWireHeaderSize; i < clean.size(); ++i) {
    std::string frame = clean;
    frame[i] = static_cast<char>(frame[i] ^ 0x40);
    size_t offset = 0;
    WireFrame f;
    EXPECT_EQ(DecodeWireFrame(frame, &offset, &f), FrameStatus::kBadChecksum)
        << "flipped payload byte " << i;
    EXPECT_EQ(offset, 0u);
  }
}

TEST(WireFrameTest, SingleBitFlipsNeverYieldACorruptedPayload) {
  const std::string payload = "the quick brown fox";
  const std::string clean = EncodeWireFrame(9, payload);
  Rng rng(31);
  for (int iter = 0; iter < 500; ++iter) {
    std::string frame = clean;
    const auto pos = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(frame.size()) - 1));
    const int bit = static_cast<int>(rng.UniformInt(0, 7));
    frame[pos] = static_cast<char>(frame[pos] ^ (1 << bit));
    size_t offset = 0;
    WireFrame f;
    const FrameStatus status = DecodeWireFrame(frame, &offset, &f);
    // A flip in the (CRC-unprotected) type field still decodes; every
    // other flip must be flagged. In no case may a decoded payload differ.
    if (status == FrameStatus::kOk) {
      EXPECT_EQ(f.payload, payload);
      EXPECT_EQ(offset, frame.size());
    } else {
      EXPECT_EQ(offset, 0u);
    }
  }
}

TEST(WireFrameTest, RandomGarbageNeverDecodesOk) {
  Rng rng(77);
  for (int iter = 0; iter < 200; ++iter) {
    const auto len =
        static_cast<size_t>(rng.UniformInt(0, 64));
    std::string garbage(len, '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.UniformInt(0, 255));
    }
    size_t offset = 0;
    WireFrame f;
    const FrameStatus status = DecodeWireFrame(garbage, &offset, &f);
    EXPECT_NE(status, FrameStatus::kOk);
    EXPECT_EQ(offset, 0u);
  }
}

// -- Protocol codecs ---------------------------------------------------------

/// Every strict prefix of a serialized payload must be rejected, and so
/// must the payload with trailing garbage (parsers demand full
/// consumption).
template <typename T, typename ParseFn>
void ExpectExactFraming(const std::string& payload, ParseFn parse) {
  for (size_t len = 0; len < payload.size(); ++len) {
    T out;
    EXPECT_FALSE(parse(payload.substr(0, len), &out))
        << "accepted a " << len << "-byte prefix of " << payload.size();
  }
  T out;
  EXPECT_FALSE(parse(payload + "x", &out)) << "accepted trailing garbage";
}

TEST(ProtocolTest, ErrorReplyRoundTrip) {
  const ErrorReply in{ErrorCode::kShuttingDown, "draining now"};
  const std::string bytes = SerializeError(in);
  ErrorReply out;
  ASSERT_TRUE(ParseError(bytes, &out));
  EXPECT_EQ(out.code, in.code);
  EXPECT_EQ(out.message, in.message);
  ExpectExactFraming<ErrorReply>(bytes, ParseError);
}

TEST(ProtocolTest, ErrorCodesHaveStableNames) {
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kDegraded), "degraded");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kShuttingDown), "shutting-down");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kBadRequest), "bad-request");

  const ErrorReply in{ErrorCode::kDegraded, "store is read-only"};
  ErrorReply out;
  ASSERT_TRUE(ParseError(SerializeError(in), &out));
  EXPECT_EQ(out.code, ErrorCode::kDegraded);
}

TEST(ProtocolTest, EncodeMessagesRoundTrip) {
  Rng rng(5);
  EncodeRequest req;
  req.traj = RandomTrajectory(6, 100.0, &rng);
  const std::string req_bytes = SerializeEncodeRequest(req);
  EncodeRequest req_out;
  ASSERT_TRUE(ParseEncodeRequest(req_bytes, &req_out));
  ExpectTrajEq(req_out.traj, req.traj);
  ExpectExactFraming<EncodeRequest>(req_bytes, ParseEncodeRequest);

  EncodeResponse resp;
  resp.embedding = {1.5, -2.25, 0.0, 1e-300, -1e300};
  const std::string resp_bytes = SerializeEncodeResponse(resp);
  EncodeResponse resp_out;
  ASSERT_TRUE(ParseEncodeResponse(resp_bytes, &resp_out));
  EXPECT_EQ(resp_out.embedding, resp.embedding);
  ExpectExactFraming<EncodeResponse>(resp_bytes, ParseEncodeResponse);
}

TEST(ProtocolTest, PairSimMessagesRoundTrip) {
  Rng rng(6);
  PairSimRequest req;
  req.a = RandomTrajectory(4, 100.0, &rng);
  req.b = RandomTrajectory(9, 100.0, &rng);
  const std::string req_bytes = SerializePairSimRequest(req);
  PairSimRequest req_out;
  ASSERT_TRUE(ParsePairSimRequest(req_bytes, &req_out));
  ExpectTrajEq(req_out.a, req.a);
  ExpectTrajEq(req_out.b, req.b);
  ExpectExactFraming<PairSimRequest>(req_bytes, ParsePairSimRequest);

  PairSimResponse resp;
  resp.distance = 3.75;
  resp.similarity = 0.023517745856009107;
  const std::string resp_bytes = SerializePairSimResponse(resp);
  PairSimResponse resp_out;
  ASSERT_TRUE(ParsePairSimResponse(resp_bytes, &resp_out));
  EXPECT_EQ(resp_out.distance, resp.distance);
  EXPECT_EQ(resp_out.similarity, resp.similarity);
  ExpectExactFraming<PairSimResponse>(resp_bytes, ParsePairSimResponse);
}

TEST(ProtocolTest, TopKMessagesRoundTrip) {
  Rng rng(8);
  TopKRequest req;
  req.query = RandomTrajectory(5, 100.0, &rng);
  req.k = 17;
  req.exclude = 12345678901LL;
  const std::string req_bytes = SerializeTopKRequest(req);
  TopKRequest req_out;
  ASSERT_TRUE(ParseTopKRequest(req_bytes, &req_out));
  ExpectTrajEq(req_out.query, req.query);
  EXPECT_EQ(req_out.k, req.k);
  EXPECT_EQ(req_out.exclude, req.exclude);
  ExpectExactFraming<TopKRequest>(req_bytes, ParseTopKRequest);

  TopKResponse resp;
  resp.ids = {3, 0, 999999999999ULL};
  resp.dists = {0.0, 0.5, 123.456};
  const std::string resp_bytes = SerializeTopKResponse(resp);
  TopKResponse resp_out;
  ASSERT_TRUE(ParseTopKResponse(resp_bytes, &resp_out));
  EXPECT_EQ(resp_out.ids, resp.ids);
  EXPECT_EQ(resp_out.dists, resp.dists);
  ExpectExactFraming<TopKResponse>(resp_bytes, ParseTopKResponse);
}

TEST(ProtocolTest, TopKRequestNprobeRoundTripsWhenSet) {
  Rng rng(81);
  TopKRequest req;
  req.query = RandomTrajectory(4, 100.0, &rng);
  req.k = 9;
  req.exclude = 3;
  req.nprobe = 17;
  const std::string bytes = SerializeTopKRequest(req);
  TopKRequest out;
  ASSERT_TRUE(ParseTopKRequest(bytes, &out));
  EXPECT_EQ(out.nprobe, 17u);
  EXPECT_EQ(out.k, req.k);
  EXPECT_EQ(out.exclude, req.exclude);
  // Trailing garbage after the optional section is still rejected.
  TopKRequest junk;
  EXPECT_FALSE(ParseTopKRequest(bytes + "x", &junk));
}

TEST(ProtocolTest, TopKRequestNprobeSectionIsBackwardCompatible) {
  // Compatibility contract (same pattern as the kStatsResponse metrics
  // section): nprobe == 0 serializes to the byte-identical pre-nprobe
  // payload, and a pre-nprobe payload parses with nprobe == 0. Pin both
  // directions so neither side of a mixed-version deployment breaks.
  Rng rng(82);
  TopKRequest req;
  req.query = RandomTrajectory(4, 100.0, &rng);
  req.k = 5;
  req.exclude = -1;
  req.nprobe = 4;

  // Old-format bytes: the new payload minus its 4-byte trailing section.
  const std::string new_bytes = SerializeTopKRequest(req);
  const std::string old_bytes = new_bytes.substr(0, new_bytes.size() - 4);

  // An old client's payload parses, defaulting the knob …
  TopKRequest out;
  ASSERT_TRUE(ParseTopKRequest(old_bytes, &out));
  EXPECT_EQ(out.nprobe, 0u);
  EXPECT_EQ(out.k, req.k);

  // … and a new client with the default knob emits byte-identical legacy
  // payloads, so old servers never see the section at all.
  req.nprobe = 0;
  EXPECT_EQ(SerializeTopKRequest(req), old_bytes);
}

// -- Trace context wire section ----------------------------------------------

TEST(ProtocolTest, TraceSectionRoundTripsOnEveryRequestType) {
  Rng rng(83);
  const obs::TraceContext ctx{0xfeedfacecafebeefULL, true};
  const Trajectory t = RandomTrajectory(5, 100.0, &rng);

  EncodeRequest enc;
  enc.traj = t;
  enc.trace = ctx;
  EncodeRequest enc_out;
  ASSERT_TRUE(ParseEncodeRequest(SerializeEncodeRequest(enc), &enc_out));
  EXPECT_EQ(enc_out.trace.trace_id, ctx.trace_id);
  EXPECT_TRUE(enc_out.trace.sampled);

  PairSimRequest pair;
  pair.a = t;
  pair.b = t;
  pair.trace = ctx;
  pair.trace.sampled = false;  // The unsampled flag must survive too.
  PairSimRequest pair_out;
  ASSERT_TRUE(ParsePairSimRequest(SerializePairSimRequest(pair), &pair_out));
  EXPECT_EQ(pair_out.trace.trace_id, ctx.trace_id);
  EXPECT_FALSE(pair_out.trace.sampled);

  InsertRequest ins;
  ins.traj = t;
  ins.trace = ctx;
  InsertRequest ins_out;
  ASSERT_TRUE(ParseInsertRequest(SerializeInsertRequest(ins), &ins_out));
  EXPECT_EQ(ins_out.trace.trace_id, ctx.trace_id);
  EXPECT_TRUE(ins_out.trace.sampled);

  TopKRequest topk;
  topk.query = t;
  topk.k = 3;
  topk.nprobe = 11;
  topk.trace = ctx;
  TopKRequest topk_out;
  ASSERT_TRUE(ParseTopKRequest(SerializeTopKRequest(topk), &topk_out));
  EXPECT_EQ(topk_out.trace.trace_id, ctx.trace_id);
  EXPECT_TRUE(topk_out.trace.sampled);
  EXPECT_EQ(topk_out.nprobe, 11u);
}

TEST(ProtocolTest, TraceSectionIsBackwardCompatible) {
  // The pre-tracing compat contract, both directions, for all four request
  // types: a default (invalid) trace serializes to the byte-identical
  // legacy payload, and legacy bytes parse with no trace attached.
  Rng rng(84);
  const Trajectory t = RandomTrajectory(6, 100.0, &rng);

  EncodeRequest enc;
  enc.traj = t;
  const std::string enc_legacy = SerializeEncodeRequest(enc);
  enc.trace = {0x1234, true};
  const std::string enc_traced = SerializeEncodeRequest(enc);
  ASSERT_EQ(enc_traced.size(), enc_legacy.size() + 9);  // u64 id + u8 flags.
  EXPECT_EQ(enc_traced.substr(0, enc_legacy.size()), enc_legacy);
  EncodeRequest enc_out;
  ASSERT_TRUE(ParseEncodeRequest(enc_legacy, &enc_out));
  EXPECT_FALSE(enc_out.trace.valid());

  PairSimRequest pair;
  pair.a = t;
  pair.b = t;
  const std::string pair_legacy = SerializePairSimRequest(pair);
  pair.trace = {0x1234, true};
  EXPECT_EQ(SerializePairSimRequest(pair).size(), pair_legacy.size() + 9);
  PairSimRequest pair_out;
  ASSERT_TRUE(ParsePairSimRequest(pair_legacy, &pair_out));
  EXPECT_FALSE(pair_out.trace.valid());

  InsertRequest ins;
  ins.traj = t;
  const std::string ins_legacy = SerializeInsertRequest(ins);
  ins.trace = {0x1234, true};
  EXPECT_EQ(SerializeInsertRequest(ins).size(), ins_legacy.size() + 9);
  InsertRequest ins_out;
  ASSERT_TRUE(ParseInsertRequest(ins_legacy, &ins_out));
  EXPECT_FALSE(ins_out.trace.valid());

  TopKRequest topk;
  topk.query = t;
  const std::string topk_legacy = SerializeTopKRequest(topk);
  TopKRequest topk_out;
  ASSERT_TRUE(ParseTopKRequest(topk_legacy, &topk_out));
  EXPECT_FALSE(topk_out.trace.valid());
  EXPECT_EQ(topk_out.nprobe, 0u);
}

TEST(ProtocolTest, TopKTrailingLayoutsDisambiguateByLength) {
  // The four TopK trailing layouts: 0 bytes (neither), 4 (nprobe), 9
  // (trace only, accepted on parse), 13 (both — what the serializer emits
  // for any valid trace, forcing nprobe onto the wire to keep lengths
  // distinct).
  Rng rng(85);
  TopKRequest req;
  req.query = RandomTrajectory(4, 100.0, &rng);
  const std::string base = SerializeTopKRequest(req);  // Layout 0.

  req.trace = {0xabcd, true};
  const std::string traced = SerializeTopKRequest(req);
  ASSERT_EQ(traced.size(), base.size() + 13);  // nprobe forced on the wire.
  TopKRequest out;
  ASSERT_TRUE(ParseTopKRequest(traced, &out));
  EXPECT_EQ(out.nprobe, 0u);
  EXPECT_EQ(out.trace.trace_id, 0xabcdu);

  // Layout 9 — a trace section with no nprobe — is never emitted by this
  // serializer but must parse (a future serializer may drop the padding).
  const std::string trace_only = base + traced.substr(base.size() + 4);
  ASSERT_EQ(trace_only.size(), base.size() + 9);
  TopKRequest out9;
  ASSERT_TRUE(ParseTopKRequest(trace_only, &out9));
  EXPECT_EQ(out9.nprobe, 0u);
  EXPECT_EQ(out9.trace.trace_id, 0xabcdu);
  EXPECT_TRUE(out9.trace.sampled);
}

TEST(ProtocolTest, TraceSectionRejectsZeroIdAndUnknownFlags) {
  Rng rng(86);
  EncodeRequest req;
  req.traj = RandomTrajectory(4, 100.0, &rng);
  req.trace = {0x77, true};
  const std::string traced = SerializeEncodeRequest(req);
  const size_t base_len = traced.size() - 9;

  // Zero id with the section present: the sentinel may not travel.
  std::string zero_id = traced;
  for (size_t i = 0; i < 8; ++i) zero_id[base_len + i] = '\0';
  EncodeRequest out;
  EXPECT_FALSE(ParseEncodeRequest(zero_id, &out));

  // Unknown flag bits: reserved for future semantics, reject today.
  for (uint8_t bit = 1; bit < 8; ++bit) {
    std::string bad_flags = traced;
    bad_flags[base_len + 8] = static_cast<char>(1u | (1u << bit));
    EXPECT_FALSE(ParseEncodeRequest(bad_flags, &out))
        << "flag bit " << static_cast<int>(bit) << " accepted";
  }
}

TEST(ProtocolTest, FuzzedTrailingBytesNeverCrashOrMisparse) {
  // Append 1..16 trailing bytes of varied fill to each request's legacy
  // payload: parsers must never crash, and must reject everything except
  // the layouts the protocol actually defines (for TopK, a 4-byte tail is
  // a legitimate nprobe section whatever its value).
  Rng rng(87);
  const Trajectory t = RandomTrajectory(5, 100.0, &rng);
  EncodeRequest enc;
  enc.traj = t;
  PairSimRequest pair;
  pair.a = t;
  pair.b = t;
  InsertRequest ins;
  ins.traj = t;
  TopKRequest topk;
  topk.query = t;

  // Every fill yields an invalid trace section at length 9/13: all-zero is
  // the banned zero id, 0xff and 0x80 carry unknown flag bits. (Valid
  // sections are covered by the round-trip tests above.)
  const std::string fills = std::string("\x00\xff\x80", 3);
  for (const char fill : fills) {
    for (size_t extra = 1; extra <= 16; ++extra) {
      const std::string tail(extra, fill);
      EncodeRequest enc_out;
      EXPECT_FALSE(
          ParseEncodeRequest(SerializeEncodeRequest(enc) + tail, &enc_out));
      PairSimRequest pair_out;
      EXPECT_FALSE(
          ParsePairSimRequest(SerializePairSimRequest(pair) + tail, &pair_out));
      InsertRequest ins_out;
      EXPECT_FALSE(
          ParseInsertRequest(SerializeInsertRequest(ins) + tail, &ins_out));

      TopKRequest topk_out;
      const bool ok =
          ParseTopKRequest(SerializeTopKRequest(topk) + tail, &topk_out);
      if (extra == 4) {
        // A legitimate nprobe section: any u32 value parses.
        EXPECT_TRUE(ok);
      } else {
        EXPECT_FALSE(ok) << "tail of " << extra << " bytes of "
                         << static_cast<int>(fill) << " accepted";
      }
    }
  }

  // An oversized "trace" field (e.g. a corrupted length claim) is just
  // trailing garbage — rejected without any allocation or crash.
  EncodeRequest big_out;
  EXPECT_FALSE(ParseEncodeRequest(
      SerializeEncodeRequest(enc) + std::string(1 << 16, '\x5a'), &big_out));
}

TEST(ProtocolTest, TraceDumpMessagesRoundTrip) {
  TraceDumpRequest req;
  req.max_traces = 42;
  TraceDumpRequest req_out;
  ASSERT_TRUE(ParseTraceDumpRequest(SerializeTraceDumpRequest(req), &req_out));
  EXPECT_EQ(req_out.max_traces, 42u);

  TraceDumpResponse resp;
  obs::FinishedTrace ft;
  ft.trace_id = 0x123456789abcdef0ULL;
  ft.endpoint = "topk";
  ft.total_us = 1234.5;
  ft.spans_dropped = 2;
  ft.spans.push_back({"queue_wait", 0.0, 10.5, 1});
  ft.spans.push_back({"probe", 10.5, 800.0, 3});
  resp.traces.push_back(ft);
  obs::FinishedTrace empty_ft;
  empty_ft.trace_id = 7;
  empty_ft.endpoint = "encode";
  resp.traces.push_back(empty_ft);  // A trace with no spans round-trips too.

  TraceDumpResponse out;
  ASSERT_TRUE(ParseTraceDumpResponse(SerializeTraceDumpResponse(resp), &out));
  ASSERT_EQ(out.traces.size(), 2u);
  EXPECT_EQ(out.traces[0].trace_id, ft.trace_id);
  EXPECT_EQ(out.traces[0].endpoint, "topk");
  EXPECT_EQ(out.traces[0].total_us, 1234.5);
  EXPECT_EQ(out.traces[0].spans_dropped, 2u);
  ASSERT_EQ(out.traces[0].spans.size(), 2u);
  EXPECT_EQ(out.traces[0].spans[1].stage, "probe");
  EXPECT_EQ(out.traces[0].spans[1].start_us, 10.5);
  EXPECT_EQ(out.traces[0].spans[1].dur_us, 800.0);
  EXPECT_EQ(out.traces[0].spans[1].tid, 3u);
  EXPECT_TRUE(out.traces[1].spans.empty());

  // Truncations and trailing garbage fail cleanly.
  const std::string bytes = SerializeTraceDumpResponse(resp);
  for (size_t cut = 0; cut < bytes.size(); cut += 7) {
    TraceDumpResponse trunc;
    EXPECT_FALSE(ParseTraceDumpResponse(bytes.substr(0, cut), &trunc));
  }
  TraceDumpResponse junk;
  EXPECT_FALSE(ParseTraceDumpResponse(bytes + "x", &junk));
}

TEST(ProtocolTest, MaxTopKResultsSaturatesTheFrameLimit) {
  // kMaxTopKResults is derived from the serialized layout: a uint32 count
  // prefix plus 16 bytes per (id, dist) pair. Pin the layout so a codec
  // change cannot silently invalidate the service-side clamp that keeps
  // every TopK reply encodable.
  TopKResponse m;
  for (uint64_t i = 0; i < 3; ++i) {
    m.ids.push_back(i);
    m.dists.push_back(static_cast<double>(i) * 0.5);
  }
  EXPECT_EQ(SerializeTopKResponse(m).size(), 4u + 3u * 16u);
  // The bound is tight: exactly kMaxTopKResults entries fit a frame, one
  // more does not.
  const size_t per_entry = sizeof(uint64_t) + sizeof(double);
  EXPECT_LE(sizeof(uint32_t) + static_cast<size_t>(kMaxTopKResults) * per_entry,
            kWireMaxPayload);
  EXPECT_GT(sizeof(uint32_t) +
                (static_cast<size_t>(kMaxTopKResults) + 1) * per_entry,
            kWireMaxPayload);
}

TEST(ProtocolTest, InsertMessagesRoundTrip) {
  Rng rng(9);
  InsertRequest req;
  req.traj = RandomTrajectory(7, 100.0, &rng);
  const std::string req_bytes = SerializeInsertRequest(req);
  InsertRequest req_out;
  ASSERT_TRUE(ParseInsertRequest(req_bytes, &req_out));
  ExpectTrajEq(req_out.traj, req.traj);
  ExpectExactFraming<InsertRequest>(req_bytes, ParseInsertRequest);

  InsertResponse resp;
  resp.id = 41;
  resp.corpus_size = 42;
  const std::string resp_bytes = SerializeInsertResponse(resp);
  InsertResponse resp_out;
  ASSERT_TRUE(ParseInsertResponse(resp_bytes, &resp_out));
  EXPECT_EQ(resp_out.id, resp.id);
  EXPECT_EQ(resp_out.corpus_size, resp.corpus_size);
  ExpectExactFraming<InsertResponse>(resp_bytes, ParseInsertResponse);
}

TEST(ProtocolTest, StatsResponseRoundTrip) {
  StatsResponse resp;
  resp.stats.uptime_seconds = 12.5;
  resp.stats.corpus_size = 1000;
  resp.stats.dim = 64;
  resp.stats.batched_requests = 640;
  resp.stats.batches = 20;
  resp.stats.mean_batch_size = 32.0;
  EndpointSnapshot encode;
  encode.name = "encode";
  encode.requests = 640;
  encode.errors = 3;
  encode.qps = 51.2;
  encode.mean_micros = 87.5;
  encode.p50_micros = 64.0;
  encode.p90_micros = 128.0;
  encode.p99_micros = 256.0;
  encode.max_micros = 300.25;
  resp.stats.endpoints.push_back(encode);
  EndpointSnapshot topk;
  topk.name = "topk";
  topk.requests = 5;
  resp.stats.endpoints.push_back(topk);
  resp.stats.metrics = {{"serve/batcher/wait_us/p99_us", 128.0},
                        {"trainer/mean_loss", 0.0625}};

  const std::string bytes = SerializeStatsResponse(resp);
  StatsResponse out;
  ASSERT_TRUE(ParseStatsResponse(bytes, &out));
  EXPECT_EQ(out.stats.uptime_seconds, resp.stats.uptime_seconds);
  EXPECT_EQ(out.stats.corpus_size, resp.stats.corpus_size);
  EXPECT_EQ(out.stats.dim, resp.stats.dim);
  EXPECT_EQ(out.stats.batched_requests, resp.stats.batched_requests);
  EXPECT_EQ(out.stats.batches, resp.stats.batches);
  EXPECT_EQ(out.stats.mean_batch_size, resp.stats.mean_batch_size);
  ASSERT_EQ(out.stats.endpoints.size(), 2u);
  EXPECT_EQ(out.stats.endpoints[0].name, "encode");
  EXPECT_EQ(out.stats.endpoints[0].requests, 640u);
  EXPECT_EQ(out.stats.endpoints[0].errors, 3u);
  EXPECT_EQ(out.stats.endpoints[0].qps, 51.2);
  EXPECT_EQ(out.stats.endpoints[0].mean_micros, 87.5);
  EXPECT_EQ(out.stats.endpoints[0].p50_micros, 64.0);
  EXPECT_EQ(out.stats.endpoints[0].p90_micros, 128.0);
  EXPECT_EQ(out.stats.endpoints[0].p99_micros, 256.0);
  EXPECT_EQ(out.stats.endpoints[0].max_micros, 300.25);
  EXPECT_EQ(out.stats.endpoints[1].name, "topk");
  EXPECT_EQ(out.stats.endpoints[1].requests, 5u);
  ASSERT_EQ(out.stats.metrics.size(), 2u);
  EXPECT_EQ(out.stats.metrics[0].first, "serve/batcher/wait_us/p99_us");
  EXPECT_EQ(out.stats.metrics[0].second, 128.0);
  EXPECT_EQ(out.stats.metrics[1].first, "trainer/mean_loss");
  EXPECT_EQ(out.stats.metrics[1].second, 0.0625);
  EXPECT_FALSE(out.stats.ToString().empty());
  EXPECT_FALSE(out.stats.ToPrometheus().empty());

  // Exact framing holds for every prefix except the single designed-in
  // compatibility point: a payload ending exactly where the pre-metrics
  // format ended still parses (old servers keep answering new clients).
  StatsResponse no_metrics = resp;
  no_metrics.stats.metrics.clear();
  // The empty metrics vector still serializes its u32 count; strip it to
  // find the legacy payload boundary.
  const size_t legacy_len =
      SerializeStatsResponse(no_metrics).size() - sizeof(uint32_t);
  for (size_t len = 0; len < bytes.size(); ++len) {
    StatsResponse p;
    if (len == legacy_len) {
      EXPECT_TRUE(ParseStatsResponse(bytes.substr(0, len), &p));
      EXPECT_TRUE(p.stats.metrics.empty());
    } else {
      EXPECT_FALSE(ParseStatsResponse(bytes.substr(0, len), &p))
          << "accepted a " << len << "-byte prefix";
    }
  }
  StatsResponse p;
  EXPECT_FALSE(ParseStatsResponse(bytes + "x", &p))
      << "accepted trailing garbage";
}

TEST(ProtocolTest, StatsResponseParsesLegacyPayloadsWithoutMetrics) {
  // A payload from a pre-observability server carries no trailing metrics
  // section at all. Reconstruct one by serializing with empty metrics and
  // stripping the (empty) section's u32 count: the parser must accept it
  // and leave `metrics` empty, so old servers and new clients interoperate.
  StatsResponse resp;
  resp.stats.uptime_seconds = 3.5;
  resp.stats.corpus_size = 10;
  resp.stats.dim = 8;
  EndpointSnapshot encode;
  encode.name = "encode";
  encode.requests = 17;
  resp.stats.endpoints.push_back(encode);

  std::string legacy = SerializeStatsResponse(resp);
  legacy.resize(legacy.size() - sizeof(uint32_t));
  StatsResponse out;
  out.stats.metrics = {{"stale", 1.0}};  // Must be cleared by the parser.
  ASSERT_TRUE(ParseStatsResponse(legacy, &out));
  EXPECT_EQ(out.stats.uptime_seconds, 3.5);
  EXPECT_EQ(out.stats.corpus_size, 10u);
  ASSERT_EQ(out.stats.endpoints.size(), 1u);
  EXPECT_EQ(out.stats.endpoints[0].requests, 17u);
  EXPECT_TRUE(out.stats.metrics.empty());
}

TEST(ProtocolTest, HealthResponseRoundTrip) {
  HealthResponse resp;
  resp.ok = true;
  resp.corpus_size = 77;
  resp.dim = 16;
  resp.status = "serving";
  const std::string bytes = SerializeHealthResponse(resp);
  HealthResponse out;
  ASSERT_TRUE(ParseHealthResponse(bytes, &out));
  EXPECT_EQ(out.ok, resp.ok);
  EXPECT_EQ(out.corpus_size, resp.corpus_size);
  EXPECT_EQ(out.dim, resp.dim);
  EXPECT_EQ(out.status, resp.status);
  ExpectExactFraming<HealthResponse>(bytes, ParseHealthResponse);
}

TEST(ProtocolTest, HugeDeclaredCountsRejectedBeforeAllocation) {
  // An embedding payload claiming 2^32-1 doubles but carrying 3: the count
  // must be validated against the bytes present, not allocated blindly.
  EncodeResponse resp;
  resp.embedding = {1.0, 2.0, 3.0};
  std::string bytes = SerializeEncodeResponse(resp);
  bytes[0] = static_cast<char>(0xFF);
  bytes[1] = static_cast<char>(0xFF);
  bytes[2] = static_cast<char>(0xFF);
  bytes[3] = static_cast<char>(0xFF);
  EncodeResponse out;
  EXPECT_FALSE(ParseEncodeResponse(bytes, &out));

  Rng rng(4);
  EncodeRequest req;
  req.traj = RandomTrajectory(3, 100.0, &rng);
  std::string req_bytes = SerializeEncodeRequest(req);
  req_bytes[0] = static_cast<char>(0xFF);
  req_bytes[1] = static_cast<char>(0xFF);
  req_bytes[2] = static_cast<char>(0xFF);
  req_bytes[3] = static_cast<char>(0xFF);
  EncodeRequest req_out;
  EXPECT_FALSE(ParseEncodeRequest(req_bytes, &req_out));
}

TEST(ProtocolTest, BitFlipFuzzedPayloadsNeverCrashParsers) {
  Rng rng(55);
  Rng traj_rng(56);
  const TopKRequest topk{RandomTrajectory(6, 100.0, &traj_rng), 5, -1};
  const PairSimRequest pair{RandomTrajectory(4, 100.0, &traj_rng),
                            RandomTrajectory(5, 100.0, &traj_rng)};
  const std::vector<std::string> payloads = {
      SerializeError({ErrorCode::kBadRequest, "msg"}),
      SerializeEncodeRequest({RandomTrajectory(5, 100.0, &traj_rng)}),
      SerializeEncodeResponse({{1.0, 2.0, 3.0}}),
      SerializePairSimRequest(pair),
      SerializePairSimResponse({1.0, 0.5}),
      SerializeTopKRequest(topk),
      SerializeTopKResponse({{1, 2}, {0.1, 0.2}}),
      SerializeInsertRequest({RandomTrajectory(5, 100.0, &traj_rng)}),
      SerializeInsertResponse({9, 10}),
      SerializeHealthResponse({true, 3, 8, "serving"}),
  };
  for (const std::string& clean : payloads) {
    for (int iter = 0; iter < 100; ++iter) {
      std::string mutated = clean;
      const int flips = static_cast<int>(rng.UniformInt(1, 4));
      for (int i = 0; i < flips && !mutated.empty(); ++i) {
        const auto pos = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
        mutated[pos] = static_cast<char>(
            mutated[pos] ^ (1 << rng.UniformInt(0, 7)));
      }
      // Any result is acceptable; the parsers must simply never crash,
      // hang, or allocate unboundedly (ASan/UBSan runs watch the rest).
      ErrorReply e;
      ParseError(mutated, &e);
      EncodeRequest er;
      ParseEncodeRequest(mutated, &er);
      EncodeResponse eresp;
      ParseEncodeResponse(mutated, &eresp);
      PairSimRequest pr;
      ParsePairSimRequest(mutated, &pr);
      TopKRequest tr;
      ParseTopKRequest(mutated, &tr);
      TopKResponse tresp;
      ParseTopKResponse(mutated, &tresp);
      InsertRequest ir;
      ParseInsertRequest(mutated, &ir);
      StatsResponse sr;
      ParseStatsResponse(mutated, &sr);
      HealthResponse hr;
      ParseHealthResponse(mutated, &hr);
    }
  }
}

// -- MicroBatcher ------------------------------------------------------------

TEST(MicroBatcherTest, SubmitBatchMatchesDirectEmbedExactly) {
  const NeuTrajModel model = MakeModel();
  MicroBatcher::Options opts;
  opts.threads = 4;
  MicroBatcher batcher(model, opts);
  Rng rng(11);
  std::vector<Trajectory> trajs;
  for (int i = 0; i < 10; ++i) {
    trajs.push_back(RandomTrajectory(6, 100.0, &rng));
  }
  MicroBatcher::BatchResult r = batcher.SubmitBatch(trajs).get();
  ASSERT_EQ(r.embeddings.size(), trajs.size());
  for (size_t i = 0; i < trajs.size(); ++i) {
    EXPECT_TRUE(r.errors[i].empty()) << r.errors[i];
    EXPECT_EQ(r.embeddings[i], model.Embed(trajs[i])) << "item " << i;
  }
  const MicroBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.requests, trajs.size());
  EXPECT_GE(stats.batches, 1u);
}

TEST(MicroBatcherTest, GroupsSplitAcrossSmallBatchesStayCorrect) {
  const NeuTrajModel model = MakeModel();
  MicroBatcher::Options opts;
  opts.max_batch = 3;
  MicroBatcher batcher(model, opts);
  Rng rng(13);
  std::vector<Trajectory> trajs;
  for (int i = 0; i < 10; ++i) {
    trajs.push_back(RandomTrajectory(5, 100.0, &rng));
  }
  MicroBatcher::BatchResult r = batcher.SubmitBatch(trajs).get();
  for (size_t i = 0; i < trajs.size(); ++i) {
    EXPECT_EQ(r.embeddings[i], model.Embed(trajs[i])) << "item " << i;
  }
  const MicroBatcher::Stats stats = batcher.stats();
  EXPECT_GE(stats.batches, 4u) << "10 items with max_batch=3";
  EXPECT_LE(stats.max_batch, 3u);
}

TEST(MicroBatcherTest, PerItemFailureDoesNotFailTheGroup) {
  const NeuTrajModel model = MakeModel();
  MicroBatcher batcher(model, MicroBatcher::Options{});
  Rng rng(17);
  std::vector<Trajectory> trajs;
  trajs.push_back(RandomTrajectory(5, 100.0, &rng));
  trajs.push_back(Trajectory());  // Empty: rejected by the encoder.
  trajs.push_back(RandomTrajectory(6, 100.0, &rng));
  MicroBatcher::BatchResult r = batcher.SubmitBatch(trajs).get();
  EXPECT_TRUE(r.errors[0].empty());
  EXPECT_FALSE(r.errors[1].empty());
  EXPECT_EQ(r.bad_input[1], 1);
  EXPECT_TRUE(r.errors[2].empty());
  EXPECT_EQ(r.embeddings[0], model.Embed(trajs[0]));
  EXPECT_EQ(r.embeddings[2], model.Embed(trajs[2]));
}

TEST(MicroBatcherTest, EncodeRethrowsBadInputAsInvalidArgument) {
  const NeuTrajModel model = MakeModel();
  MicroBatcher batcher(model, MicroBatcher::Options{});
  EXPECT_THROW(batcher.Encode(Trajectory()), std::invalid_argument);
  Rng rng(19);
  const Trajectory good = RandomTrajectory(5, 100.0, &rng);
  EXPECT_EQ(batcher.Encode(good), model.Embed(good));
}

TEST(MicroBatcherTest, EmptyGroupCompletesImmediately) {
  const NeuTrajModel model = MakeModel();
  MicroBatcher batcher(model, MicroBatcher::Options{});
  MicroBatcher::BatchResult r = batcher.SubmitBatch({}).get();
  EXPECT_TRUE(r.embeddings.empty());
  EXPECT_TRUE(r.errors.empty());
}

TEST(MicroBatcherTest, ShutdownIsIdempotentAndRefusesLaterWork) {
  const NeuTrajModel model = MakeModel();
  MicroBatcher batcher(model, MicroBatcher::Options{});
  batcher.Shutdown();
  batcher.Shutdown();
  Rng rng(23);
  std::vector<Trajectory> one;
  one.push_back(RandomTrajectory(5, 100.0, &rng));
  EXPECT_THROW(batcher.SubmitBatch(std::move(one)), std::runtime_error);
}

TEST(MicroBatcherTest, RejectsInvalidConfigurations) {
  NeuTrajConfig cfg = SmallConfig();
  cfg.update_memory_at_inference = true;
  NeuTrajModel writing_model(cfg, SmallGrid());
  Rng rng(7);
  writing_model.InitializeWeights(&rng);
  EXPECT_THROW(MicroBatcher(writing_model, MicroBatcher::Options{}),
               std::logic_error);

  const NeuTrajModel model = MakeModel();
  MicroBatcher::Options zero_batch;
  zero_batch.max_batch = 0;
  EXPECT_THROW(MicroBatcher(model, zero_batch), std::invalid_argument);
}

TEST(MicroBatcherTest, IdleBatcherDispatchesAtOnce) {
  const NeuTrajModel model = MakeModel();
  MicroBatcher batcher(model, MicroBatcher::Options{});
  obs::MetricsRegistry registry;
  obs::RequestTracer tracer(&registry);
  Rng rng(19);
  double min_wait_us = 1e300;
  for (uint64_t i = 1; i <= 20; ++i) {
    auto trace = std::make_shared<obs::RequestTrace>(
        obs::TraceContext{i, /*sampled=*/true}, "encode");
    batcher.Encode(RandomTrajectory(8, 100.0, &rng), trace.get());
    tracer.Finish(trace);
    const std::vector<obs::FinishedTrace> last = tracer.Dump(1);
    for (const obs::FinishedSpan& span : last[0].spans) {
      if (span.stage == "queue_wait") {
        min_wait_us = std::min(min_wait_us, span.dur_us);
      }
    }
  }
  // A lone item on an idle batcher is not held back waiting for company;
  // the best of 20 only pays the batcher thread's wake-up.
  EXPECT_LT(min_wait_us, 200.0);
}

TEST(MicroBatcherTest, ItemsQueuedBehindARunningBatchShipTogether) {
  const NeuTrajModel model = MakeModel();
  MicroBatcher batcher(model, MicroBatcher::Options{});
  Rng rng(23);
  std::vector<Trajectory> slow;
  slow.push_back(RandomTrajectory(200000, 100.0, &rng));
  std::future<MicroBatcher::BatchResult> slow_result =
      batcher.SubmitBatch(std::move(slow));
  // Batch 1 (the slow item alone) is counted when the batcher takes it.
  while (batcher.stats().batches == 0) std::this_thread::yield();

  std::vector<std::future<MicroBatcher::BatchResult>> quick;
  for (int i = 0; i < 8; ++i) {
    std::vector<Trajectory> one;
    one.push_back(RandomTrajectory(6, 100.0, &rng));
    quick.push_back(batcher.SubmitBatch(std::move(one)));
  }
  ASSERT_NE(slow_result.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "the slow item finished before the quick ones were queued";
  EXPECT_TRUE(slow_result.get().errors[0].empty());
  for (auto& f : quick) EXPECT_TRUE(f.get().errors[0].empty());

  const MicroBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.requests, 9u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.max_batch, 8u);
}

// -- QueryService ------------------------------------------------------------

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest()
      : corpus_(MakeCorpus(12, 123)),
        model_(MakeModel()),
        db_(EmbeddingDatabase::Build(model_, corpus_, 2)),
        svc_(model_, &db_, MicroBatcher::Options{}) {}

  std::vector<Trajectory> corpus_;
  NeuTrajModel model_;
  EmbeddingDatabase db_;
  QueryService svc_;
};

TEST_F(ServiceTest, EncodeMatchesDirectEmbed) {
  Rng rng(31);
  const Trajectory t = RandomTrajectory(6, 100.0, &rng);
  const WireFrame reply =
      svc_.Handle(Req(MsgType::kEncodeRequest, SerializeEncodeRequest({t})));
  ASSERT_EQ(reply.type, static_cast<uint16_t>(MsgType::kEncodeResponse));
  EncodeResponse resp;
  ASSERT_TRUE(ParseEncodeResponse(reply.payload, &resp));
  EXPECT_EQ(resp.embedding, model_.Embed(t));
}

TEST_F(ServiceTest, PairSimMatchesEmbeddingSpaceMeasures) {
  const WireFrame reply = svc_.Handle(
      Req(MsgType::kPairSimRequest,
          SerializePairSimRequest({corpus_[0], corpus_[1]})));
  ASSERT_EQ(reply.type, static_cast<uint16_t>(MsgType::kPairSimResponse));
  PairSimResponse resp;
  ASSERT_TRUE(ParsePairSimResponse(reply.payload, &resp));
  const nn::Vector ea = model_.Embed(corpus_[0]);
  const nn::Vector eb = model_.Embed(corpus_[1]);
  EXPECT_DOUBLE_EQ(resp.distance, EmbeddingDistance(ea, eb));
  EXPECT_DOUBLE_EQ(resp.similarity, EmbeddingSimilarity(ea, eb));
  EXPECT_DOUBLE_EQ(resp.similarity, std::exp(-resp.distance));
}

TEST_F(ServiceTest, TopKMatchesInProcessDatabaseExactly) {
  TopKRequest req;
  req.query = corpus_[3];
  req.k = 5;
  req.exclude = 3;
  const WireFrame reply =
      svc_.Handle(Req(MsgType::kTopKRequest, SerializeTopKRequest(req)));
  ASSERT_EQ(reply.type, static_cast<uint16_t>(MsgType::kTopKResponse));
  TopKResponse resp;
  ASSERT_TRUE(ParseTopKResponse(reply.payload, &resp));

  const SearchResult expected = db_.TopK(model_.Embed(corpus_[3]), 5, 3);
  ASSERT_EQ(resp.ids.size(), expected.ids.size());
  for (size_t i = 0; i < expected.ids.size(); ++i) {
    EXPECT_EQ(resp.ids[i], expected.ids[i]) << "rank " << i;
    EXPECT_EQ(resp.dists[i], expected.dists[i]) << "rank " << i;
  }
}

TEST_F(ServiceTest, InsertAppendsAndBecomesSearchable) {
  const size_t before = db_.size();
  Rng rng(37);
  const Trajectory fresh = RandomTrajectory(8, 100.0, &rng);
  const WireFrame reply = svc_.Handle(
      Req(MsgType::kInsertRequest, SerializeInsertRequest({fresh})));
  ASSERT_EQ(reply.type, static_cast<uint16_t>(MsgType::kInsertResponse));
  InsertResponse resp;
  ASSERT_TRUE(ParseInsertResponse(reply.payload, &resp));
  EXPECT_EQ(resp.id, before);
  EXPECT_EQ(resp.corpus_size, before + 1);
  EXPECT_EQ(db_.size(), before + 1);

  // The inserted trajectory is its own nearest neighbor (distance 0).
  TopKRequest query;
  query.query = fresh;
  query.k = 1;
  const WireFrame topk_reply =
      svc_.Handle(Req(MsgType::kTopKRequest, SerializeTopKRequest(query)));
  TopKResponse topk;
  ASSERT_TRUE(ParseTopKResponse(topk_reply.payload, &topk));
  ASSERT_EQ(topk.ids.size(), 1u);
  EXPECT_EQ(topk.ids[0], resp.id);
  EXPECT_EQ(topk.dists[0], 0.0);
}

TEST_F(ServiceTest, MalformedPayloadsAreBadRequests) {
  for (const MsgType type : {MsgType::kEncodeRequest, MsgType::kPairSimRequest,
                             MsgType::kTopKRequest, MsgType::kInsertRequest}) {
    const ErrorReply err = GetError(svc_.Handle(Req(type, "not a payload")));
    EXPECT_EQ(err.code, ErrorCode::kBadRequest)
        << "type " << static_cast<int>(type);
  }
}

TEST_F(ServiceTest, EmptyTrajectoriesAreBadRequests) {
  const ErrorReply err = GetError(svc_.Handle(
      Req(MsgType::kEncodeRequest, SerializeEncodeRequest({Trajectory()}))));
  EXPECT_EQ(err.code, ErrorCode::kBadRequest);

  TopKRequest topk;
  topk.query = corpus_[0];
  topk.k = 0;
  const ErrorReply kerr = GetError(
      svc_.Handle(Req(MsgType::kTopKRequest, SerializeTopKRequest(topk))));
  EXPECT_EQ(kerr.code, ErrorCode::kBadRequest);
}

TEST_F(ServiceTest, UnknownAndResponseTypesAreRejected) {
  WireFrame odd;
  odd.type = 999;
  EXPECT_EQ(GetError(svc_.Handle(odd)).code, ErrorCode::kUnknownType);
  // Response types are not requests; feeding one back is a protocol error.
  EXPECT_EQ(GetError(svc_.Handle(Req(MsgType::kEncodeResponse))).code,
            ErrorCode::kUnknownType);
  EXPECT_EQ(GetError(svc_.Handle(Req(MsgType::kError))).code,
            ErrorCode::kUnknownType);
}

TEST_F(ServiceTest, HealthReportsCorpusShape) {
  const WireFrame reply = svc_.Handle(Req(MsgType::kHealthRequest));
  ASSERT_EQ(reply.type, static_cast<uint16_t>(MsgType::kHealthResponse));
  HealthResponse resp;
  ASSERT_TRUE(ParseHealthResponse(reply.payload, &resp));
  EXPECT_TRUE(resp.ok);
  EXPECT_EQ(resp.corpus_size, corpus_.size());
  EXPECT_EQ(resp.dim, 8u);
  EXPECT_EQ(resp.status, "serving");
}

TEST_F(ServiceTest, StatsCountRequestsAndErrors) {
  Rng rng(41);
  const Trajectory t = RandomTrajectory(5, 100.0, &rng);
  for (int i = 0; i < 3; ++i) {
    svc_.Handle(Req(MsgType::kEncodeRequest, SerializeEncodeRequest({t})));
  }
  svc_.Handle(Req(MsgType::kEncodeRequest, "garbage"));  // One error.

  const WireFrame reply = svc_.Handle(Req(MsgType::kStatsRequest));
  ASSERT_EQ(reply.type, static_cast<uint16_t>(MsgType::kStatsResponse));
  StatsResponse resp;
  ASSERT_TRUE(ParseStatsResponse(reply.payload, &resp));
  EXPECT_EQ(resp.stats.corpus_size, corpus_.size());
  EXPECT_EQ(resp.stats.dim, 8u);
  EXPECT_GE(resp.stats.batched_requests, 3u);
  ASSERT_EQ(resp.stats.endpoints.size(),
            static_cast<size_t>(Endpoint::kCount));
  const EndpointSnapshot& encode =
      resp.stats.endpoints[static_cast<size_t>(Endpoint::kEncode)];
  EXPECT_EQ(encode.name, "encode");
  EXPECT_EQ(encode.requests, 4u);
  EXPECT_EQ(encode.errors, 1u);
  EXPECT_GT(encode.qps, 0.0);
}

TEST_F(ServiceTest, DrainingRefusesWorkButServesHealthAndStats) {
  svc_.SetDraining(true);
  Rng rng(43);
  const Trajectory t = RandomTrajectory(5, 100.0, &rng);
  for (const auto& [type, payload] :
       std::vector<std::pair<MsgType, std::string>>{
           {MsgType::kEncodeRequest, SerializeEncodeRequest({t})},
           {MsgType::kPairSimRequest, SerializePairSimRequest({t, t})},
           {MsgType::kTopKRequest, SerializeTopKRequest({t, 3, -1})},
           {MsgType::kInsertRequest, SerializeInsertRequest({t})}}) {
    EXPECT_EQ(GetError(svc_.Handle(Req(type, payload))).code,
              ErrorCode::kShuttingDown);
  }
  HealthResponse health;
  const WireFrame hreply = svc_.Handle(Req(MsgType::kHealthRequest));
  ASSERT_TRUE(ParseHealthResponse(hreply.payload, &health));
  EXPECT_EQ(health.status, "draining");
  EXPECT_EQ(svc_.Handle(Req(MsgType::kStatsRequest)).type,
            static_cast<uint16_t>(MsgType::kStatsResponse));

  svc_.SetDraining(false);
  EXPECT_EQ(svc_.Handle(Req(MsgType::kEncodeRequest,
                            SerializeEncodeRequest({t})))
                .type,
            static_cast<uint16_t>(MsgType::kEncodeResponse));
}

TEST_F(ServiceTest, FrameErrorRepliesCarryTypedCodes) {
  EXPECT_EQ(GetError(QueryService::FrameErrorReply(FrameStatus::kOversized))
                .code,
            ErrorCode::kOversizedFrame);
  for (const FrameStatus s : {FrameStatus::kBadMagic, FrameStatus::kBadVersion,
                              FrameStatus::kBadChecksum}) {
    EXPECT_EQ(GetError(QueryService::FrameErrorReply(s)).code,
              ErrorCode::kMalformedFrame);
  }
}

TEST_F(ServiceTest, PipelinedEncodePathMatchesHandle) {
  Rng rng(47);
  std::vector<Trajectory> trajs;
  for (int i = 0; i < 5; ++i) {
    trajs.push_back(RandomTrajectory(5, 100.0, &rng));
  }
  std::vector<Trajectory> group;
  for (const Trajectory& t : trajs) {
    EXPECT_TRUE(svc_.CollectEncode(
        Req(MsgType::kEncodeRequest, SerializeEncodeRequest({t})), &group));
  }
  ASSERT_EQ(group.size(), trajs.size());
  auto pending = svc_.BeginEncodes(std::move(group));
  ASSERT_TRUE(pending.has_value());
  const std::vector<WireFrame> replies =
      svc_.FinishEncodes(std::move(*pending));
  ASSERT_EQ(replies.size(), trajs.size());
  for (size_t i = 0; i < trajs.size(); ++i) {
    ASSERT_EQ(replies[i].type,
              static_cast<uint16_t>(MsgType::kEncodeResponse));
    EncodeResponse resp;
    ASSERT_TRUE(ParseEncodeResponse(replies[i].payload, &resp));
    EXPECT_EQ(resp.embedding, model_.Embed(trajs[i])) << "item " << i;
  }
}

TEST_F(ServiceTest, CollectEncodeDeclinesEverythingHandleMustAnswer) {
  Rng rng(53);
  const Trajectory t = RandomTrajectory(5, 100.0, &rng);
  std::vector<Trajectory> group;
  // Non-encode frames, malformed payloads, and empty trajectories fall
  // through to Handle() for a precise reply.
  EXPECT_FALSE(svc_.CollectEncode(
      Req(MsgType::kTopKRequest, SerializeTopKRequest({t, 3, -1})), &group));
  EXPECT_FALSE(
      svc_.CollectEncode(Req(MsgType::kEncodeRequest, "garbage"), &group));
  EXPECT_FALSE(svc_.CollectEncode(
      Req(MsgType::kEncodeRequest, SerializeEncodeRequest({Trajectory()})),
      &group));
  svc_.SetDraining(true);
  EXPECT_FALSE(svc_.CollectEncode(
      Req(MsgType::kEncodeRequest, SerializeEncodeRequest({t})), &group));
  svc_.SetDraining(false);
  EXPECT_TRUE(group.empty());
  EXPECT_FALSE(svc_.BeginEncodes(std::move(group)).has_value());
}

TEST_F(ServiceTest, FuzzedRequestsAlwaysGetAReply) {
  Rng rng(59);
  const std::vector<uint16_t> types = {0, 1, 2, 3, 5, 7, 9, 11, 500};
  for (const uint16_t type : types) {
    for (int iter = 0; iter < 50; ++iter) {
      const auto len = static_cast<size_t>(rng.UniformInt(0, 48));
      std::string payload(len, '\0');
      for (char& c : payload) {
        c = static_cast<char>(rng.UniformInt(0, 255));
      }
      WireFrame request;
      request.type = type;
      request.payload = std::move(payload);
      const WireFrame reply = svc_.Handle(request);
      // Every fuzzed frame gets exactly one well-formed reply: a parseable
      // kError or a response of the paired type.
      if (reply.type == static_cast<uint16_t>(MsgType::kError)) {
        ErrorReply err;
        EXPECT_TRUE(ParseError(reply.payload, &err));
      } else {
        EXPECT_EQ(reply.type, static_cast<uint16_t>(type) + 1);
      }
    }
  }
}

// -- EmbeddingDatabase serving semantics -------------------------------------

TEST(EmbeddingDbServeTest, InsertAssignsDenseIdsAndFixesDimension) {
  EmbeddingDatabase db;
  EXPECT_EQ(db.Insert(nn::Vector{1.0, 2.0}), 0u);
  EXPECT_EQ(db.Insert(nn::Vector{3.0, 4.0}), 1u);
  EXPECT_EQ(db.dim(), 2u);
  EXPECT_EQ(db.size(), 2u);
  EXPECT_THROW(db.Insert(nn::Vector{1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(EmbeddingDbServeTest, TopKTiesBreakByAscendingId) {
  EmbeddingDatabase db;
  // Ids 0..3 all sit at distance sqrt(2) from the origin query; 4 is the
  // unique nearest. Ties must come back in ascending id order.
  db.Insert(nn::Vector{1.0, 1.0});
  db.Insert(nn::Vector{-1.0, 1.0});
  db.Insert(nn::Vector{1.0, -1.0});
  db.Insert(nn::Vector{-1.0, -1.0});
  db.Insert(nn::Vector{0.5, 0.0});
  const SearchResult r = db.TopK(nn::Vector{0.0, 0.0}, 4);
  ASSERT_EQ(r.ids.size(), 4u);
  EXPECT_EQ(r.ids[0], 4u);
  EXPECT_EQ(r.ids[1], 0u);
  EXPECT_EQ(r.ids[2], 1u);
  EXPECT_EQ(r.ids[3], 2u);
  // And `exclude` removes exactly one id from the ranking.
  const SearchResult ex = db.TopK(nn::Vector{0.0, 0.0}, 4, /*exclude=*/0);
  EXPECT_EQ(ex.ids[1], 1u);
}

TEST(EmbeddingDbServeTest, ModelInsertMatchesDirectEmbed) {
  const NeuTrajModel model = MakeModel();
  const std::vector<Trajectory> corpus = MakeCorpus(6, 61);
  EmbeddingDatabase db = EmbeddingDatabase::Build(model, corpus, 2);
  Rng rng(67);
  const Trajectory fresh = RandomTrajectory(7, 100.0, &rng);
  const size_t id = db.Insert(model, fresh);
  EXPECT_EQ(id, corpus.size());
  EXPECT_EQ(db.at(id), model.Embed(fresh));
}

// -- Serving stats -----------------------------------------------------------

TEST(LatencyHistogramTest, BucketsMeanMaxAndPercentiles) {
  LatencyHistogram h;
  EXPECT_EQ(h.PercentileMicros(0.5), 0.0);
  for (int i = 0; i < 90; ++i) h.Record(3.0);    // Bucket (2, 4].
  for (int i = 0; i < 10; ++i) h.Record(100.0);  // Bucket (64, 128].
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.mean_micros(), (90 * 3.0 + 10 * 100.0) / 100.0);
  EXPECT_EQ(h.max_micros(), 100.0);
  // Percentiles interpolate within the containing bucket and are capped at
  // the tracked max: p50 sits halfway into (2, 4] by rank, p90 exhausts the
  // bucket, and p99 would interpolate to 121.6 in (64, 128] but no sample
  // exceeded 100 µs.
  EXPECT_DOUBLE_EQ(h.PercentileMicros(0.5), 2.0 + 2.0 * (50.0 / 90.0));
  EXPECT_DOUBLE_EQ(h.PercentileMicros(0.9), 4.0);
  EXPECT_DOUBLE_EQ(h.PercentileMicros(0.99), 100.0);
}

TEST(ServerStatsTest, SnapshotFreezesPerEndpointCounters) {
  // A dedicated registry keeps this test's counts isolated from anything
  // else in the binary that records into MetricsRegistry::Global().
  obs::MetricsRegistry registry;
  ServerStats stats(&registry);
  stats.Record(Endpoint::kEncode, 10.0, /*error=*/false);
  stats.Record(Endpoint::kEncode, 20.0, /*error=*/true);
  stats.Record(Endpoint::kTopK, 5.0, /*error=*/false);
  const StatsSnapshot snap = stats.Snapshot();
  ASSERT_EQ(snap.endpoints.size(), static_cast<size_t>(Endpoint::kCount));
  const EndpointSnapshot& encode =
      snap.endpoints[static_cast<size_t>(Endpoint::kEncode)];
  EXPECT_EQ(encode.name, "encode");
  EXPECT_EQ(encode.requests, 2u);
  EXPECT_EQ(encode.errors, 1u);
  EXPECT_DOUBLE_EQ(encode.mean_micros, 15.0);
  const EndpointSnapshot& topk =
      snap.endpoints[static_cast<size_t>(Endpoint::kTopK)];
  EXPECT_EQ(topk.requests, 1u);
  EXPECT_EQ(topk.errors, 0u);
  const EndpointSnapshot& idle =
      snap.endpoints[static_cast<size_t>(Endpoint::kInsert)];
  EXPECT_EQ(idle.requests, 0u);
  EXPECT_GT(snap.uptime_seconds, 0.0);
}

TEST(ServerStatsTest, LockFreeRecordingKeepsExactCountsUnderContention) {
  // Record() is per-endpoint atomics (no shared mutex); hammer two
  // endpoints from several threads and demand exact request/error totals.
  obs::MetricsRegistry registry;
  ServerStats stats(&registry);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stats] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        stats.Record(Endpoint::kEncode, 2.0, /*error=*/i % 10 == 0);
        stats.Record(Endpoint::kTopK, 5.0, /*error=*/false);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const StatsSnapshot snap = stats.Snapshot();
  constexpr uint64_t kTotal = uint64_t{kThreads} * kOpsPerThread;
  const EndpointSnapshot& encode =
      snap.endpoints[static_cast<size_t>(Endpoint::kEncode)];
  EXPECT_EQ(encode.requests, kTotal);
  EXPECT_EQ(encode.errors, kTotal / 10);
  EXPECT_DOUBLE_EQ(encode.mean_micros, 2.0);
  const EndpointSnapshot& topk =
      snap.endpoints[static_cast<size_t>(Endpoint::kTopK)];
  EXPECT_EQ(topk.requests, kTotal);
  EXPECT_EQ(topk.errors, 0u);
}

}  // namespace
}  // namespace neutraj::serve
