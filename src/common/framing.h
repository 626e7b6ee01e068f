// Length-prefixed, checksummed framing — on-disk sections and wire frames.
//
// Two container formats live here:
//
// 1. On-disk section framing (SectionWriter/SectionReader). Model files and
//    training checkpoints share this text container so a truncated or
//    bit-flipped file is rejected with a precise error instead of being
//    half-parsed into a corrupt in-memory object:
//
//      NEUTRAJ-FILE v1 <kind>\n
//      SECTION <name> <size-bytes> <crc32-hex>\n
//      <exactly size-bytes payload bytes>\n
//      ... more sections ...
//      END\n
//
//    Payloads are opaque byte strings, text or binary: sizes are explicit,
//    so a payload may hold newlines and any other byte. Model files and
//    checkpoints store text; corpus snapshots (core/embedding_db.h) store
//    raw little-endian doubles. Every section is CRC32-verified at parse
//    time.
//
// 2. Binary wire frames (EncodeWireFrame/DecodeWireFrame), the unit of
//    exchange on the serving sockets (src/serve/). A frame is a fixed
//    16-byte little-endian header followed by the payload:
//
//      offset  size  field
//      0       4     magic "NTJW"
//      4       2     protocol version (kWireVersion)
//      6       2     message type (opaque to this layer)
//      8       4     payload size in bytes
//      12      4     CRC32 of the payload
//      16      n     payload
//
//    Decoding returns a typed FrameStatus instead of asserting or throwing:
//    a socket reader must distinguish "need more bytes" (kIncomplete) from
//    hard protocol errors (bad magic/version, oversized declaration,
//    checksum mismatch) that warrant an error reply and a disconnect.

#ifndef NEUTRAJ_COMMON_FRAMING_H_
#define NEUTRAJ_COMMON_FRAMING_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace neutraj {

/// Accumulates named sections and renders the framed file contents.
class SectionWriter {
 public:
  /// `kind` tags the artifact type ("model", "checkpoint", ...); readers
  /// verify it so a checkpoint cannot be loaded where a model is expected.
  explicit SectionWriter(std::string kind) : kind_(std::move(kind)) {}

  /// Appends one section. Names must be non-empty and space-free.
  void Add(const std::string& name, std::string payload);

  /// Full file contents (header + sections + END marker).
  std::string Finish() const;

 private:
  std::string kind_;
  std::vector<std::pair<std::string, std::string>> sections_;
};

/// Parses and verifies a framed file in one pass.
///
/// Throws CorruptionError (common/errors.h; a std::runtime_error carrying
/// source/section/offset context) on a bad header, a kind mismatch, a
/// truncated section, a checksum mismatch, or a missing END marker. After
/// construction every section is verified.
class SectionReader {
 public:
  SectionReader(const std::string& contents, const std::string& expected_kind,
                const std::string& source);

  bool Has(const std::string& name) const;

  /// Payload of section `name`; throws std::runtime_error if absent.
  const std::string& Get(const std::string& name) const;

 private:
  std::string source_;
  std::vector<std::pair<std::string, std::string>> sections_;
};

// ---------------------------------------------------------------------------
// Binary wire frames.

/// Current wire protocol version; bumped on incompatible header or payload
/// layout changes. Decoders reject every other version.
inline constexpr uint16_t kWireVersion = 1;

/// Size of the fixed frame header preceding the payload.
inline constexpr size_t kWireHeaderSize = 16;

/// Default ceiling on a single frame's payload. A declared size above the
/// limit is rejected as kOversized *before* waiting for the payload bytes,
/// so a corrupt or hostile length field cannot make a reader buffer
/// gigabytes. 16 MiB comfortably fits any request this repo produces
/// (a 100k-point trajectory is ~1.6 MB).
inline constexpr size_t kWireMaxPayload = 16u << 20;

/// Outcome of decoding one wire frame from a byte buffer.
enum class FrameStatus {
  kOk = 0,       ///< A complete, verified frame was decoded.
  kIncomplete,   ///< Buffer ends mid-frame: read more bytes and retry.
  kBadMagic,     ///< First bytes are not "NTJW"; stream is not speaking
                 ///< this protocol (or has lost sync).
  kBadVersion,   ///< Header version != kWireVersion.
  kOversized,    ///< Declared payload size exceeds the caller's limit.
  kBadChecksum,  ///< Payload present but CRC32 mismatch: corruption.
};

/// Human-readable name for a FrameStatus ("ok", "incomplete", ...).
const char* FrameStatusName(FrameStatus s);

/// One decoded wire frame: a message type plus an opaque payload.
struct WireFrame {
  uint16_t type = 0;
  std::string payload;
};

/// Renders a frame (header + payload). Throws std::length_error if
/// `payload` exceeds `max_payload` — the encoder enforces the same limit
/// decoders do, so a conforming sender can never emit an unreadable frame.
std::string EncodeWireFrame(uint16_t type, const std::string& payload,
                            size_t max_payload = kWireMaxPayload);

/// Attempts to decode one frame from `buffer` starting at `*offset`.
///
/// On kOk, fills `*out` and advances `*offset` past the frame. On
/// kIncomplete, leaves `*offset` untouched — append more bytes and retry.
/// On any hard error, `*offset` is left untouched; the stream cannot be
/// resynchronized and should be dropped after an error reply.
FrameStatus DecodeWireFrame(const std::string& buffer, size_t* offset,
                            WireFrame* out,
                            size_t max_payload = kWireMaxPayload);

}  // namespace neutraj

#endif  // NEUTRAJ_COMMON_FRAMING_H_
