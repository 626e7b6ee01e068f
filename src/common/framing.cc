#include "common/framing.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/byte_codec.h"
#include "common/checksum.h"
#include "common/errors.h"
#include "common/string_util.h"

namespace neutraj {

namespace {

constexpr char kMagic[] = "NEUTRAJ-FILE v1 ";
constexpr char kEnd[] = "END";

}  // namespace

void SectionWriter::Add(const std::string& name, std::string payload) {
  if (name.empty() || name.find_first_of(" \n") != std::string::npos) {
    throw std::invalid_argument("SectionWriter: bad section name '" + name + "'");
  }
  sections_.emplace_back(name, std::move(payload));
}

std::string SectionWriter::Finish() const {
  std::string out = kMagic + kind_ + "\n";
  for (const auto& [name, payload] : sections_) {
    out += StrFormat("SECTION %s %zu %08x\n", name.c_str(), payload.size(),
                     Crc32(payload));
    out += payload;
    out += '\n';
  }
  out += kEnd;
  out += '\n';
  return out;
}

SectionReader::SectionReader(const std::string& contents,
                             const std::string& expected_kind,
                             const std::string& source)
    : source_(source) {
  size_t pos = 0;
  auto next_line = [&](std::string* line) -> bool {
    if (pos >= contents.size()) return false;
    const size_t nl = contents.find('\n', pos);
    if (nl == std::string::npos) {
      *line = contents.substr(pos);
      pos = contents.size();
    } else {
      *line = contents.substr(pos, nl - pos);
      pos = nl + 1;
    }
    return true;
  };

  std::string line;
  if (!next_line(&line) || line.rfind(kMagic, 0) != 0) {
    throw CorruptionError(source_, "", 0,
                          "not a NEUTRAJ-FILE (bad or missing header)");
  }
  const std::string kind = line.substr(sizeof(kMagic) - 1);
  if (kind != expected_kind) {
    throw CorruptionError(source_, "", 0,
                          "wrong artifact kind '" + kind + "' (expected '" +
                              expected_kind + "')");
  }

  bool saw_end = false;
  while (true) {
    const size_t header_pos = pos;
    if (!next_line(&line)) break;
    if (line == kEnd) {
      saw_end = true;
      break;
    }
    const auto fields = Split(line, ' ');
    if (fields.size() != 4 || fields[0] != "SECTION") {
      throw CorruptionError(source_, "", header_pos,
                            "malformed section header '" + line + "'");
    }
    const std::string& name = fields[1];
    size_t size = 0;
    unsigned long stored_crc = 0;
    try {
      size = std::stoull(fields[2]);
      stored_crc = std::stoul(fields[3], nullptr, 16);
    } catch (const std::exception&) {
      throw CorruptionError(source_, name, header_pos,
                            "malformed section header '" + line + "'");
    }
    const size_t payload_pos = pos;
    if (pos + size > contents.size()) {
      throw CorruptionError(source_, name, payload_pos,
                            "truncated (need " + std::to_string(size) +
                                " bytes, have " +
                                std::to_string(contents.size() - pos) + ")");
    }
    std::string payload = contents.substr(pos, size);
    pos += size;
    if (pos >= contents.size() || contents[pos] != '\n') {
      throw CorruptionError(source_, name, payload_pos,
                            "framing error (missing terminator)");
    }
    ++pos;
    const uint32_t crc = Crc32(payload);
    if (crc != static_cast<uint32_t>(stored_crc)) {
      throw CorruptionError(
          source_, name, payload_pos,
          "checksum mismatch (stored " + StrFormat("%08lx", stored_crc) +
              ", computed " + StrFormat("%08x", crc) + ") — file is corrupt");
    }
    sections_.emplace_back(name, std::move(payload));
  }
  if (!saw_end) {
    throw CorruptionError(source_, "", contents.size(),
                          "missing END marker (file truncated)");
  }
}

namespace {

constexpr char kWireMagic[4] = {'N', 'T', 'J', 'W'};

}  // namespace

const char* FrameStatusName(FrameStatus s) {
  switch (s) {
    case FrameStatus::kOk: return "ok";
    case FrameStatus::kIncomplete: return "incomplete";
    case FrameStatus::kBadMagic: return "bad-magic";
    case FrameStatus::kBadVersion: return "bad-version";
    case FrameStatus::kOversized: return "oversized";
    case FrameStatus::kBadChecksum: return "bad-checksum";
  }
  return "unknown";
}

std::string EncodeWireFrame(uint16_t type, const std::string& payload,
                            size_t max_payload) {
  if (payload.size() > max_payload) {
    throw std::length_error("EncodeWireFrame: payload of " +
                            std::to_string(payload.size()) +
                            " bytes exceeds the frame limit of " +
                            std::to_string(max_payload));
  }
  ByteWriter w;
  w.Reserve(kWireHeaderSize + payload.size());
  w.Bytes({kWireMagic, sizeof(kWireMagic)});
  w.U16(kWireVersion);
  w.U16(type);
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U32(Crc32(payload));
  w.Bytes(payload);
  return w.Take();
}

FrameStatus DecodeWireFrame(const std::string& buffer, size_t* offset,
                            WireFrame* out, size_t max_payload) {
  const size_t avail = buffer.size() - *offset;
  // Reject a wrong magic as soon as the divergent byte is visible — a
  // stream that is not speaking this protocol should fail fast, not hang
  // waiting for a full header that will never parse.
  for (size_t i = 0; i < std::min(avail, sizeof(kWireMagic)); ++i) {
    if (buffer[*offset + i] != kWireMagic[i]) return FrameStatus::kBadMagic;
  }
  if (avail < kWireHeaderSize) return FrameStatus::kIncomplete;

  // The header is complete, so none of these reads can fail.
  ByteReader header(std::string_view(buffer).substr(
      *offset + sizeof(kWireMagic), kWireHeaderSize - sizeof(kWireMagic)));
  uint16_t version = 0;
  uint16_t type = 0;
  uint32_t size = 0;
  uint32_t stored_crc = 0;
  header.U16(&version);
  header.U16(&type);
  header.U32(&size);
  header.U32(&stored_crc);
  if (version != kWireVersion) return FrameStatus::kBadVersion;
  // Checked against the limit before requiring the payload bytes, so an
  // absurd declared size is an immediate error, not an endless read.
  if (size > max_payload) return FrameStatus::kOversized;
  if (avail < kWireHeaderSize + size) return FrameStatus::kIncomplete;

  std::string payload(buffer, *offset + kWireHeaderSize, size);
  if (Crc32(payload) != stored_crc) return FrameStatus::kBadChecksum;
  out->type = type;
  out->payload = std::move(payload);
  *offset += kWireHeaderSize + size;
  return FrameStatus::kOk;
}

bool SectionReader::Has(const std::string& name) const {
  for (const auto& [n, p] : sections_) {
    if (n == name) return true;
  }
  return false;
}

const std::string& SectionReader::Get(const std::string& name) const {
  for (const auto& [n, p] : sections_) {
    if (n == name) return p;
  }
  throw CorruptionError(source_, name, 0, "missing section");
}

}  // namespace neutraj
