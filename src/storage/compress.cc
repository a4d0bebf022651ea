#include "storage/compress.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/byte_buffer.h"
#include "common/macros.h"

namespace photon {
namespace {

constexpr int kHashLog = 14;
constexpr int kHashSize = 1 << kHashLog;
constexpr int kMinMatch = 4;
constexpr int kMaxOffset = 65535;

PHOTON_ALWAYS_INLINE uint32_t Read32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

PHOTON_ALWAYS_INLINE uint32_t Hash4(uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashLog);
}

void WriteLength(std::string* out, size_t len) {
  // LZ4-style length extension: 255-run bytes then remainder.
  while (len >= 255) {
    out->push_back(static_cast<char>(255));
    len -= 255;
  }
  out->push_back(static_cast<char>(len));
}

std::string LzCompress(std::string_view input) {
  std::string out;
  out.reserve(input.size() / 2 + 64);
  const char* base = input.data();
  const char* end = base + input.size();
  const char* anchor = base;
  const char* p = base;

  std::vector<int32_t> table(kHashSize, -1);

  auto emit_sequence = [&](const char* lit_end, const char* match,
                           int match_len) {
    size_t lit_len = static_cast<size_t>(lit_end - anchor);
    uint8_t token =
        static_cast<uint8_t>((lit_len < 15 ? lit_len : 15) << 4) |
        static_cast<uint8_t>(match_len - kMinMatch < 15
                                 ? match_len - kMinMatch
                                 : 15);
    out.push_back(static_cast<char>(token));
    if (lit_len >= 15) WriteLength(&out, lit_len - 15);
    out.append(anchor, lit_len);
    uint16_t offset = static_cast<uint16_t>(lit_end - match);
    out.push_back(static_cast<char>(offset & 0xFF));
    out.push_back(static_cast<char>(offset >> 8));
    if (match_len - kMinMatch >= 15) {
      WriteLength(&out, static_cast<size_t>(match_len - kMinMatch) - 15);
    }
  };

  if (input.size() >= 13) {
    const char* match_limit = end - 5;  // keep final literals uncompressed
    while (p + kMinMatch <= match_limit) {
      uint32_t h = Hash4(Read32(p));
      int32_t cand = table[h];
      table[h] = static_cast<int32_t>(p - base);
      if (cand >= 0 && (p - base) - cand <= kMaxOffset &&
          Read32(base + cand) == Read32(p)) {
        const char* match = base + cand;
        int match_len = kMinMatch;
        while (p + match_len < match_limit &&
               p[match_len] == match[match_len]) {
          match_len++;
        }
        emit_sequence(p, match, match_len);
        p += match_len;
        anchor = p;
      } else {
        p++;
      }
    }
  }
  // Trailing literals as a final sequence with match_len == 0 marker:
  // token with match nibble 0 and offset 0 means "literals only, end".
  size_t lit_len = static_cast<size_t>(end - anchor);
  uint8_t token = static_cast<uint8_t>((lit_len < 15 ? lit_len : 15) << 4);
  out.push_back(static_cast<char>(token));
  if (lit_len >= 15) WriteLength(&out, lit_len - 15);
  out.append(anchor, lit_len);
  out.push_back(0);
  out.push_back(0);
  return out;
}

/// Adds an LZ4-style length extension (255-run bytes then remainder) to
/// `*len` when its 4-bit base is 15. False when the payload ends first.
PHOTON_ALWAYS_INLINE bool ReadLength(const char*& p, const char* end,
                                     size_t* len) {
  if (*len != 15) return true;
  while (p < end) {
    uint8_t b = static_cast<uint8_t>(*p++);
    *len += b;
    if (b != 255) return true;
  }
  return false;
}

/// Decodes into [dst, dst + size), which has DecodeBuffer::kSlack writable
/// bytes after it. Every literal and match is checked against the end of
/// the decoded size before it is copied, so the wild copies below write
/// at most kSlack bytes past that end and never read past the payload.
Status LzDecompress(std::string_view payload, char* dst, size_t size) {
  const char* p = payload.data();
  const char* end = p + payload.size();
  char* op = dst;
  char* const oend = dst + size;
  while (p < end) {
    uint8_t token = static_cast<uint8_t>(*p++);
    size_t lit_len = token >> 4;
    if (!ReadLength(p, end, &lit_len)) {
      return Status::IoError("lz: truncated length");
    }
    if (lit_len > static_cast<size_t>(end - p)) {
      return Status::IoError("lz: truncated literals");
    }
    if (lit_len > static_cast<size_t>(oend - op)) {
      return Status::IoError("lz: literals past decoded size");
    }
    if (lit_len <= 16 && end - p >= 16) {
      std::memcpy(op, p, 16);  // wild copy: at most 16 - lit_len into slack
    } else {
      std::memcpy(op, p, lit_len);
    }
    op += lit_len;
    p += lit_len;
    if (end - p < 2) return Status::IoError("lz: truncated offset");
    size_t offset = static_cast<uint8_t>(p[0]) |
                    (static_cast<size_t>(static_cast<uint8_t>(p[1])) << 8);
    p += 2;
    if (offset == 0) break;  // end marker
    size_t match_len = token & 0xF;
    if (!ReadLength(p, end, &match_len)) {
      return Status::IoError("lz: truncated length");
    }
    match_len += kMinMatch;
    if (offset > static_cast<size_t>(op - dst)) {
      return Status::IoError("lz: bad offset");
    }
    if (match_len > static_cast<size_t>(oend - op)) {
      return Status::IoError("lz: match past decoded size");
    }
    // Copy in 8-byte steps from `step` bytes back, each reading only bytes
    // already written and writing at most 7 bytes into the slack. An
    // overlapping short-offset match (a run, offset < 8) repeats with
    // period `offset`, so its first bytes go one at a time and the rest
    // step from the smallest multiple of the offset that is at least 8.
    size_t step = offset;
    size_t i = 0;
    if (offset < 8) {
      step = offset * ((8 + offset - 1) / offset);
      const char* match = op - offset;
      for (size_t head = std::min(step, match_len); i < head; i++) {
        op[i] = match[i];
      }
    }
    for (; i < match_len; i += 8) std::memcpy(op + i, op + i - step, 8);
    op += match_len;
  }
  if (op != oend) return Status::IoError("lz: size mismatch");
  return Status::OK();
}

struct FrameHeader {
  Codec codec = Codec::kNone;
  uint64_t size = 0;
  std::string_view payload;
};

Status ParseFrame(std::string_view frame, FrameHeader* h) {
  BinaryReader reader(frame);
  uint8_t codec_byte = 0;
  PHOTON_RETURN_NOT_OK(reader.ReadU8(&codec_byte));
  PHOTON_RETURN_NOT_OK(reader.ReadVarU64(&h->size));
  h->codec = static_cast<Codec>(codec_byte);
  h->payload = frame.substr(reader.position());
  switch (h->codec) {
    case Codec::kNone:
      if (h->payload.size() != h->size) {
        return Status::IoError("bad frame size");
      }
      return Status::OK();
    case Codec::kLz:
      // Bound the claimed size by the payload before anything is sized
      // from it.
      if (h->size > h->payload.size() * kLzMaxExpansion) {
        return Status::IoError("lz: decoded size exceeds maximum expansion");
      }
      return Status::OK();
  }
  return Status::IoError("unknown codec");
}

}  // namespace

std::string Compress(std::string_view input, Codec codec) {
  BinaryWriter header;
  header.WriteU8(static_cast<uint8_t>(codec));
  header.WriteVarU64(input.size());
  std::string out = header.ToString();
  if (codec == Codec::kNone) {
    out.append(input);
    return out;
  }
  out += LzCompress(input);
  return out;
}

char* DecodeBuffer::Prepare(size_t size) {
  if (size + kSlack > capacity_) {
    capacity_ = std::max(size + kSlack, capacity_ * 2);
    data_.reset(new char[capacity_]);
  }
  size_ = size;
  return data_.get();
}

Result<uint64_t> DecodedSize(std::string_view frame) {
  FrameHeader h;
  PHOTON_RETURN_NOT_OK(ParseFrame(frame, &h));
  return h.size;
}

Status Decompress(std::string_view frame, DecodeBuffer* out) {
  FrameHeader h;
  PHOTON_RETURN_NOT_OK(ParseFrame(frame, &h));
  char* dst = out->Prepare(h.size);
  if (h.codec == Codec::kNone) {
    if (h.size > 0) std::memcpy(dst, h.payload.data(), h.size);
    return Status::OK();
  }
  return LzDecompress(h.payload, dst, h.size);
}

Result<std::string> Decompress(std::string_view frame) {
  DecodeBuffer buf;
  PHOTON_RETURN_NOT_OK(Decompress(frame, &buf));
  return std::string(buf.view());
}

}  // namespace photon
