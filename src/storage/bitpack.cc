#include "storage/bitpack.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/macros.h"

namespace photon {

int BitWidthFor(uint64_t max_value) {
  int bits = 1;
  while (max_value >> bits) bits++;
  return bits;
}

void BitPack(const uint32_t* values, int n, int bit_width,
             BinaryWriter* out) {
  PHOTON_CHECK(bit_width >= 1 && bit_width <= 32);
  uint64_t word = 0;
  int bits_in_word = 0;
  for (int i = 0; i < n; i++) {
    word |= static_cast<uint64_t>(values[i]) << bits_in_word;
    bits_in_word += bit_width;
    if (bits_in_word >= 64) {
      out->WriteU64(word);
      bits_in_word -= 64;
      // Remaining high bits of the current value.
      word = bits_in_word > 0
                 ? static_cast<uint64_t>(values[i]) >>
                       (bit_width - bits_in_word)
                 : 0;
    }
  }
  if (bits_in_word > 0) out->WriteU64(word);
}

namespace {

/// Reads the W-bit value starting at bit `bit` of `p` with one unaligned
/// 8-byte load: the packed words are little-endian, so the stream is
/// LSB-first across bytes and a value (shift <= 7, W <= 32) fits in the
/// load. The caller keeps the load inside the buffer.
template <int W>
PHOTON_ALWAYS_INLINE uint32_t Extract(const uint8_t* p, size_t bit) {
  uint64_t word;
  std::memcpy(&word, p + (bit >> 3), 8);
  return static_cast<uint32_t>((word >> (bit & 7)) &
                               ((uint64_t{1} << W) - 1));
}

/// Unpacks n W-bit values from `bytes` bytes at `p`. Eight values fill
/// exactly W bytes, so the main loop runs over 8-value groups with
/// compile-time shifts; values whose load would pass the end are read
/// from a zero-padded copy of the last bytes.
template <int W>
void UnpackWidth(const uint8_t* p, size_t bytes, int n, uint32_t* out) {
  // Group g loads up to byte g*W + (7*W)/8 + 8.
  int groups = 0;
  if (bytes >= (7 * W) / 8 + 8) {
    groups = static_cast<int>(
        std::min<size_t>(n / 8, (bytes - (7 * W) / 8 - 8) / W + 1));
  }
  for (int g = 0; g < groups; g++) {
    const uint8_t* base = p + static_cast<size_t>(g) * W;
    uint32_t* o = out + static_cast<size_t>(g) * 8;
    for (int j = 0; j < 8; j++) o[j] = Extract<W>(base, j * W);
  }
  int i = groups * 8;
  if (i == n) return;
  const size_t tail_start = bytes >= 16 ? bytes - 16 : 0;
  for (; i < n; i++) {
    size_t bit = static_cast<size_t>(i) * W;
    if ((bit >> 3) + 8 > bytes) break;
    out[i] = Extract<W>(p, bit);
  }
  uint8_t tail[24] = {};
  std::memcpy(tail, p + tail_start, bytes - tail_start);
  for (; i < n; i++) {
    out[i] = Extract<W>(tail, static_cast<size_t>(i) * W - tail_start * 8);
  }
}

template <int... Ws>
void UnpackDispatch(std::integer_sequence<int, Ws...>, int bit_width,
                    const uint8_t* p, size_t bytes, int n, uint32_t* out) {
  ((bit_width == Ws + 1 ? UnpackWidth<Ws + 1>(p, bytes, n, out) : void()),
   ...);
}

}  // namespace

Status BitUnpack(BinaryReader* in, int n, int bit_width, uint32_t* out) {
  PHOTON_CHECK(bit_width >= 1 && bit_width <= 32);
  const size_t bytes = (static_cast<size_t>(n) * bit_width + 63) / 64 * 8;
  const uint8_t* p = nullptr;
  PHOTON_RETURN_NOT_OK(in->ReadSpan(bytes, &p));
  UnpackDispatch(std::make_integer_sequence<int, 32>(), bit_width, p, bytes,
                 n, out);
  return Status::OK();
}

void BitPackSlow(const uint32_t* values, int n, int bit_width,
                 BinaryWriter* out) {
  // Bit-at-a-time into a byte stream padded to whole 64-bit words, so the
  // output is byte-identical to BitPack.
  std::vector<uint8_t> bits;
  bits.reserve(static_cast<size_t>(n) * bit_width);
  for (int i = 0; i < n; i++) {
    for (int b = 0; b < bit_width; b++) {
      bits.push_back((values[i] >> b) & 1);
    }
  }
  while (bits.size() % 64 != 0) bits.push_back(0);
  for (size_t w = 0; w < bits.size(); w += 64) {
    uint64_t word = 0;
    for (int b = 0; b < 64; b++) {
      word |= static_cast<uint64_t>(bits[w + b]) << b;
    }
    out->WriteU64(word);
  }
}

Status BitUnpackSlow(BinaryReader* in, int n, int bit_width, uint32_t* out) {
  int total_bits = n * bit_width;
  int words = (total_bits + 63) / 64;
  std::vector<uint64_t> data(words);
  for (int w = 0; w < words; w++) {
    PHOTON_RETURN_NOT_OK(in->ReadU64(&data[w]));
  }
  for (int i = 0; i < n; i++) {
    uint32_t v = 0;
    for (int b = 0; b < bit_width; b++) {
      int64_t bit = static_cast<int64_t>(i) * bit_width + b;
      uint64_t word = data[bit / 64];
      v |= static_cast<uint32_t>((word >> (bit % 64)) & 1) << b;
    }
    out[i] = v;
  }
  return Status::OK();
}

}  // namespace photon
