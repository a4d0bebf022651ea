#ifndef PHOTON_STORAGE_COMPRESS_H_
#define PHOTON_STORAGE_COMPRESS_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"

namespace photon {

enum class Codec : uint8_t { kNone = 0, kLz = 1 };

/// Compresses `input` with the given codec, producing a self-describing
/// frame (codec byte + uncompressed size + payload).
///
/// The kLz codec is an LZ4-style byte-oriented LZ77 compressor (greedy
/// hash-table matching, 64 KiB window, literal/match token stream). It
/// stands in for LZ4 in the paper's shuffle experiments (Table 1): what
/// matters there is that compression cost scales with input bytes, so
/// shrinking the pre-compression data with adaptive encodings shrinks both
/// time and output size.
std::string Compress(std::string_view input, Codec codec);

/// Largest decoded size a kLz frame may claim per payload byte. The
/// densest kLz encoding is a long match whose length-extension bytes add
/// 255 output bytes each, so no valid frame expands further; a larger
/// claim is corrupt and is rejected before anything is allocated.
constexpr size_t kLzMaxExpansion = 255;

/// A reusable decode target. Decompress grows it to the largest frame seen
/// and never shrinks it, so a reader that keeps one (the file scan, the
/// shuffle and spill readers) decodes every later frame without
/// allocating. The bytes past size() up to the capacity are slack the
/// decoder may scribble on (wild copies); only [data(), data()+size()) is
/// the decoded frame.
class DecodeBuffer {
 public:
  /// Writable bytes the decoder keeps past the decoded size, so a literal
  /// may be copied 16 bytes at a time and a match 8 bytes at a time
  /// without a tail loop.
  static constexpr size_t kSlack = 32;

  const char* data() const { return data_.get(); }
  size_t size() const { return size_; }
  std::string_view view() const { return {data_.get(), size_}; }

  /// Sets the size to `size` (contents undefined) and returns the start of
  /// a region of size + kSlack writable bytes.
  char* Prepare(size_t size);

 private:
  std::unique_ptr<char[]> data_;
  size_t capacity_ = 0;
  size_t size_ = 0;
};

/// The decoded size a frame declares, after checking it against the
/// codec's bound for the frame's payload (a kNone frame must hold exactly
/// that many bytes, a kLz frame at most kLzMaxExpansion per payload byte).
/// Reads only the frame header.
Result<uint64_t> DecodedSize(std::string_view frame);

/// Inverse of Compress; rejects corrupt frames with IoError.
Result<std::string> Decompress(std::string_view frame);

/// Decodes `frame` into `out`, reusing its storage. On error `out` holds
/// no valid frame.
Status Decompress(std::string_view frame, DecodeBuffer* out);

}  // namespace photon

#endif  // PHOTON_STORAGE_COMPRESS_H_
