#ifndef PHOTON_STORAGE_FORMAT_H_
#define PHOTON_STORAGE_FORMAT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/byte_buffer.h"
#include "storage/compress.h"
#include "storage/ndv_sketch.h"
#include "storage/object_store.h"
#include "types/value.h"
#include "vector/table.h"

namespace photon {

/// A self-contained columnar file format playing the role of Apache
/// Parquet (see DESIGN.md substitutions). It implements the same family of
/// encodings Parquet uses — PLAIN, dictionary + bit-packed indices,
/// bit-packed booleans — plus per-chunk min/max statistics and per-chunk
/// compression, which is everything the paper's experiments exercise.
///
/// File layout:
///   [magic][row group 0][row group 1]...[footer][footer_len u32][magic]
/// Each row group stores one compressed chunk per column.

enum class ChunkEncoding : uint8_t { kPlain = 0, kDictionary = 1 };

/// Per-column-chunk metadata, including the zone-map stats used for data
/// skipping by the Delta layer and the scan operator.
struct ColumnChunkMeta {
  ChunkEncoding encoding = ChunkEncoding::kPlain;
  uint64_t offset = 0;            // into the file
  uint64_t compressed_bytes = 0;
  int64_t null_count = 0;
  bool has_min_max = false;
  Value min;
  Value max;
  /// Distinct-value sketch over the chunk's non-null values, collected at
  /// write time and merged per file for the optimizer's cardinality model.
  NdvSketch ndv;
};

struct RowGroupMeta {
  int64_t num_rows = 0;
  std::vector<ColumnChunkMeta> columns;
};

struct FileMeta {
  Schema schema;
  Codec codec = Codec::kLz;
  std::vector<RowGroupMeta> row_groups;

  int64_t num_rows() const {
    int64_t n = 0;
    for (const RowGroupMeta& rg : row_groups) n += rg.num_rows;
    return n;
  }
};

/// Typed scalar serialization used for stats and dictionary pages.
void WriteTypedValue(const DataType& type, const Value& v, BinaryWriter* out);
Status ReadTypedValue(const DataType& type, BinaryReader* in, Value* out);

/// The type's zero value (placeholder payload for NULL slots).
Value ZeroValueForType(const DataType& type);

struct FormatWriteOptions {
  int64_t row_group_rows = 64 * 1024;
  Codec codec = Codec::kLz;
  bool enable_dictionary = true;
  /// Dictionary pages abort above this many distinct values.
  int max_dictionary_size = 64 * 1024;
};

/// Timing breakdown matching Figure 7's stacked bars.
struct WriteStats {
  int64_t encode_ns = 0;
  int64_t compress_ns = 0;
  int64_t io_ns = 0;
  int64_t bytes_written = 0;
  int64_t dictionary_chunks = 0;
  int64_t plain_chunks = 0;
};

/// Photon's vectorized file writer: column-at-a-time encoders, the
/// vectorized hash table for dictionary building, word-wise bit-packing,
/// and tight min/max kernels (§6.1 "Parquet Writes").
class FileWriter {
 public:
  FileWriter(Schema schema, FormatWriteOptions options = {});

  /// Buffers the batch's active rows; flushes full row groups.
  Status WriteBatch(const ColumnBatch& batch);

  /// Flushes the tail row group and returns the complete file bytes.
  Result<std::string> Finish();

  const WriteStats& stats() const { return stats_; }
  /// Valid after Finish().
  const FileMeta& meta() const { return meta_; }

 private:
  Status FlushRowGroup();

  Schema schema_;
  FormatWriteOptions options_;
  std::unique_ptr<ColumnBatch> pending_;
  int64_t pending_rows_ = 0;
  BinaryWriter file_;
  FileMeta meta_;
  WriteStats stats_;
  bool finished_ = false;
};

/// Decode state a reader of many row groups keeps between them: the
/// decompressed page, the unpacked dictionary indices and a string
/// dictionary's entries. Each grows to the largest chunk seen.
struct RowGroupScratch {
  DecodeBuffer page;
  std::vector<uint32_t> indices;
  std::vector<StringRef> dict_strings;
};

/// Reads files produced by FileWriter (or the baseline writer — the format
/// is identical).
class FileReader {
 public:
  static Result<std::unique_ptr<FileReader>> Open(std::string file_bytes);
  /// Zero-copy open over shared immutable bytes — the IO block cache hands
  /// out blocks this way, so a reader and the cache share one buffer (and
  /// the reader survives eviction).
  static Result<std::unique_ptr<FileReader>> Open(
      std::shared_ptr<const std::string> file_bytes);
  static Result<std::unique_ptr<FileReader>> OpenFromStore(
      ObjectStore* store, const std::string& key);

  const FileMeta& meta() const { return meta_; }
  const Schema& schema() const { return meta_.schema; }
  int num_row_groups() const {
    return static_cast<int>(meta_.row_groups.size());
  }

  /// Decodes one row group, reading only `columns` (empty = all), into a
  /// single dense batch whose schema is the projected schema.
  Result<std::unique_ptr<ColumnBatch>> ReadRowGroup(
      int row_group, const std::vector<int>& columns) const;

  /// As above, but refills `*batch` in place when it holds a batch with
  /// the projected column types and room for the row group's rows (its
  /// value, null and string buffers are reused); otherwise allocates a new
  /// one. With `scratch` also kept across calls, a scan
  /// allocates nothing per row group once both have grown. Corrupt or
  /// truncated chunks fail with IoError; `*batch` is then unspecified.
  Status ReadRowGroup(int row_group, const std::vector<int>& columns,
                      RowGroupScratch* scratch,
                      std::unique_ptr<ColumnBatch>* batch) const;

  /// Total size of the underlying file bytes.
  int64_t file_bytes() const { return static_cast<int64_t>(bytes_->size()); }

 private:
  explicit FileReader(std::shared_ptr<const std::string> bytes)
      : bytes_(std::move(bytes)) {}

  std::shared_ptr<const std::string> bytes_;
  FileMeta meta_;
};

/// Serializes file metadata (shared by writer/reader and the Delta log).
void WriteFileMeta(const FileMeta& meta, BinaryWriter* out);
Status ReadFileMeta(BinaryReader* in, FileMeta* out);

/// Convenience: writes a whole table as one file into the object store.
Result<FileMeta> WriteTableToStore(const Table& table, ObjectStore* store,
                                   const std::string& key,
                                   FormatWriteOptions options = {},
                                   WriteStats* stats = nullptr);

}  // namespace photon

#endif  // PHOTON_STORAGE_FORMAT_H_
