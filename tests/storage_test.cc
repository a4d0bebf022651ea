#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/rng.h"
#include "expr/builder.h"
#include "ops/file_scan.h"
#include "storage/baseline_file_writer.h"
#include "storage/bitpack.h"
#include "storage/delta.h"
#include "storage/format.h"

namespace photon {
namespace {

using eb::Col;
using eb::Lit;

// --- Bit packing -------------------------------------------------------------

class BitpackWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(BitpackWidthTest, RoundTripAndSlowEquivalence) {
  int bit_width = GetParam();
  Rng rng(bit_width);
  for (int n : {0, 1, 7, 64, 100, 1000}) {
    std::vector<uint32_t> values(n);
    uint64_t mask = bit_width == 32 ? 0xFFFFFFFFu
                                    : ((1u << bit_width) - 1);
    for (int i = 0; i < n; i++) {
      values[i] = static_cast<uint32_t>(rng.Next() & mask);
    }
    BinaryWriter fast, slow;
    BitPack(values.data(), n, bit_width, &fast);
    BitPackSlow(values.data(), n, bit_width, &slow);
    ASSERT_EQ(fast.data(), slow.data())
        << "fast/slow bytes differ at width " << bit_width << " n " << n;

    std::vector<uint32_t> out(n);
    BinaryReader reader(fast.data().data(), fast.size());
    ASSERT_TRUE(BitUnpack(&reader, n, bit_width, out.data()).ok());
    EXPECT_EQ(values, out);

    std::vector<uint32_t> out2(n);
    BinaryReader reader2(slow.data().data(), slow.size());
    ASSERT_TRUE(BitUnpackSlow(&reader2, n, bit_width, out2.data()).ok());
    EXPECT_EQ(values, out2);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, BitpackWidthTest,
                         ::testing::Values(1, 2, 3, 5, 7, 8, 11, 13, 16, 17,
                                           20, 24, 31, 32));

TEST(BitpackTest, BitWidthFor) {
  EXPECT_EQ(BitWidthFor(0), 1);
  EXPECT_EQ(BitWidthFor(1), 1);
  EXPECT_EQ(BitWidthFor(2), 2);
  EXPECT_EQ(BitWidthFor(255), 8);
  EXPECT_EQ(BitWidthFor(256), 9);
  EXPECT_EQ(BitWidthFor(65535), 16);
}

// --- File format -------------------------------------------------------------

Table MixedTable(int rows, uint64_t seed = 9) {
  Schema schema({Field("i", DataType::Int32()),
                 Field("l", DataType::Int64()),
                 Field("d", DataType::Date32()),
                 Field("t", DataType::Timestamp()),
                 Field("s", DataType::String()),
                 Field("b", DataType::Boolean()),
                 Field("f", DataType::Float64()),
                 Field("m", DataType::Decimal(12, 2))});
  TableBuilder builder(schema);
  Rng rng(seed);
  for (int i = 0; i < rows; i++) {
    builder.AppendRow(
        {i % 13 == 0 ? Value::Null() : Value::Int32(static_cast<int32_t>(
                                           rng.Uniform(-100, 100))),
         Value::Int64(rng.Uniform(0, 1LL << 40)),
         Value::Date32(static_cast<int32_t>(rng.Uniform(8000, 10000))),
         Value::Timestamp(rng.Uniform(0, 1LL << 48)),
         // Low-cardinality strings: exercises dictionary encoding.
         Value::String("city-" + std::to_string(rng.Uniform(0, 20))),
         Value::Boolean(rng.NextBool()),
         Value::Float64(rng.NextDouble() * 100),
         Value::Decimal(Decimal128::FromInt64(rng.Uniform(0, 100000)))});
  }
  return builder.Finish();
}

TEST(FileFormatTest, WriteReadRoundTrip) {
  Table t = MixedTable(5000);
  FormatWriteOptions options;
  options.row_group_rows = 1500;  // multiple row groups
  FileWriter writer(t.schema(), options);
  for (int b = 0; b < t.num_batches(); b++) {
    ASSERT_TRUE(writer.WriteBatch(t.batch(b)).ok());
  }
  Result<std::string> bytes = writer.Finish();
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_GT(writer.stats().dictionary_chunks, 0);  // "s" should dict-encode

  Result<std::unique_ptr<FileReader>> reader = FileReader::Open(*bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->meta().num_rows(), 5000);
  EXPECT_EQ((*reader)->num_row_groups(), 4);  // ceil(5000/1500)

  auto original = t.ToRows();
  int64_t row = 0;
  for (int rg = 0; rg < (*reader)->num_row_groups(); rg++) {
    Result<std::unique_ptr<ColumnBatch>> batch =
        (*reader)->ReadRowGroup(rg, {});
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    for (int i = 0; i < (*batch)->num_rows(); i++, row++) {
      for (int c = 0; c < t.schema().num_fields(); c++) {
        EXPECT_TRUE(
            (*batch)->column(c)->GetValue(i).Equals(original[row][c]))
            << "row " << row << " col " << c;
      }
    }
  }
  EXPECT_EQ(row, 5000);
}

TEST(FileFormatTest, BaselineWriterProducesReadableFiles) {
  Table t = MixedTable(3000, 123);
  FormatWriteOptions options;
  options.row_group_rows = 1024;
  BaselineFileWriter writer(t.schema(), options);
  for (const auto& row : t.ToRows()) {
    ASSERT_TRUE(writer.WriteRow(row).ok());
  }
  Result<std::string> bytes = writer.Finish();
  ASSERT_TRUE(bytes.ok());

  Result<std::unique_ptr<FileReader>> reader = FileReader::Open(*bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto original = t.ToRows();
  int64_t row = 0;
  for (int rg = 0; rg < (*reader)->num_row_groups(); rg++) {
    auto batch = (*reader)->ReadRowGroup(rg, {});
    ASSERT_TRUE(batch.ok());
    for (int i = 0; i < (*batch)->num_rows(); i++, row++) {
      for (int c = 0; c < t.schema().num_fields(); c++) {
        EXPECT_TRUE(
            (*batch)->column(c)->GetValue(i).Equals(original[row][c]))
            << "row " << row << " col " << c;
      }
    }
  }
  EXPECT_EQ(row, 3000);
}

TEST(FileFormatTest, PhotonAndBaselineWritersAgreeOnStats) {
  Table t = MixedTable(2000, 55);
  FileWriter fast(t.schema());
  for (int b = 0; b < t.num_batches(); b++) {
    ASSERT_TRUE(fast.WriteBatch(t.batch(b)).ok());
  }
  ASSERT_TRUE(fast.Finish().ok());
  BaselineFileWriter slow(t.schema());
  for (const auto& row : t.ToRows()) {
    ASSERT_TRUE(slow.WriteRow(row).ok());
  }
  ASSERT_TRUE(slow.Finish().ok());

  ASSERT_EQ(fast.meta().row_groups.size(), slow.meta().row_groups.size());
  for (size_t rg = 0; rg < fast.meta().row_groups.size(); rg++) {
    for (int c = 0; c < t.schema().num_fields(); c++) {
      const ColumnChunkMeta& a = fast.meta().row_groups[rg].columns[c];
      const ColumnChunkMeta& b = slow.meta().row_groups[rg].columns[c];
      EXPECT_EQ(a.null_count, b.null_count) << c;
      EXPECT_EQ(a.has_min_max, b.has_min_max) << c;
      if (a.has_min_max) {
        EXPECT_TRUE(a.min.Equals(b.min)) << "col " << c;
        EXPECT_TRUE(a.max.Equals(b.max)) << "col " << c;
      }
    }
  }
}

TEST(FileFormatTest, ColumnProjection) {
  Table t = MixedTable(1000);
  Result<FileMeta> meta = WriteTableToStore(t, &ObjectStore::Default(),
                                            "test-fmt/proj.pho");
  ASSERT_TRUE(meta.ok());
  Result<std::unique_ptr<FileReader>> reader =
      FileReader::OpenFromStore(&ObjectStore::Default(), "test-fmt/proj.pho");
  ASSERT_TRUE(reader.ok());
  auto batch = (*reader)->ReadRowGroup(0, {4, 0});  // s, i
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ((*batch)->num_columns(), 2);
  EXPECT_EQ((*batch)->schema().field(0).name, "s");
  EXPECT_EQ((*batch)->schema().field(1).name, "i");
  ObjectStore::Default().DeletePrefix("test-fmt/");
}

TEST(FileFormatTest, RejectsCorruptFiles) {
  EXPECT_FALSE(FileReader::Open("garbage").ok());
  Table t = MixedTable(100);
  FileWriter writer(t.schema());
  ASSERT_TRUE(writer.WriteBatch(t.batch(0)).ok());
  Result<std::string> bytes = writer.Finish();
  ASSERT_TRUE(bytes.ok());
  std::string corrupt = *bytes;
  corrupt.resize(corrupt.size() / 2);
  EXPECT_FALSE(FileReader::Open(corrupt).ok());
}

// --- Scan decode ---------------------------------------------------------------

/// One column of every type. Each value derives from a key k: with
/// `distinct` > 0, k is one of `distinct` small keys (dictionary-friendly);
/// with 0 it is a random 64-bit draw (full-width values, unique strings of
/// 0-40 bytes). `null_every`: 0 = no NULLs, 1 = all NULL, k = every k-th
/// cell NULL (staggered by column).
Table AllTypesTable(int rows, int distinct, int null_every, uint64_t seed) {
  Schema schema({Field("b", DataType::Boolean()),
                 Field("i", DataType::Int32()),
                 Field("l", DataType::Int64()),
                 Field("f", DataType::Float64()),
                 Field("d", DataType::Date32()),
                 Field("t", DataType::Timestamp()),
                 Field("s", DataType::String()),
                 Field("m", DataType::Decimal(18, 3))});
  TableBuilder builder(schema);
  Rng rng(seed);
  for (int r = 0; r < rows; r++) {
    std::vector<Value> row;
    for (int c = 0; c < schema.num_fields(); c++) {
      if (null_every == 1 || (null_every > 1 && (r + c) % null_every == 0)) {
        row.push_back(Value::Null());
        continue;
      }
      int64_t k = distinct > 0 ? rng.Uniform(0, distinct - 1)
                               : static_cast<int64_t>(rng.Next());
      switch (c) {
        case 0: row.push_back(Value::Boolean((k & 1) != 0)); break;
        case 1: row.push_back(Value::Int32(static_cast<int32_t>(k))); break;
        case 2: row.push_back(Value::Int64(k)); break;
        case 3: row.push_back(Value::Float64(static_cast<double>(k) / 8));
          break;
        case 4: row.push_back(Value::Date32(static_cast<int32_t>(k % 40000)));
          break;
        case 5: row.push_back(Value::Timestamp(k)); break;
        case 6:
          row.push_back(Value::String(
              distinct > 0 ? "v" + std::to_string(k)
                           : rng.NextAsciiString(
                                 static_cast<int>(rng.Uniform(0, 40)))));
          break;
        default:
          row.push_back(Value::Decimal(
              Decimal128::FromInt64(k % 1000000000000000LL)));
          break;
      }
    }
    builder.AppendRow(row);
  }
  return builder.Finish();
}

/// A one-row-group file assembled from hand-built chunk frames, one per
/// schema field (the footer claims `num_rows`).
std::string AssembleFile(const Schema& schema, int64_t num_rows,
                         const std::vector<std::string>& frames) {
  FileMeta meta;
  meta.schema = schema;
  RowGroupMeta rg;
  rg.num_rows = num_rows;
  BinaryWriter file;
  file.Append("PHO1", 4);
  for (const std::string& frame : frames) {
    ColumnChunkMeta chunk;
    chunk.offset = file.size();
    chunk.compressed_bytes = frame.size();
    file.Append(frame.data(), frame.size());
    rg.columns.push_back(std::move(chunk));
  }
  meta.row_groups.push_back(std::move(rg));
  BinaryWriter footer;
  WriteFileMeta(meta, &footer);
  file.Append(footer.data().data(), footer.size());
  file.WriteU32(static_cast<uint32_t>(footer.size()));
  file.Append("PHO1", 4);
  return file.ToString();
}

/// A dictionary page for rows [0, n) of `col` in the file format's layout
/// (entries in first-occurrence order, NULL rows at index 0), built
/// independently of the writer's heuristics so that pages the writer
/// would never choose (one row, all NULL) are covered too.
std::string DictPage(const ColumnVector& col, int n) {
  std::vector<Value> dict;
  std::vector<uint32_t> idx(n, 0);
  for (int i = 0; i < n; i++) {
    if (col.IsNull(i)) continue;
    Value v = col.GetValue(i);
    auto it = std::find_if(dict.begin(), dict.end(),
                           [&](const Value& d) { return d.Equals(v); });
    idx[i] = static_cast<uint32_t>(it - dict.begin());
    if (it == dict.end()) dict.push_back(v);
  }
  BinaryWriter page;
  page.WriteVarU64(static_cast<uint64_t>(n));
  page.Append(col.nulls(), n);
  page.WriteU8(static_cast<uint8_t>(ChunkEncoding::kDictionary));
  page.WriteVarU64(dict.size());
  for (const Value& v : dict) WriteTypedValue(col.type(), v, &page);
  int width = BitWidthFor(dict.empty() ? 1 : dict.size() - 1);
  page.WriteU8(static_cast<uint8_t>(width));
  BitPack(idx.data(), n, width, &page);
  return page.ToString();
}

std::string Frame(const std::string& page, Codec codec = Codec::kLz) {
  return Compress(page, codec);
}

std::vector<std::vector<Value>> Project(
    const std::vector<std::vector<Value>>& rows, const std::vector<int>& cols,
    int num_fields) {
  std::vector<int> c = cols;
  if (c.empty()) {
    for (int i = 0; i < num_fields; i++) c.push_back(i);
  }
  std::vector<std::vector<Value>> out;
  for (const auto& row : rows) {
    std::vector<Value> r;
    for (int i : c) r.push_back(row[i]);
    out.push_back(std::move(r));
  }
  return out;
}

/// Decodes every row group of `bytes` with `cols`, once through a reused
/// scratch and batch (the scan's path) and once through fresh ones, and
/// checks both against `want` (already projected).
void ExpectDecodesTo(const std::string& bytes, const std::vector<int>& cols,
                     const std::vector<std::vector<Value>>& want,
                     const std::string& label) {
  Result<std::unique_ptr<FileReader>> reader = FileReader::Open(bytes);
  ASSERT_TRUE(reader.ok()) << label << reader.status().ToString();
  RowGroupScratch scratch;
  std::unique_ptr<ColumnBatch> reused;
  size_t row = 0;
  for (int rg = 0; rg < (*reader)->num_row_groups(); rg++) {
    Status st = (*reader)->ReadRowGroup(rg, cols, &scratch, &reused);
    ASSERT_TRUE(st.ok()) << label << st.ToString();
    Result<std::unique_ptr<ColumnBatch>> fresh =
        (*reader)->ReadRowGroup(rg, cols);
    ASSERT_TRUE(fresh.ok()) << label << fresh.status().ToString();
    ASSERT_EQ(reused->num_rows(), (*fresh)->num_rows()) << label;
    for (int i = 0; i < reused->num_rows(); i++, row++) {
      ASSERT_LT(row, want.size()) << label;
      for (int c = 0; c < reused->num_columns(); c++) {
        ASSERT_TRUE(reused->column(c)->GetValue(i).Equals(want[row][c]))
            << label << " row " << row << " col " << c << ": "
            << reused->column(c)->GetValue(i).ToString() << " vs "
            << want[row][c].ToString();
        ASSERT_TRUE((*fresh)->column(c)->GetValue(i).Equals(want[row][c]))
            << label << " row " << row << " col " << c;
      }
    }
  }
  EXPECT_EQ(row, want.size()) << label;
}

TEST(ScanDecodeTest, EveryTypeEncodingAndNullShapeRoundTrips) {
  // Compared against the source Table, not the baseline engine: baseline
  // scans decode through the same FileReader.
  const std::vector<std::vector<int>> projections = {{}, {6, 0, 7, 2}, {3}};
  for (int rows : {1, 1023, 8192, 8193}) {
    for (int null_every : {0, 5, 1}) {
      for (bool dictionary : {false, true}) {
        std::string label = "rows=" + std::to_string(rows) +
                            " null_every=" + std::to_string(null_every) +
                            (dictionary ? " dict: " : " plain: ");
        Table t = AllTypesTable(rows, dictionary ? 16 : 0, null_every,
                                static_cast<uint64_t>(rows + null_every));
        auto source = t.ToRows();
        FormatWriteOptions options;
        options.row_group_rows = 8192;  // 8193 rows = two row groups
        options.enable_dictionary = dictionary;
        FileWriter writer(t.schema(), options);
        for (int b = 0; b < t.num_batches(); b++) {
          ASSERT_TRUE(writer.WriteBatch(t.batch(b)).ok());
        }
        Result<std::string> bytes = writer.Finish();
        ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
        for (const RowGroupMeta& rg : writer.meta().row_groups) {
          for (const ColumnChunkMeta& chunk : rg.columns) {
            // The writer dictionary-encodes every column of these tables
            // once the page outweighs the dictionary's fixed cost.
            EXPECT_EQ(chunk.encoding, dictionary && rg.num_rows >= 1023
                                          ? ChunkEncoding::kDictionary
                                          : ChunkEncoding::kPlain)
                << label;
          }
        }
        for (const auto& cols : projections) {
          ExpectDecodesTo(*bytes, cols,
                          Project(source, cols, t.schema().num_fields()),
                          label + "writer");
        }
        if (!dictionary) continue;
        // Hand-built dictionary pages for every column, whatever the
        // writer would pick (one row, all NULL, an empty dictionary).
        // Rows past the first batch are covered by the writer's files.
        int n = std::min(rows, t.batch(0).num_rows());
        std::vector<std::string> frames;
        for (int c = 0; c < t.schema().num_fields(); c++) {
          frames.push_back(Frame(DictPage(*t.batch(0).column(c), n)));
        }
        std::string hand = AssembleFile(t.schema(), n, frames);
        std::vector<std::vector<Value>> first(source.begin(),
                                              source.begin() + n);
        for (const auto& cols : projections) {
          ExpectDecodesTo(hand, cols,
                          Project(first, cols, t.schema().num_fields()),
                          label + "hand-built");
        }
      }
    }
  }
}

Schema OneColumn(DataType type) { return Schema({Field("x", type)}); }

/// An int64 dictionary page of n rows: dictionary {10, 20, 30, 40},
/// indices i % 4, row 3 NULL. `dict_size`, `width` and the index of row
/// `bad_row` can be overridden to corrupt it.
std::string Int64DictPage(int n, uint64_t dict_size = 4, int width = 2,
                          int bad_row = -1, uint32_t bad_index = 0) {
  BinaryWriter page;
  page.WriteVarU64(static_cast<uint64_t>(n));
  for (int i = 0; i < n; i++) page.WriteU8(i == 3 ? 1 : 0);
  page.WriteU8(static_cast<uint8_t>(ChunkEncoding::kDictionary));
  page.WriteVarU64(dict_size);
  for (int64_t v : {10, 20, 30, 40}) page.WriteI64(v);
  page.WriteU8(static_cast<uint8_t>(width));
  std::vector<uint32_t> idx(n);
  for (int i = 0; i < n; i++) idx[i] = i == bad_row ? bad_index : i % 4;
  BitPack(idx.data(), n, std::clamp(width, 1, 32), &page);
  return page.ToString();
}

Status ReadOnlyRowGroup(const std::string& bytes) {
  Result<std::unique_ptr<FileReader>> reader = FileReader::Open(bytes);
  if (!reader.ok()) return reader.status();
  return (*reader)->ReadRowGroup(0, {}).status();
}

TEST(ScanDecodeTest, CorruptDictionaryPagesFailWithIoError) {
  const Schema schema = OneColumn(DataType::Int64());
  const int n = 100;
  auto expect_io_error = [&](const std::string& page, const char* what) {
    Status st = ReadOnlyRowGroup(AssembleFile(schema, n, {Frame(page)}));
    EXPECT_TRUE(st.IsIoError()) << what << ": " << st.ToString();
  };
  ASSERT_TRUE(ReadOnlyRowGroup(
                  AssembleFile(schema, n, {Frame(Int64DictPage(n))}))
                  .ok());
  // A dictionary size that no page could hold sized a vector directly.
  expect_io_error(Int64DictPage(n, uint64_t{1} << 40), "huge dict_size");
  expect_io_error(Int64DictPage(n, 1000), "dict_size past page end");
  // Index widths outside 1..32 tripped a fatal check in the unpacker.
  expect_io_error(Int64DictPage(n, 4, 0), "index width 0");
  expect_io_error(Int64DictPage(n, 4, 33), "index width 33");
  // An index past the dictionary is an error at a non-NULL row...
  expect_io_error(Int64DictPage(n, 4, 3, /*bad_row=*/5, /*bad_index=*/7),
                  "index out of range");
  // ...and ignored at a NULL row (row 3), which decodes as NULL.
  std::string ok_file = AssembleFile(
      schema, n, {Frame(Int64DictPage(n, 4, 3, /*bad_row=*/3, 7))});
  Result<std::unique_ptr<FileReader>> reader = FileReader::Open(ok_file);
  ASSERT_TRUE(reader.ok());
  Result<std::unique_ptr<ColumnBatch>> batch = (*reader)->ReadRowGroup(0, {});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_TRUE((*batch)->column(0)->IsNull(3));
  EXPECT_EQ((*batch)->column(0)->data<int64_t>()[5], 20);

  // A string dictionary claiming more entries than bytes left.
  BinaryWriter page;
  page.WriteVarU64(2);
  page.WriteU8(0);
  page.WriteU8(0);
  page.WriteU8(static_cast<uint8_t>(ChunkEncoding::kDictionary));
  page.WriteVarU64(50);
  page.WriteString("abc");
  Status st = ReadOnlyRowGroup(AssembleFile(OneColumn(DataType::String()), 2,
                                            {Frame(page.ToString())}));
  EXPECT_TRUE(st.IsIoError()) << st.ToString();

  // An encoding byte that names no encoding.
  BinaryWriter bad_enc;
  bad_enc.WriteVarU64(1);
  bad_enc.WriteU8(0);
  bad_enc.WriteU8(7);
  bad_enc.WriteI64(1);
  st = ReadOnlyRowGroup(AssembleFile(schema, 1, {Frame(bad_enc.ToString())}));
  EXPECT_TRUE(st.IsIoError()) << st.ToString();
}

TEST(ScanDecodeTest, CorruptFooterRowCountsFailWithIoError) {
  // The footer's row count sizes the output batch before any page is
  // read; counts the file cannot hold must fail, not allocate.
  const Schema schema = OneColumn(DataType::Int64());
  std::string page = Int64DictPage(100);
  for (int64_t rows : {int64_t{-1}, int64_t{1} << 31, int64_t{INT32_MAX},
                       int64_t{1} << 40, int64_t{100000}, int64_t{101}}) {
    Status st = ReadOnlyRowGroup(AssembleFile(schema, rows, {Frame(page)}));
    EXPECT_TRUE(st.IsIoError()) << rows << ": " << st.ToString();
  }
  EXPECT_TRUE(
      ReadOnlyRowGroup(AssembleFile(schema, 100, {Frame(page)})).ok());

  // A footer length whose 32-bit sum with the trailer wraps around.
  std::string bytes = AssembleFile(schema, 100, {Frame(page)});
  uint32_t huge = 0xFFFFFFF8u;
  std::memcpy(&bytes[bytes.size() - 8], &huge, 4);
  EXPECT_FALSE(FileReader::Open(bytes).ok());

  // A column type id past the last type, and a decimal precision of 0.
  FileMeta meta;
  meta.schema = schema;
  BinaryWriter footer;
  WriteFileMeta(meta, &footer);
  std::string raw = footer.ToString();
  // codec, field count, name "x" (len + byte), then the type id.
  std::string bad_type = raw;
  bad_type[4] = 42;
  BinaryReader r1(bad_type);
  FileMeta out;
  EXPECT_TRUE(ReadFileMeta(&r1, &out).IsIoError());
  FileMeta dec;
  dec.schema = OneColumn(DataType::Decimal(10, 2));
  BinaryWriter dec_footer;
  WriteFileMeta(dec, &dec_footer);
  std::string bad_precision = dec_footer.ToString();
  bad_precision[5] = 0;
  BinaryReader r2(bad_precision);
  EXPECT_TRUE(ReadFileMeta(&r2, &out).IsIoError());
}

TEST(ScanDecodeTest, MutatedChunksFailCleanlyOrDecode) {
  // Seeded single-byte mutations of one file's chunks. The format has no
  // checksums, so a mutated value byte may decode to a different value;
  // what must hold is that every mutation either fails with IoError or
  // yields a well-formed batch (right row count, every cell and string
  // readable — ASan checks the reads), and that untouched row groups
  // decode exactly.
  Table t = MixedTable(3000, 77);
  auto source = t.ToRows();
  for (Codec codec : {Codec::kLz, Codec::kNone}) {
    FormatWriteOptions options;
    options.row_group_rows = 1024;
    options.codec = codec;
    FileWriter writer(t.schema(), options);
    for (int b = 0; b < t.num_batches(); b++) {
      ASSERT_TRUE(writer.WriteBatch(t.batch(b)).ok());
    }
    Result<std::string> original = writer.Finish();
    ASSERT_TRUE(original.ok());
    const FileMeta meta = writer.meta();
    Rng rng(codec == Codec::kLz ? 2024 : 2025);
    int errors = 0, decoded = 0;
    for (int iter = 0; iter < 600; iter++) {
      std::string bytes = *original;
      int mrg = static_cast<int>(rng.Uniform(0, meta.row_groups.size() - 1));
      const ColumnChunkMeta& chunk = meta.row_groups[mrg].columns[rng.Uniform(
          0, t.schema().num_fields() - 1)];
      size_t pos = chunk.offset +
                   rng.Uniform(0, static_cast<int64_t>(chunk.compressed_bytes) - 1);
      bytes[pos] = rng.NextBool()
                       ? static_cast<char>(rng.Next())
                       : static_cast<char>(bytes[pos] ^ (1 << rng.Uniform(0, 7)));
      Result<std::unique_ptr<FileReader>> reader = FileReader::Open(bytes);
      ASSERT_TRUE(reader.ok());  // the footer is untouched
      RowGroupScratch scratch;
      std::unique_ptr<ColumnBatch> batch;
      int64_t first_row = 0;
      for (int rg = 0; rg < static_cast<int>(meta.row_groups.size()); rg++) {
        const int64_t rows = meta.row_groups[rg].num_rows;
        Status st = (*reader)->ReadRowGroup(rg, {}, &scratch, &batch);
        if (rg != mrg || bytes[pos] == (*original)[pos]) {
          ASSERT_TRUE(st.ok()) << st.ToString();
          for (int i = 0; i < batch->num_rows(); i++) {
            for (int c = 0; c < batch->num_columns(); c++) {
              ASSERT_TRUE(batch->column(c)->GetValue(i).Equals(
                  source[first_row + i][c]));
            }
          }
        } else if (!st.ok()) {
          EXPECT_TRUE(st.IsIoError()) << st.ToString();
          errors++;
        } else {
          decoded++;
          ASSERT_EQ(batch->num_rows(), rows);
          for (int i = 0; i < batch->num_rows(); i++) {
            for (int c = 0; c < batch->num_columns(); c++) {
              // Boxing copies each string, so ASan sees every byte read.
              batch->column(c)->GetValue(i);
            }
          }
        }
        first_row += rows;
      }
    }
    EXPECT_GT(errors, 0);
    EXPECT_GT(decoded, 0);
  }
}

// --- Delta -------------------------------------------------------------------

Table SmallTable(int lo, int hi) {
  Schema schema({Field("id", DataType::Int64()),
                 Field("v", DataType::String())});
  TableBuilder builder(schema);
  for (int i = lo; i < hi; i++) {
    builder.AppendRow({Value::Int64(i), Value::String("v" + std::to_string(i))});
  }
  return builder.Finish();
}

TEST(DeltaTest, CreateAppendSnapshot) {
  ObjectStore store;
  Schema schema({Field("id", DataType::Int64()),
                 Field("v", DataType::String())});
  auto table = DeltaTable::Create(&store, "tables/t1", schema);
  ASSERT_TRUE(table.ok()) << table.status().ToString();

  Result<int64_t> v1 = (*table)->Append(SmallTable(0, 100));
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, 1);
  Result<int64_t> v2 = (*table)->Append(SmallTable(100, 250));
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 2);

  Result<DeltaSnapshot> snap = (*table)->Snapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->version, 2);
  EXPECT_EQ(snap->files.size(), 2u);
  EXPECT_EQ(snap->num_rows(), 250);

  // Time travel: version 1 sees only the first file.
  Result<DeltaSnapshot> old = (*table)->Snapshot(1);
  ASSERT_TRUE(old.ok());
  EXPECT_EQ(old->files.size(), 1u);
  EXPECT_EQ(old->num_rows(), 100);

  // Creating over an existing table fails.
  EXPECT_FALSE(DeltaTable::Create(&store, "tables/t1", schema).ok());
  // Opening works.
  EXPECT_TRUE(DeltaTable::Open(&store, "tables/t1").ok());
  EXPECT_FALSE(DeltaTable::Open(&store, "tables/none").ok());
}

TEST(DeltaTest, RewriteRemovesFiles) {
  ObjectStore store;
  Schema schema({Field("id", DataType::Int64()),
                 Field("v", DataType::String())});
  auto table = DeltaTable::Create(&store, "tables/t2", schema);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Append(SmallTable(0, 50)).ok());
  Result<DeltaSnapshot> snap = (*table)->Snapshot();
  ASSERT_TRUE(snap.ok());
  std::string old_key = snap->files[0].key;

  ASSERT_TRUE((*table)->Rewrite({old_key}, SmallTable(0, 80)).ok());
  snap = (*table)->Snapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->files.size(), 1u);
  EXPECT_NE(snap->files[0].key, old_key);
  EXPECT_EQ(snap->num_rows(), 80);
}

TEST(DeltaTest, DataSkippingPrunesFiles) {
  ObjectStore store;
  Schema schema({Field("id", DataType::Int64()),
                 Field("v", DataType::String())});
  auto table = DeltaTable::Create(&store, "tables/t3", schema);
  ASSERT_TRUE(table.ok());
  // Three files with disjoint id ranges (well-clustered data).
  ASSERT_TRUE((*table)->Append(SmallTable(0, 100)).ok());
  ASSERT_TRUE((*table)->Append(SmallTable(100, 200)).ok());
  ASSERT_TRUE((*table)->Append(SmallTable(200, 300)).ok());
  Result<DeltaSnapshot> snap = (*table)->Snapshot();
  ASSERT_TRUE(snap.ok());

  ExprPtr pred = eb::Eq(Col(0, DataType::Int64(), "id"),
                        eb::Lit(int64_t{150}));
  std::vector<DeltaFileEntry> pruned = DeltaTable::PruneFiles(*snap, pred);
  ASSERT_EQ(pruned.size(), 1u);  // only the middle file can match

  pred = eb::Gt(Col(0, DataType::Int64(), "id"), eb::Lit(int64_t{150}));
  pruned = DeltaTable::PruneFiles(*snap, pred);
  EXPECT_EQ(pruned.size(), 2u);

  // AND of conjuncts prunes with both.
  pred = eb::And(eb::Gt(Col(0, DataType::Int64(), "id"),
                        eb::Lit(int64_t{110})),
                 eb::Lt(Col(0, DataType::Int64(), "id"),
                        eb::Lit(int64_t{190})));
  pruned = DeltaTable::PruneFiles(*snap, pred);
  EXPECT_EQ(pruned.size(), 1u);

  // Unprunable predicate keeps everything.
  pred = eb::Like(Col(1, DataType::String(), "v"), "v1%");
  pruned = DeltaTable::PruneFiles(*snap, pred);
  EXPECT_EQ(pruned.size(), 3u);
}

TEST(DeltaScanTest, EndToEndWithSkipping) {
  ObjectStore store;
  Schema schema({Field("id", DataType::Int64()),
                 Field("v", DataType::String())});
  auto table = DeltaTable::Create(&store, "tables/t4", schema);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Append(SmallTable(0, 1000)).ok());
  ASSERT_TRUE((*table)->Append(SmallTable(1000, 2000)).ok());
  Result<DeltaSnapshot> snap = (*table)->Snapshot();
  ASSERT_TRUE(snap.ok());

  ExprPtr pred = eb::Between(Col(0, DataType::Int64(), "id"),
                             eb::Lit(int64_t{1500}), eb::Lit(int64_t{1509}));
  auto scan = std::make_unique<DeltaScanOperator>(&store, *snap,
                                                  std::vector<int>{}, pred);
  Result<Table> result = CollectAll(scan.get());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 10);
  EXPECT_EQ(result->GetRow(0)[0], Value::Int64(1500));
}

TEST(DeltaScanTest, SurfacesInjectedWriteFailures) {
  ObjectStore store;
  Schema schema({Field("id", DataType::Int64()),
                 Field("v", DataType::String())});
  auto table = DeltaTable::Create(&store, "tables/t5", schema);
  ASSERT_TRUE(table.ok());
  store.FailNextPuts(1);
  Status st = (*table)->Append(SmallTable(0, 10)).status();
  EXPECT_TRUE(st.IsIoError());
  // Failed append must not appear in the snapshot.
  Result<DeltaSnapshot> snap = (*table)->Snapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->files.size(), 0u);
}

}  // namespace
}  // namespace photon
