// Scan decode per type and encoding.
//
// Writes TPC-H lineitem and orders the way lakebench lays them out (files
// of 8 table batches, 8K-row row groups, LZ chunks), then times the two
// halves of the scan's per-chunk work one column at a time, with the
// buffers a scan keeps across row groups:
//   - decompress: Decompress of each chunk frame into one reused
//     DecodeBuffer, reported as decoded MB/s;
//   - decode: FileReader::ReadRowGroup of that one column (decompress plus
//     page decode) into a reused batch, reported as rows/s;
// both per column type x chunk encoding. Each rep covers every chunk; the
// median rep is reported. The run fails (exit 1) unless each decoded
// column's checksum equals the source table's.
//
//   bench_scan_decode [--sf 0.1] [--reps 5] [--json PATH]

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "storage/format.h"
#include "tpch/tpch_gen.h"

namespace photon {
namespace {

constexpr int kBatchesPerFile = 8;
constexpr int64_t kRowGroupRows = 8192;

struct DataFile {
  std::string bytes;
  std::unique_ptr<FileReader> reader;
};

std::vector<DataFile> WriteFiles(const Table& table) {
  FormatWriteOptions options;
  options.row_group_rows = kRowGroupRows;
  std::vector<DataFile> files;
  for (int b = 0; b < table.num_batches(); b += kBatchesPerFile) {
    FileWriter writer(table.schema(), options);
    for (int i = b; i < std::min(b + kBatchesPerFile, table.num_batches());
         i++) {
      PHOTON_CHECK(writer.WriteBatch(*CompactBatch(table.batch(i))).ok());
    }
    Result<std::string> bytes = writer.Finish();
    PHOTON_CHECK(bytes.ok());
    DataFile f;
    f.bytes = std::move(*bytes);
    Result<std::unique_ptr<FileReader>> reader = FileReader::Open(f.bytes);
    PHOTON_CHECK(reader.ok());
    f.reader = std::move(*reader);
    files.push_back(std::move(f));
  }
  return files;
}

/// Order-sensitive checksum contribution of one cell.
uint64_t CellHash(uint64_t row, const Value& v) {
  return (v.HashCode() ^ (row * 0x9E3779B97F4A7C15ull)) *
         0xBF58476D1CE4E5B9ull;
}

/// Per-column checksum over the table's active rows, in scan order.
std::vector<uint64_t> SourceChecksums(const Table& table) {
  std::vector<uint64_t> sums(table.schema().num_fields(), 0);
  uint64_t row = 0;
  for (int b = 0; b < table.num_batches(); b++) {
    const ColumnBatch& batch = table.batch(b);
    for (int i = 0; i < batch.num_active(); i++, row++) {
      for (int c = 0; c < batch.num_columns(); c++) {
        sums[c] += CellHash(row, batch.column(c)->GetValue(batch.ActiveRow(i)));
      }
    }
  }
  return sums;
}

struct ClassStats {
  int64_t chunks = 0;
  int64_t rows = 0;
  int64_t decoded_bytes = 0;
  std::vector<int64_t> decompress_ns;  // per rep
  std::vector<int64_t> decode_ns;      // per rep
};

int64_t Median(std::vector<int64_t> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

const char* EncodingName(ChunkEncoding e) {
  return e == ChunkEncoding::kDictionary ? "dict" : "plain";
}

/// Benchmarks one table; returns false on a checksum mismatch.
/// `rep_decode_ns[r]` accumulates rep r's decode time over all columns.
bool RunTable(const char* name, const Table& table, int reps,
              std::map<std::string, ClassStats>* classes,
              std::vector<int64_t>* rep_decode_ns) {
  std::vector<DataFile> files = WriteFiles(table);
  const Schema& schema = table.schema();
  const int num_cols = schema.num_fields();
  std::vector<uint64_t> want = SourceChecksums(table);
  std::vector<uint64_t> got(num_cols, 0);

  // What a scan keeps: one decode buffer, and per projection one scratch
  // and one output batch.
  DecodeBuffer page;
  std::vector<RowGroupScratch> scratch(num_cols);
  std::vector<std::unique_ptr<ColumnBatch>> batches(num_cols);
  for (int rep = 0; rep < reps; rep++) {
    uint64_t row0 = 0;
    for (const DataFile& f : files) {
      for (int rg = 0; rg < f.reader->num_row_groups(); rg++) {
        const RowGroupMeta& meta = f.reader->meta().row_groups[rg];
        for (int c = 0; c < num_cols; c++) {
          const ColumnChunkMeta& chunk = meta.columns[c];
          std::string key = std::string(schema.field(c).type.ToString()) +
                            " " + EncodingName(chunk.encoding);
          ClassStats& s = (*classes)[key];
          s.decompress_ns.resize(rep + 1, 0);
          s.decode_ns.resize(rep + 1, 0);
          std::string_view frame(f.bytes.data() + chunk.offset,
                                 chunk.compressed_bytes);
          int64_t t0 = bench::NowNs();
          PHOTON_CHECK(Decompress(frame, &page).ok());
          int64_t t1 = bench::NowNs();
          PHOTON_CHECK(
              f.reader->ReadRowGroup(rg, {c}, &scratch[c], &batches[c]).ok());
          int64_t t2 = bench::NowNs();
          s.decompress_ns[rep] += t1 - t0;
          s.decode_ns[rep] += t2 - t1;
          (*rep_decode_ns)[rep] += t2 - t1;
          if (rep == 0) {
            s.chunks++;
            s.rows += meta.num_rows;
            s.decoded_bytes += static_cast<int64_t>(page.size());
            const ColumnVector& col = *batches[c]->column(0);
            for (int i = 0; i < batches[c]->num_rows(); i++) {
              got[c] += CellHash(row0 + i, col.GetValue(i));
            }
          }
        }
        row0 += meta.num_rows;
      }
    }
  }
  bool ok = true;
  for (int c = 0; c < num_cols; c++) {
    if (got[c] != want[c]) {
      std::fprintf(stderr, "CHECKSUM MISMATCH %s.%s\n", name,
                   schema.field(c).name.c_str());
      ok = false;
    }
  }
  std::printf("%s: %d files, %lld rows, %d columns, checksums %s\n", name,
              static_cast<int>(files.size()),
              static_cast<long long>(table.num_rows()), num_cols,
              ok ? "ok" : "MISMATCH");
  return ok;
}

}  // namespace
}  // namespace photon

int main(int argc, char** argv) {
  using namespace photon;
  const double sf = std::atof(bench::FlagValue(argc, argv, "--sf", "0.1"));
  const int reps =
      std::max(1, std::atoi(bench::FlagValue(argc, argv, "--reps", "5")));
  const char* json_path = bench::FlagValue(argc, argv, "--json");

  tpch::TpchData data = tpch::GenerateTpch(sf);
  std::map<std::string, ClassStats> classes;
  std::vector<int64_t> rep_decode_ns(reps, 0);
  bool ok = RunTable("lineitem", data.lineitem, reps, &classes,
                     &rep_decode_ns);
  ok = RunTable("orders", data.orders, reps, &classes, &rep_decode_ns) && ok;
  const int64_t decode_ns_total = Median(rep_decode_ns);

  std::printf("\n%-22s %7s %9s %10s %15s %15s\n", "type encoding", "chunks",
              "rows", "decoded MB", "decompress MB/s", "decode Mrows/s");
  JsonWriter json;
  json.BeginObject();
  json.Field("bench", std::string("scan_decode"));
  json.Field("sf", sf);
  json.Field("reps", reps);
  json.BeginArray("classes");
  for (const auto& [key, s] : classes) {
    const double mb = static_cast<double>(s.decoded_bytes) / (1 << 20);
    const double decompress_s = Median(s.decompress_ns) / 1e9;
    const double decode_s = Median(s.decode_ns) / 1e9;
    const double mb_s = decompress_s > 0 ? mb / decompress_s : 0;
    const double rows_s = decode_s > 0 ? s.rows / decode_s : 0;
    std::printf("%-22s %7lld %9lld %10.1f %15.0f %15.1f\n", key.c_str(),
                static_cast<long long>(s.chunks),
                static_cast<long long>(s.rows), mb, mb_s, rows_s / 1e6);
    json.BeginObject();
    json.Field("class", key);
    json.Field("chunks", s.chunks);
    json.Field("rows", s.rows);
    json.Field("decoded_bytes", s.decoded_bytes);
    json.Field("decompress_mb_s", mb_s);
    json.Field("decode_rows_s", rows_s);
    json.EndObject();
  }
  json.EndArray();
  json.Field("decode_ms_total", bench::Ms(decode_ns_total));
  json.Field("checksums_ok", std::string(ok ? "yes" : "no"));
  json.EndObject();
  std::printf("\ndecode, all columns (median rep): %.1f ms\n",
              bench::Ms(decode_ns_total));
  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    PHOTON_CHECK(f != nullptr);
    std::fprintf(f, "%s\n", json.str().c_str());
    std::fclose(f);
  }
  return ok ? 0 : 1;
}
