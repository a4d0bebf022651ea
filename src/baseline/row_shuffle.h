#ifndef PHOTON_BASELINE_ROW_SHUFFLE_H_
#define PHOTON_BASELINE_ROW_SHUFFLE_H_

#include "baseline/row_operator.h"
#include "common/byte_buffer.h"
#include "expr/expr.h"
#include "storage/compress.h"

namespace photon {
namespace baseline {

/// Generic row-at-a-time shuffle writer: serializes each row value by
/// value (type-tagged nulls, no batching, no adaptive encodings) and
/// compresses blocks before writing — DBR's generic row serializer from
/// Table 1's comparison.
class RowShuffleWriteOperator : public RowOperator {
 public:
  RowShuffleWriteOperator(RowOperatorPtr child,
                          std::vector<ExprPtr> partition_keys,
                          std::string shuffle_id, int num_partitions,
                          Codec codec = Codec::kLz);

  Status Open() override;
  /// Sink: drains the child on first call and returns false.
  Result<bool> NextImpl(Row* row) override;
  void Close() override { child_->Close(); }
  std::string name() const override { return "BaselineShuffleWrite"; }

  int64_t bytes_written() const { return bytes_written_; }

 private:
  Status FlushPartition(int p);

  RowOperatorPtr child_;
  std::vector<ExprPtr> partition_keys_;
  std::string shuffle_id_;
  int num_partitions_;
  Codec codec_;
  std::vector<BinaryWriter> staging_;
  std::vector<int> staging_rows_;
  std::vector<int> block_seq_;
  int64_t bytes_written_ = 0;
  bool done_ = false;
};

/// Reads rows back from a baseline shuffle.
class RowShuffleReadOperator : public RowOperator {
 public:
  RowShuffleReadOperator(Schema schema, std::string shuffle_id,
                         int partition = -1);

  Status Open() override;
  Result<bool> NextImpl(Row* row) override;
  std::string name() const override { return "BaselineShuffleRead"; }

 private:
  std::string shuffle_id_;
  int partition_;
  std::vector<std::string> block_keys_;
  size_t next_block_ = 0;
  DecodeBuffer current_block_;  // reused across blocks
  std::unique_ptr<BinaryReader> reader_;
};

/// Row serialization shared by writer/reader (and usable by tests).
void SerializeRow(const Row& row, const Schema& schema, BinaryWriter* out);
Status DeserializeRow(BinaryReader* in, const Schema& schema, Row* row);

}  // namespace baseline
}  // namespace photon

#endif  // PHOTON_BASELINE_ROW_SHUFFLE_H_
