#ifndef PHOTON_OPS_SHUFFLE_H_
#define PHOTON_OPS_SHUFFLE_H_

#include <memory>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "ops/operator.h"
#include "storage/compress.h"
#include "storage/object_store.h"

namespace photon {

/// Options controlling Photon shuffle writes.
struct ShuffleOptions {
  int num_partitions = 4;
  /// Distinguishes block names when several map tasks write the same
  /// shuffle id concurrently (the stage/task model of §2.2).
  int writer_id = 0;
  /// Adaptive shuffle encodings (§4.6, Table 1): inspect string columns per
  /// block and switch UUID columns to 128-bit binary, integer-like strings
  /// to varints.
  bool adaptive_encoding = true;
  Codec codec = Codec::kLz;
};

/// Hash-partitions its input and writes per-partition blocks (serialized,
/// optionally adaptively encoded, compressed column batches) to the object
/// store under "shuffle/<id>/p<k>/". Photon shuffle files use Photon's own
/// serialization format, so a Photon shuffle write must be read by a Photon
/// shuffle read (§5.2).
///
/// This operator is a sink: GetNext drains the child, writes all blocks,
/// and returns end-of-stream. The paired ShuffleReadOperator streams one
/// partition (or all) back.
class ShuffleWriteOperator : public Operator {
 public:
  ShuffleWriteOperator(OperatorPtr child, std::vector<ExprPtr> partition_keys,
                       std::string shuffle_id, ShuffleOptions options = {},
                       ExecContext exec_ctx = {});

  Status Open() override;
  Result<ColumnBatch*> GetNextImpl() override;
  void Close() override { child_->Close(); }
  std::string name() const override { return "PhotonShuffleWrite"; }
  std::vector<Operator*> children() override { return {child_.get()}; }

  int64_t bytes_written() const { return bytes_written_; }
  int64_t blocks_written() const { return blocks_written_; }

 private:
  Status PartitionBatch(ColumnBatch* batch);
  Status FlushPartition(int p);

  OperatorPtr child_;
  std::vector<ExprPtr> partition_keys_;
  std::string shuffle_id_;
  ShuffleOptions options_;
  ExecContext exec_ctx_;

  std::vector<std::unique_ptr<ColumnBatch>> staging_;
  std::vector<int> staging_rows_;
  std::vector<int> block_seq_;
  std::vector<uint64_t> hashes_;
  EvalContext ctx_;
  int64_t bytes_written_ = 0;
  int64_t blocks_written_ = 0;
  bool done_ = false;
};

/// Reads one partition (or all partitions) of a shuffle previously written
/// by ShuffleWriteOperator.
class ShuffleReadOperator : public Operator {
 public:
  ShuffleReadOperator(Schema schema, std::string shuffle_id,
                      int partition = -1 /* -1 = all */);

  Status Open() override;
  Result<ColumnBatch*> GetNextImpl() override;
  std::string name() const override { return "PhotonShuffleRead"; }

 private:
  std::string shuffle_id_;
  int partition_;
  std::vector<std::string> block_keys_;
  size_t next_block_ = 0;
  DecodeBuffer block_;  // reused across blocks
  std::unique_ptr<ColumnBatch> current_;
};

/// Total bytes currently stored for a shuffle id (post-compression).
int64_t ShuffleDataBytes(const std::string& shuffle_id);
/// Removes all blocks of a shuffle id.
void DeleteShuffle(const std::string& shuffle_id);

}  // namespace photon

#endif  // PHOTON_OPS_SHUFFLE_H_
