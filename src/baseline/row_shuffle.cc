#include "baseline/row_shuffle.h"

#include "common/hash.h"
#include "storage/object_store.h"

namespace photon {
namespace baseline {

void SerializeRow(const Row& row, const Schema& schema, BinaryWriter* out) {
  for (int c = 0; c < schema.num_fields(); c++) {
    const Value& v = row[c];
    if (v.is_null()) {
      out->WriteU8(1);
      continue;
    }
    out->WriteU8(0);
    switch (schema.field(c).type.id()) {
      case TypeId::kBoolean:
        out->WriteU8(v.boolean() ? 1 : 0);
        break;
      case TypeId::kInt32:
      case TypeId::kDate32:
        out->WriteI32(v.i32());
        break;
      case TypeId::kInt64:
      case TypeId::kTimestamp:
        out->WriteI64(v.i64());
        break;
      case TypeId::kFloat64:
        out->WriteF64(v.f64());
        break;
      case TypeId::kDecimal128: {
        uint128_t u = static_cast<uint128_t>(v.decimal().value());
        out->WriteU64(static_cast<uint64_t>(u));
        out->WriteU64(static_cast<uint64_t>(u >> 64));
        break;
      }
      case TypeId::kString:
        out->WriteString(v.str());
        break;
    }
  }
}

Status DeserializeRow(BinaryReader* in, const Schema& schema, Row* row) {
  row->clear();
  for (int c = 0; c < schema.num_fields(); c++) {
    uint8_t is_null = 0;
    PHOTON_RETURN_NOT_OK(in->ReadU8(&is_null));
    if (is_null) {
      row->push_back(Value::Null());
      continue;
    }
    switch (schema.field(c).type.id()) {
      case TypeId::kBoolean: {
        uint8_t b = 0;
        PHOTON_RETURN_NOT_OK(in->ReadU8(&b));
        row->push_back(Value::Boolean(b != 0));
        break;
      }
      case TypeId::kInt32: {
        int32_t v = 0;
        PHOTON_RETURN_NOT_OK(in->ReadI32(&v));
        row->push_back(Value::Int32(v));
        break;
      }
      case TypeId::kDate32: {
        int32_t v = 0;
        PHOTON_RETURN_NOT_OK(in->ReadI32(&v));
        row->push_back(Value::Date32(v));
        break;
      }
      case TypeId::kInt64: {
        int64_t v = 0;
        PHOTON_RETURN_NOT_OK(in->ReadI64(&v));
        row->push_back(Value::Int64(v));
        break;
      }
      case TypeId::kTimestamp: {
        int64_t v = 0;
        PHOTON_RETURN_NOT_OK(in->ReadI64(&v));
        row->push_back(Value::Timestamp(v));
        break;
      }
      case TypeId::kFloat64: {
        double v = 0;
        PHOTON_RETURN_NOT_OK(in->ReadF64(&v));
        row->push_back(Value::Float64(v));
        break;
      }
      case TypeId::kDecimal128: {
        uint64_t lo = 0, hi = 0;
        PHOTON_RETURN_NOT_OK(in->ReadU64(&lo));
        PHOTON_RETURN_NOT_OK(in->ReadU64(&hi));
        row->push_back(Value::Decimal(Decimal128(
            static_cast<int128_t>((static_cast<uint128_t>(hi) << 64) | lo))));
        break;
      }
      case TypeId::kString: {
        std::string s;
        PHOTON_RETURN_NOT_OK(in->ReadString(&s));
        row->push_back(Value::String(std::move(s)));
        break;
      }
    }
  }
  return Status::OK();
}

RowShuffleWriteOperator::RowShuffleWriteOperator(
    RowOperatorPtr child, std::vector<ExprPtr> partition_keys,
    std::string shuffle_id, int num_partitions, Codec codec)
    : RowOperator(child->output_schema()),
      child_(std::move(child)),
      partition_keys_(std::move(partition_keys)),
      shuffle_id_(std::move(shuffle_id)),
      num_partitions_(num_partitions),
      codec_(codec) {
  PHOTON_CHECK(num_partitions_ > 0);
}

Status RowShuffleWriteOperator::Open() {
  PHOTON_RETURN_NOT_OK(child_->Open());
  staging_.clear();
  staging_.resize(num_partitions_);
  staging_rows_.assign(num_partitions_, 0);
  block_seq_.assign(num_partitions_, 0);
  done_ = false;
  return Status::OK();
}

Status RowShuffleWriteOperator::FlushPartition(int p) {
  if (staging_rows_[p] == 0) return Status::OK();
  BinaryWriter framed;
  framed.WriteVarU64(static_cast<uint64_t>(staging_rows_[p]));
  framed.Append(staging_[p].data().data(), staging_[p].size());
  std::string compressed = Compress(
      std::string_view(reinterpret_cast<const char*>(framed.data().data()),
                       framed.size()),
      codec_);
  std::string key = "rowshuffle/" + shuffle_id_ + "/p" + std::to_string(p) +
                    "/blk" + std::to_string(block_seq_[p]++);
  bytes_written_ += static_cast<int64_t>(compressed.size());
  PHOTON_RETURN_NOT_OK(ObjectStore::Default().Put(key, std::move(compressed)));
  staging_[p] = BinaryWriter();
  staging_rows_[p] = 0;
  return Status::OK();
}

Result<bool> RowShuffleWriteOperator::NextImpl(Row* /*row*/) {
  if (done_) return false;
  Row row;
  while (true) {
    PHOTON_ASSIGN_OR_RETURN(bool ok, child_->Next(&row));
    if (!ok) break;
    uint64_t h = 0x517CC1B727220A95ULL;
    for (const ExprPtr& k : partition_keys_) {
      PHOTON_ASSIGN_OR_RETURN(Value v, k->EvaluateRow(row));
      h = HashCombine(h, v.HashCode());
    }
    int p = static_cast<int>(h % static_cast<uint64_t>(num_partitions_));
    SerializeRow(row, schema_, &staging_[p]);
    staging_rows_[p]++;
    if (staging_rows_[p] >= 2048) {
      PHOTON_RETURN_NOT_OK(FlushPartition(p));
    }
  }
  for (int p = 0; p < num_partitions_; p++) {
    PHOTON_RETURN_NOT_OK(FlushPartition(p));
  }
  done_ = true;
  return false;
}

RowShuffleReadOperator::RowShuffleReadOperator(Schema schema,
                                               std::string shuffle_id,
                                               int partition)
    : RowOperator(std::move(schema)),
      shuffle_id_(std::move(shuffle_id)),
      partition_(partition) {}

Status RowShuffleReadOperator::Open() {
  std::string prefix = "rowshuffle/" + shuffle_id_ + "/";
  if (partition_ >= 0) prefix += "p" + std::to_string(partition_) + "/";
  block_keys_ = ObjectStore::Default().List(prefix);
  next_block_ = 0;
  reader_.reset();
  return Status::OK();
}

Result<bool> RowShuffleReadOperator::NextImpl(Row* row) {
  while (true) {
    if (reader_ != nullptr && reader_->remaining() > 0) {
      PHOTON_RETURN_NOT_OK(DeserializeRow(reader_.get(), schema_, row));
      return true;
    }
    if (next_block_ >= block_keys_.size()) return false;
    PHOTON_ASSIGN_OR_RETURN(
        std::string frame,
        ObjectStore::Default().Get(block_keys_[next_block_++]));
    PHOTON_RETURN_NOT_OK(Decompress(frame, &current_block_));
    reader_ = std::make_unique<BinaryReader>(current_block_.view());
    uint64_t row_count = 0;
    PHOTON_RETURN_NOT_OK(reader_->ReadVarU64(&row_count));
  }
}

}  // namespace baseline
}  // namespace photon
