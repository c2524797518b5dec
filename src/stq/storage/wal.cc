#include "stq/storage/wal.h"

#include <algorithm>

#include "stq/common/check.h"
#include "stq/common/crc32.h"
#include "stq/storage/coding.h"

namespace stq {

namespace {
// Sanity cap: no single record in this system approaches this size; a
// larger length field means a corrupt frame, not a huge record.
constexpr uint32_t kMaxPayload = 64u << 20;  // 64 MiB
// [crc32c: u32] [payload_len: u32]; the type byte follows.
constexpr size_t kHeaderSize = 8;
}  // namespace

LogWriter::~LogWriter() {
  // Silently dropping buffered data on destruction is how acknowledged
  // writes get lost: require an explicit Close() (whose error the caller
  // saw) or Abandon() (a deliberate crash-path drop) first.
  STQ_DCHECK(file_ == nullptr || !status_.ok())
      << "LogWriter destroyed while open and healthy: " << path_;
  file_.reset();
}

Status LogWriter::Open(Env* env, const std::string& path, bool truncate) {
  if (file_ != nullptr) return Status::FailedPrecondition("already open");
  if (env == nullptr) env = Env::Default();
  STQ_RETURN_IF_ERROR(env->NewWritableFile(path, truncate, &file_));
  path_ = path;
  status_ = Status::OK();
  return Status::OK();
}

Status LogWriter::BeginFrame(uint8_t type) {
  if (!status_.ok()) return status_;
  if (file_ == nullptr) return Status::FailedPrecondition("log not open");
  frame_.assign(kHeaderSize, '\0');
  PutByte(&frame_, type);
  return Status::OK();
}

Status LogWriter::FinishFrame() {
  const size_t len = frame_.size() - kHeaderSize - 1;
  if (len > kMaxPayload) {
    return Status::InvalidArgument("record payload too large");
  }
  char* header = frame_.data();
  EncodeFixed32(header, Crc32c(header + kHeaderSize, len + 1));
  EncodeFixed32(header + 4, static_cast<uint32_t>(len));
  Status s = file_->Append(frame_);
  if (!s.ok()) status_ = s;  // a partial frame may be in the file: poison
  return s;
}

Status LogWriter::Sync() {
  if (!status_.ok()) return status_;
  if (file_ == nullptr) return Status::FailedPrecondition("log not open");
  Status s = file_->Sync();
  if (!s.ok()) status_ = s;
  return s;
}

Status LogWriter::Close() {
  if (file_ == nullptr) return status_;
  Status s = file_->Close();
  file_.reset();
  if (!s.ok() && status_.ok()) status_ = s;
  return status_;
}

void LogWriter::Abandon() {
  if (file_ != nullptr) {
    (void)file_->Close();  // best-effort: errors deliberately dropped
    file_.reset();
  }
  if (status_.ok()) status_ = Status::FailedPrecondition("log writer abandoned");
}

LogReader::~LogReader() { file_.reset(); }

Status LogReader::Open(Env* env, const std::string& path) {
  if (file_ != nullptr) return Status::FailedPrecondition("already open");
  if (env == nullptr) env = Env::Default();
  STQ_RETURN_IF_ERROR(env->NewSequentialFile(path, &file_));
  path_ = path;
  buf_.clear();
  pos_ = 0;
  file_done_ = false;
  offset_ = valid_offset_ = last_record_offset_ = 0;
  records_ = 0;
  return Status::OK();
}

Status LogReader::Fill(size_t n, size_t* available) {
  *available = buf_.size() - pos_;
  if (*available >= n || file_done_) return Status::OK();
  // Keep only the unparsed tail, so the buffer never grows past one
  // block plus the record being read.
  buf_.erase(0, pos_);
  pos_ = 0;
  // One read suffices: a short read means the file has ended.
  const size_t want = std::max(kBlockSize, n - buf_.size());
  STQ_RETURN_IF_ERROR(file_->Read(want, &chunk_));
  file_done_ = chunk_.size() < want;
  buf_.append(chunk_);
  *available = buf_.size();
  return Status::OK();
}

Status LogReader::ReadRecord(uint8_t* type, std::string* payload, bool* eof) {
  *eof = false;
  if (file_ == nullptr) return Status::FailedPrecondition("log not open");

  last_record_offset_ = offset_;
  // A frame cut short by the end of the file is a torn tail from a crash
  // mid-append: a clean end of log.
  auto torn_tail = [&](size_t available) {
    pos_ += available;
    offset_ += available;
    *eof = true;
    return Status::OK();
  };
  size_t available = 0;
  STQ_RETURN_IF_ERROR(Fill(kHeaderSize, &available));
  if (available < kHeaderSize) return torn_tail(available);
  const uint32_t crc = DecodeFixed32(buf_.data() + pos_);
  const uint32_t len = DecodeFixed32(buf_.data() + pos_ + 4);
  if (len > kMaxPayload) {
    return Status::Corruption(
        "implausible record length in " + path_ + " at record #" +
        std::to_string(records_) + " (offset " +
        std::to_string(last_record_offset_) + ")");
  }
  const size_t frame = kHeaderSize + 1 + static_cast<size_t>(len);
  STQ_RETURN_IF_ERROR(Fill(frame, &available));
  if (available < frame) return torn_tail(available);
  const char* body = buf_.data() + pos_ + kHeaderSize;
  if (Crc32c(body, static_cast<size_t>(len) + 1) != crc) {
    return Status::Corruption(
        "checksum mismatch in " + path_ + " at record #" +
        std::to_string(records_) + " (offset " +
        std::to_string(last_record_offset_) + ")");
  }
  *type = static_cast<uint8_t>(body[0]);
  payload->assign(body + 1, len);
  pos_ += frame;
  offset_ += frame;
  valid_offset_ = offset_;
  ++records_;
  return Status::OK();
}

Status LogReader::Close() {
  file_.reset();
  return Status::OK();
}

}  // namespace stq
