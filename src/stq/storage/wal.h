// Append-only log with CRC-framed records.
//
// Frame layout: [crc32c: u32] [payload_len: u32] [type: u8] [payload].
// The CRC covers type + payload. A reader treats a truncated final frame
// as a clean end of log (the crash happened mid-append) but a CRC mismatch
// on a complete frame as corruption.
//
// All I/O goes through an stq::Env so fault-injection tests can exercise
// failed appends, torn writes, and lost syncs (see fault_env.h).
//
// Error stickiness: the first failed Append/Sync poisons the writer. A
// partial frame may already be in the file, so a later Append would land
// on top of it and corrupt everything after; instead, every call after a
// failure returns the original error until the writer is discarded.

#ifndef STQ_STORAGE_WAL_H_
#define STQ_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "stq/common/status.h"
#include "stq/storage/env.h"

namespace stq {

class LogWriter {
 public:
  LogWriter() = default;
  // A writer must be Close()d (surfacing the error) or Abandon()ed
  // before destruction; destroying one with buffered data would silently
  // drop it. Enforced by STQ_DCHECK in debug/invariant builds.
  ~LogWriter();

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  // Opens `path` for appending (created if missing). `truncate` starts a
  // fresh log. `env == nullptr` means Env::Default().
  Status Open(Env* env, const std::string& path, bool truncate);
  Status Open(const std::string& path, bool truncate) {
    return Open(nullptr, path, truncate);
  }

  Status Append(uint8_t type, const std::string& payload) {
    return AppendEncoded(
        type, [&payload](std::string* out) { out->append(payload); });
  }

  // Appends one record whose payload `encode(std::string* out)` appends
  // to *out. The frame is built in place in a buffer the writer keeps,
  // so a record costs one encode, one checksum and no allocation once
  // the buffer has grown to the largest record.
  template <typename EncodeFn>
  Status AppendEncoded(uint8_t type, const EncodeFn& encode) {
    STQ_RETURN_IF_ERROR(BeginFrame(type));
    encode(&frame_);
    return FinishFrame();
  }

  // Flushes user-space buffers and fsyncs.
  Status Sync();

  Status Close();

  // Drops the file handle without surfacing Close errors, for paths that
  // model a crash (Repository teardown, tests). Marks the writer
  // poisoned so the destructor check passes.
  void Abandon();

  bool is_open() const { return file_ != nullptr; }

  // False once an Append/Sync/Close has failed; `error()` is the first
  // failure.
  bool healthy() const { return status_.ok(); }
  const Status& error() const { return status_; }

 private:
  // Checks the writer can append and starts frame_ with a header
  // placeholder and the type byte.
  Status BeginFrame(uint8_t type);
  // Fills in the header of frame_ and appends it to the file.
  Status FinishFrame();

  std::unique_ptr<WritableFile> file_;
  std::string path_;
  std::string frame_;  // the record being appended; reused
  Status status_;  // sticky: first I/O failure
};

class LogReader {
 public:
  LogReader() = default;
  ~LogReader();

  LogReader(const LogReader&) = delete;
  LogReader& operator=(const LogReader&) = delete;

  Status Open(Env* env, const std::string& path);
  Status Open(const std::string& path) { return Open(nullptr, path); }

  // Reads the next record into *type and *payload (whose capacity is
  // reused). Returns:
  //  - OK with *eof == false: a record was read,
  //  - OK with *eof == true: clean end of log (including a truncated tail),
  //  - Corruption: CRC mismatch or impossible frame. The message carries
  //    the byte offset and record index of the bad frame.
  // Frames are parsed out of a buffer filled kBlockSize bytes at a time,
  // so the reader holds at most one block plus the largest record.
  Status ReadRecord(uint8_t* type, std::string* payload, bool* eof);

  static constexpr size_t kBlockSize = 64 << 10;

  Status Close();

  // Byte offset just past the last successfully read record — on a torn
  // tail or corruption, the length the file should be truncated to so a
  // fresh append cannot land on top of garbage.
  uint64_t valid_offset() const { return valid_offset_; }

  // Byte offset at which the most recent ReadRecord started.
  uint64_t last_record_offset() const { return last_record_offset_; }

  // Complete records read so far.
  uint64_t records_read() const { return records_; }

 private:
  // Makes at least `n` unparsed bytes available in buf_ unless the file
  // ends first; *available is how many there are.
  Status Fill(size_t n, size_t* available);

  std::unique_ptr<SequentialFile> file_;
  std::string path_;
  std::string buf_;    // bytes read from the file; [pos_, end) unparsed
  size_t pos_ = 0;
  std::string chunk_;  // one Read's bytes, appended to buf_
  bool file_done_ = false;          // the file returned a short read
  uint64_t offset_ = 0;             // file offset of buf_[pos_]
  uint64_t valid_offset_ = 0;       // end of last good record
  uint64_t last_record_offset_ = 0; // start of the record being read
  uint64_t records_ = 0;
};

}  // namespace stq

#endif  // STQ_STORAGE_WAL_H_
