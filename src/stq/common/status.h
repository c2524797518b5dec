// Status: the error-reporting vocabulary type of the stq library.
//
// stq does not use C++ exceptions. Every fallible operation returns a
// Status (or a Result<T>, see result.h). A Status is one pointer, null
// when OK, so forwarding an OK Status through any number of
// STQ_RETURN_IF_ERROR levels copies and tests one word; the code and the
// human-readable message live behind the pointer in the error case.
//
// Example:
//   stq::Status s = wal.Append(record);
//   if (!s.ok()) {
//     STQ_LOG(ERROR) << "append failed: " << s.ToString();
//   }

#ifndef STQ_COMMON_STATUS_H_
#define STQ_COMMON_STATUS_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace stq {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kCorruption = 5,
  kIOError = 6,
  kFailedPrecondition = 7,
  kUnimplemented = 8,
  kInternal = 9,
};

// Returns a stable, human-readable name for `code` (e.g. "NotFound").
std::string_view StatusCodeToString(StatusCode code);

class Status {
 public:
  // Constructs an OK status.
  Status() = default;

  // An OK code makes an OK Status; its message is dropped.
  Status(StatusCode code, std::string message)
      : error_(code == StatusCode::kOk
                   ? nullptr
                   : std::make_unique<Error>(Error{code, std::move(message)})) {
  }

  Status(const Status& other)
      : error_(other.error_ == nullptr
                   ? nullptr
                   : std::make_unique<Error>(*other.error_)) {}
  Status& operator=(const Status& other) {
    if (this != &other) {
      error_ = other.error_ == nullptr ? nullptr
                                       : std::make_unique<Error>(*other.error_);
    }
    return *this;
  }
  // A moved-from Status is OK.
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  // Factory helpers, one per error code.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return error_ == nullptr; }
  StatusCode code() const {
    return error_ == nullptr ? StatusCode::kOk : error_->code;
  }
  // Empty when OK.
  const std::string& message() const {
    return error_ == nullptr ? EmptyMessage() : error_->message;
  }

  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsInvalidArgument() const {
    return code() == StatusCode::kInvalidArgument;
  }
  bool IsCorruption() const { return code() == StatusCode::kCorruption; }
  bool IsIOError() const { return code() == StatusCode::kIOError; }
  bool IsAlreadyExists() const { return code() == StatusCode::kAlreadyExists; }

  // "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code() == b.code() && a.message() == b.message();
  }

 private:
  struct Error {
    StatusCode code;
    std::string message;
  };

  static const std::string& EmptyMessage();

  std::unique_ptr<Error> error_;  // null iff OK
};

// Propagates a non-OK status to the caller. Usable only in functions that
// themselves return Status.
#define STQ_RETURN_IF_ERROR(expr)                  \
  do {                                             \
    ::stq::Status _stq_status = (expr);            \
    if (!_stq_status.ok()) return _stq_status;     \
  } while (0)

}  // namespace stq

#endif  // STQ_COMMON_STATUS_H_
