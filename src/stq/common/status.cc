#include "stq/common/status.h"

namespace stq {

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kIOError:
      return "IOError";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

const std::string& Status::EmptyMessage() {
  // Constant-initialized (std::string's default constructor is
  // constexpr), so no first-use guard and no static-init order hazard.
  static const std::string kEmpty;
  return kEmpty;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeToString(error_->code));
  out += ": ";
  out += error_->message;
  return out;
}

}  // namespace stq
