#include "common/status.h"

#include <cstdio>
#include <cstdlib>

namespace edadb {

namespace internal_status {

void UncheckedStatusAbort(const char* file, int line, int code,
                          const char* message) {
  std::fprintf(stderr,
               "edadb: error Status destroyed without being examined: "
               "%.*s: %s (created at %s:%d)\n",
               static_cast<int>(
                   StatusCodeToString(static_cast<StatusCode>(code)).size()),
               StatusCodeToString(static_cast<StatusCode>(code)).data(),
               message, file, line);
  std::fflush(stderr);
  std::abort();
}

}  // namespace internal_status

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kIOError:
      return "IOError";
    case StatusCode::kNotSupported:
      return "NotSupported";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kAborted:
      return "Aborted";
    case StatusCode::kTimedOut:
      return "TimedOut";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kDurabilityUnknown:
      return "DurabilityUnknown";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeToString(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace edadb
