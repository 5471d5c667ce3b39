#ifndef EDADB_COMMON_STATUS_H_
#define EDADB_COMMON_STATUS_H_

#include <exception>
#include <ostream>
#include <source_location>
#include <string>
#include <string_view>
#include <utility>

#include "common/macros.h"

namespace edadb {

/// Error categories used across the library. Library code never throws;
/// every fallible operation returns a Status (or a Result<T>, see
/// common/result.h) in the style of RocksDB / Abseil.
enum class StatusCode {
  kOk = 0,
  kNotFound = 1,
  kAlreadyExists = 2,
  kInvalidArgument = 3,
  kCorruption = 4,
  kIOError = 5,
  kNotSupported = 6,
  kFailedPrecondition = 7,
  kOutOfRange = 8,
  kResourceExhausted = 9,
  kAborted = 10,
  kTimedOut = 11,
  kInternal = 12,
  /// The commit was applied (readers see it) but its WAL sync failed:
  /// it may or may not survive a crash. Never a rollback.
  kDurabilityUnknown = 13,
};

/// Returns a stable human-readable name ("NotFound", ...) for a code.
std::string_view StatusCodeToString(StatusCode code);

namespace internal_status {
/// Prints the unexamined error (with its originating factory site) to
/// stderr and aborts. Out of line so the hot path stays small.
[[noreturn]] void UncheckedStatusAbort(const char* file, int line, int code,
                                       const char* message);
}  // namespace internal_status

/// A Status holds the outcome of an operation: kOk, or an error code plus
/// a message describing what went wrong. Statuses are cheap to copy for
/// the OK case and small otherwise.
///
/// The class-level EDADB_NODISCARD makes dropping any by-value Status a
/// -Wunused-result warning (an error under EDADB_WERROR); intentional
/// discards must go through EDADB_IGNORE_STATUS (common/macros.h).
///
/// Building with -DEDADB_CHECK_STATUS=ON additionally arms a debug
/// detector: each Status remembers whether its outcome was ever examined
/// (ok() / code() / Is*() / ToString() / message() / comparison /
/// move-out), and destroying or overwriting an *unexamined error* aborts,
/// printing the factory call site that created it. This catches drops
/// that launder through variables, which [[nodiscard]] cannot see.
/// Copies and moves of an error start life unexamined again, so
/// propagating an error to a caller re-obligates the caller to look at
/// it. The flag changes the class layout and must be set for the whole
/// build (the CMake option handles this), never per target.
class EDADB_NODISCARD Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message,
         std::source_location loc = std::source_location::current())
      : code_(code), message_(std::move(message)) {
#ifdef EDADB_CHECK_STATUS
    checked_ = (code_ == StatusCode::kOk);
    origin_file_ = loc.file_name();
    origin_line_ = static_cast<int>(loc.line());
#else
    (void)loc;
#endif
  }

#ifdef EDADB_CHECK_STATUS
  Status(const Status& other)
      : code_(other.code_),
        message_(other.message_),
        checked_(other.code_ == StatusCode::kOk),
        origin_file_(other.origin_file_),
        origin_line_(other.origin_line_) {}
  Status& operator=(const Status& other) {
    if (this != &other) {
      EnforceExamined();  // overwriting destroys the old outcome
      code_ = other.code_;
      message_ = other.message_;
      checked_ = (code_ == StatusCode::kOk);
      origin_file_ = other.origin_file_;
      origin_line_ = other.origin_line_;
    }
    return *this;
  }
  Status(Status&& other) noexcept
      : code_(other.code_),
        message_(std::move(other.message_)),
        checked_(other.code_ == StatusCode::kOk),
        origin_file_(other.origin_file_),
        origin_line_(other.origin_line_) {
    other.checked_ = true;  // moved-out counts as examined
  }
  Status& operator=(Status&& other) noexcept {
    if (this != &other) {
      EnforceExamined();
      code_ = other.code_;
      message_ = std::move(other.message_);
      checked_ = (code_ == StatusCode::kOk);
      origin_file_ = other.origin_file_;
      origin_line_ = other.origin_line_;
      other.checked_ = true;
    }
    return *this;
  }
  ~Status() { EnforceExamined(); }
#else
  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;
#endif

  // Factory helpers, one per error category. The defaulted
  // source_location captures the *caller's* file:line so an
  // EDADB_CHECK_STATUS abort can name the site that created the error.
  static Status OK() { return Status(); }
  static Status NotFound(
      std::string msg,
      std::source_location loc = std::source_location::current()) {
    return Status(StatusCode::kNotFound, std::move(msg), loc);
  }
  static Status AlreadyExists(
      std::string msg,
      std::source_location loc = std::source_location::current()) {
    return Status(StatusCode::kAlreadyExists, std::move(msg), loc);
  }
  static Status InvalidArgument(
      std::string msg,
      std::source_location loc = std::source_location::current()) {
    return Status(StatusCode::kInvalidArgument, std::move(msg), loc);
  }
  static Status Corruption(
      std::string msg,
      std::source_location loc = std::source_location::current()) {
    return Status(StatusCode::kCorruption, std::move(msg), loc);
  }
  static Status IOError(
      std::string msg,
      std::source_location loc = std::source_location::current()) {
    return Status(StatusCode::kIOError, std::move(msg), loc);
  }
  static Status NotSupported(
      std::string msg,
      std::source_location loc = std::source_location::current()) {
    return Status(StatusCode::kNotSupported, std::move(msg), loc);
  }
  static Status FailedPrecondition(
      std::string msg,
      std::source_location loc = std::source_location::current()) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg), loc);
  }
  static Status OutOfRange(
      std::string msg,
      std::source_location loc = std::source_location::current()) {
    return Status(StatusCode::kOutOfRange, std::move(msg), loc);
  }
  static Status ResourceExhausted(
      std::string msg,
      std::source_location loc = std::source_location::current()) {
    return Status(StatusCode::kResourceExhausted, std::move(msg), loc);
  }
  static Status Aborted(
      std::string msg,
      std::source_location loc = std::source_location::current()) {
    return Status(StatusCode::kAborted, std::move(msg), loc);
  }
  static Status TimedOut(
      std::string msg,
      std::source_location loc = std::source_location::current()) {
    return Status(StatusCode::kTimedOut, std::move(msg), loc);
  }
  static Status Internal(
      std::string msg,
      std::source_location loc = std::source_location::current()) {
    return Status(StatusCode::kInternal, std::move(msg), loc);
  }
  static Status DurabilityUnknown(
      std::string msg,
      std::source_location loc = std::source_location::current()) {
    return Status(StatusCode::kDurabilityUnknown, std::move(msg), loc);
  }

  bool ok() const {
    MarkExamined();
    return code_ == StatusCode::kOk;
  }
  StatusCode code() const {
    MarkExamined();
    return code_;
  }
  const std::string& message() const {
    MarkExamined();
    return message_;
  }

  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code() == StatusCode::kAlreadyExists; }
  bool IsInvalidArgument() const {
    return code() == StatusCode::kInvalidArgument;
  }
  bool IsCorruption() const { return code() == StatusCode::kCorruption; }
  bool IsIOError() const { return code() == StatusCode::kIOError; }
  bool IsNotSupported() const { return code() == StatusCode::kNotSupported; }
  bool IsFailedPrecondition() const {
    return code() == StatusCode::kFailedPrecondition;
  }
  bool IsOutOfRange() const { return code() == StatusCode::kOutOfRange; }
  bool IsResourceExhausted() const {
    return code() == StatusCode::kResourceExhausted;
  }
  bool IsAborted() const { return code() == StatusCode::kAborted; }
  bool IsTimedOut() const { return code() == StatusCode::kTimedOut; }
  bool IsInternal() const { return code() == StatusCode::kInternal; }
  bool IsDurabilityUnknown() const {
    return code() == StatusCode::kDurabilityUnknown;
  }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

  /// Marks this status examined without reading it — for carriers that
  /// hold a Status as *data* rather than as an outcome owed to a
  /// caller (e.g. failpoint::Action stores the error it will inject
  /// later). Prefer EDADB_IGNORE_STATUS at ordinary call sites: this
  /// escape hatch carries no written justification.
  void PermitUncheckedError() const { MarkExamined(); }

  /// An error born already acknowledged to the EDADB_CHECK_STATUS
  /// detector — for default payload values inside carrier types
  /// (failpoint::Action's default injected error), where even the
  /// assignment that replaces the default would otherwise trip the
  /// overwrite enforcement. Returned as a prvalue so copy elision
  /// preserves the acknowledged state; ordinary copies of it are
  /// re-obligated as usual.
  static Status UncheckedPayload(
      StatusCode code, std::string msg,
      std::source_location loc = std::source_location::current()) {
    return Status(PermitUncheckedTag{}, code, std::move(msg), loc);
  }

  friend bool operator==(const Status& a, const Status& b) {
    a.MarkExamined();
    b.MarkExamined();
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  // Result's constructor asserts on the embedded status (which examines
  // it) and then re-arms the detector: wrapping an error in a Result
  // must not discharge the eventual caller's obligation.
  template <typename U>
  friend class Result;

  struct PermitUncheckedTag {};
  Status(PermitUncheckedTag, StatusCode code, std::string message,
         std::source_location loc)
      : Status(code, std::move(message), loc) {
    MarkExamined();
  }

#ifdef EDADB_CHECK_STATUS
  void MarkExamined() const { checked_ = true; }
  void MarkUnexamined() const { checked_ = (code_ == StatusCode::kOk); }
  void EnforceExamined() const {
    if (!checked_ && code_ != StatusCode::kOk) {
      internal_status::UncheckedStatusAbort(origin_file_, origin_line_,
                                            static_cast<int>(code_),
                                            message_.c_str());
    }
  }
#else
  void MarkExamined() const {}
  void MarkUnexamined() const {}
#endif

  StatusCode code_;
  std::string message_;
#ifdef EDADB_CHECK_STATUS
  mutable bool checked_ = true;
  const char* origin_file_ = "";
  int origin_line_ = 0;
#endif
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Calls `fn`, an application callback that may throw even though the
/// library never does, and converts anything it throws into an Internal
/// status, so one bad callback cannot abort the fan-out that invoked it.
/// `what` and `name` label the callback in the message, e.g. ("handler
/// for subscriber", "ops"); they are only formatted on failure.
template <typename Fn>
Status InvokeCatching(std::string_view what, std::string_view name,
                      Fn&& fn) {
  const auto label = [&] {
    return std::string(what) + " '" + std::string(name) + "' threw";
  };
  try {
    std::forward<Fn>(fn)();
  } catch (const std::exception& e) {
    return Status::Internal(label() + ": " + e.what());
  } catch (...) {
    return Status::Internal(label() + " a non-std::exception");
  }
  return Status::OK();
}

}  // namespace edadb

#endif  // EDADB_COMMON_STATUS_H_
